// Error handling primitives shared by all fedcl modules.
//
// We use exceptions for contract violations (CHECK) because every
// public entry point of the library validates its inputs and a violated
// precondition indicates a programming error by the caller; tests
// assert on these throws.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fedcl {

// Thrown on any violated precondition or internal invariant.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Recoverable failure of an operation whose inputs cross a trust
// boundary (bytes off the wire, updates from unreliable clients).
// Unlike FEDCL_CHECK — which flags caller bugs — a failed Result is an
// expected runtime outcome the caller must branch on.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit ok
  static Result failure(std::string message) {
    Result r;
    r.error_ = std::move(message);
    if (r.error_.empty()) r.error_ = "unknown error";
    return r;
  }

  bool ok() const { return error_.empty(); }
  explicit operator bool() const { return ok(); }
  // Empty when ok().
  const std::string& error() const { return error_; }

  // value()/take() require ok(); violating that is a caller bug.
  const T& value() const {
    ensure_ok();
    return value_;
  }
  T& value() {
    ensure_ok();
    return value_;
  }
  T&& take() {
    ensure_ok();
    return std::move(value_);
  }

 private:
  Result() = default;
  void ensure_ok() const {
    if (!ok()) throw Error("Result accessed while failed: " + error_);
  }
  T value_{};
  std::string error_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "FEDCL_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

// "a vs b", the operands a failed FEDCL_CHECK_EQ and friends report.
// Taken by value and kept out of line, so a passing check leaves its
// operands in registers and its caller without the formatting frame.
template <typename A, typename B>
[[gnu::noinline, gnu::cold]] std::string operands(A a, B b) {
  std::ostringstream os;
  os << a << " vs " << b;
  return os.str();
}

// Accumulates a streamed message for FEDCL_CHECK(cond) << "detail". A
// comparison check also carries its operands, which the message follows
// after ": " when there is one.
class CheckMessage {
 public:
  CheckMessage(const char* expr, const char* file, int line,
               std::string operands = {})
      : expr_(expr), file_(file), line_(line), operands_(std::move(operands)) {}
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  [[noreturn]] ~CheckMessage() noexcept(false) {
    std::string msg = os_.str();
    if (!operands_.empty()) {
      msg = msg.empty() ? operands_ : operands_ + ": " + msg;
    }
    check_failed(expr_, file_, line_, msg);
  }

 private:
  const char* expr_;
  const char* file_;
  int line_;
  std::string operands_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace fedcl

// FEDCL_CHECK(cond) << "message"; throws fedcl::Error when cond is false.
#define FEDCL_CHECK(cond)                                             \
  if (cond) {                                                         \
  } else                                                              \
    ::fedcl::detail::CheckMessage(#cond, __FILE__, __LINE__)

// Convenience comparisons with value reporting. A failure's message
// reads "1.25 vs 1: <streamed detail>", or "1.25 vs 1" when nothing is
// streamed.
#define FEDCL_CHECK_OP_(a, op, b)                                       \
  if ((a) op (b)) {                                                     \
  } else                                                                \
    ::fedcl::detail::CheckMessage("(" #a ") " #op " (" #b ")", __FILE__, \
                                  __LINE__,                             \
                                  ::fedcl::detail::operands((a), (b)))
#define FEDCL_CHECK_EQ(a, b) FEDCL_CHECK_OP_(a, ==, b)
#define FEDCL_CHECK_NE(a, b) FEDCL_CHECK_OP_(a, !=, b)
#define FEDCL_CHECK_LT(a, b) FEDCL_CHECK_OP_(a, <, b)
#define FEDCL_CHECK_LE(a, b) FEDCL_CHECK_OP_(a, <=, b)
#define FEDCL_CHECK_GT(a, b) FEDCL_CHECK_OP_(a, >, b)
#define FEDCL_CHECK_GE(a, b) FEDCL_CHECK_OP_(a, >=, b)
