// Minimal leveled logger. Thread-safe line output to stderr, and every
// line that passes the level filter is also routed through the
// telemetry sink interface (common/telemetry.h), so a JSONL run
// captures WARN/ERROR events interleaved with metric events in
// emission order.
//
// The minimum level defaults to Info and can be set at startup with
// the FEDCL_LOG environment variable (debug|info|warn|error).
#pragma once

#include <sstream>
#include <string>

namespace fedcl {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global minimum level; messages below it are discarded.
LogLevel log_level();

const char* log_level_name(LogLevel level);

namespace detail {

void emit_log_line(LogLevel level, const std::string& msg);

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  template <typename T>
  LogMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  ~LogMessage() { emit_log_line(level_, os_.str()); }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace fedcl

#define FEDCL_LOG(level) \
  ::fedcl::detail::LogMessage(::fedcl::LogLevel::k##level)
