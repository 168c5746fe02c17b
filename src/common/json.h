// Minimal JSON document model: build, serialize, and parse.
//
// One shared implementation backs every machine-readable artifact the
// repo emits — the telemetry JSONL sink, the Prometheus-adjacent
// snapshot dump, and the per-bench bench_json documents — so escaping
// and number formatting are correct in one place instead of being
// re-implemented per bench with snprintf. The parser exists for the
// JSONL round-trip tests and the few places that read artifacts back;
// it is strict enough for documents this library itself produces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fedcl::json {

// Escapes a string for inclusion inside JSON quotes (adds no quotes).
std::string escape(const std::string& s);

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), number_(d) {}
  Value(std::int64_t i)
      : kind_(Kind::kNumber), number_(static_cast<double>(i)), int_(i),
        is_int_(true) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  std::int64_t as_int() const {
    return is_int_ ? int_ : static_cast<std::int64_t>(number_);
  }
  const std::string& as_string() const { return string_; }

  // Object access. operator[] inserts a null member when missing (build
  // mode); find returns nullptr when missing (read mode). Member order
  // is insertion order, so emitted documents are stable.
  Value& operator[](const std::string& key);
  const Value* find(const std::string& key) const;

  // Array access.
  void push_back(Value v) { elements_.push_back(std::move(v)); }
  std::size_t size() const {
    return kind_ == Kind::kObject ? members_.size() : elements_.size();
  }
  const Value& at(std::size_t i) const { return elements_[i]; }
  const std::vector<Value>& elements() const { return elements_; }

  // indent < 0: compact single line. indent >= 0: pretty-printed with
  // that many spaces per level.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  std::string string_;
  std::vector<std::pair<std::string, Value>> members_;
  std::vector<Value> elements_;
};

// Parses `text` into `out`. Returns false (and fills *error when given)
// on malformed input. Trailing whitespace is allowed, trailing garbage
// is not.
bool parse(const std::string& text, Value& out, std::string* error = nullptr);

}  // namespace fedcl::json
