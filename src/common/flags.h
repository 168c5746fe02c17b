// Minimal command-line flag parsing for the example binaries:
// --name=value and --name value forms. An argument that is neither a
// flag nor a flag's value is kept as stray (the 5 in `--rounds 2 5`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fedcl {

class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  // "true"/"1"/"yes" (case sensitive) => true; bare "--flag" => true.
  bool get_bool(const std::string& name, bool fallback) const;

  // The given flags `usage` does not list, as "--name", in name order.
  // `usage` lists --name when it holds that token, read the way
  // tools/check_docs.py reads a binary's --help output. --help itself
  // is always known.
  std::vector<std::string> unknown(std::string_view usage) const;

  // The stray arguments, in command-line order.
  const std::vector<std::string>& stray() const { return stray_; }

  // Writes "<tool>: unknown flag --name (see --help)" to stderr for
  // every unknown(usage) flag and "<tool>: stray argument ARG (see
  // --help)" for every stray argument. True when it wrote any: the
  // CLIs then exit 1 before any work.
  bool refuse_unlisted(std::string_view usage, const char* tool) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> stray_;
};

}  // namespace fedcl
