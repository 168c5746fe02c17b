#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/error.h"

namespace fedcl {

FlagParser::FlagParser(int argc, char** argv) {
  FEDCL_CHECK_GE(argc, 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {  // a bare "--" too
      stray_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare boolean flag
    }
  }
}

std::vector<std::string> FlagParser::unknown(std::string_view usage) const {
  // Every --name token in `usage`: "--", a letter, then letters, digits
  // and dashes.
  const auto name_char = [](char c, bool first) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (!first && ((c >= '0' && c <= '9') || c == '-'));
  };
  std::set<std::string_view> listed;
  std::size_t i = 0;
  while ((i = usage.find("--", i)) != std::string_view::npos) {
    std::size_t end = i + 2;
    while (end < usage.size() && name_char(usage[end], end == i + 2)) ++end;
    if (end == i + 2) {
      ++i;
      continue;
    }
    listed.insert(usage.substr(i + 2, end - i - 2));
    i = end;
  }
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (name != "help" && listed.count(name) == 0) out.push_back("--" + name);
  }
  return out;
}

bool FlagParser::refuse_unlisted(std::string_view usage,
                                 const char* tool) const {
  const std::vector<std::string> flags = unknown(usage);
  for (const std::string& flag : flags) {
    std::fprintf(stderr, "%s: unknown flag %s (see --help)\n", tool,
                 flag.c_str());
  }
  for (const std::string& arg : stray_) {
    std::fprintf(stderr, "%s: stray argument %s (see --help)\n", tool,
                 arg.c_str());
  }
  return !flags.empty() || !stray_.empty();
}

bool FlagParser::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::get(const std::string& name,
                            const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t FlagParser::get_int(const std::string& name,
                                 std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  FEDCL_CHECK(end != it->second.c_str() && *end == '\0')
      << "--" << name << " expects an integer, got '" << it->second << "'";
  return static_cast<std::int64_t>(v);
}

double FlagParser::get_double(const std::string& name,
                              double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  FEDCL_CHECK(end != it->second.c_str() && *end == '\0')
      << "--" << name << " expects a number, got '" << it->second << "'";
  return v;
}

bool FlagParser::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  FEDCL_CHECK(false) << "--" << name << " expects a boolean, got '" << v
                     << "'";
  return fallback;
}

}  // namespace fedcl
