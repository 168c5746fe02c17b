#include "common/env.h"

#include <cstdlib>
#include <string>

namespace fedcl {

BenchScale bench_scale() {
  const char* v = std::getenv("FEDCL_SCALE");
  if (v == nullptr) return BenchScale::kSmall;
  std::string s(v);
  if (s == "smoke") return BenchScale::kSmoke;
  if (s == "paper") return BenchScale::kPaper;
  return BenchScale::kSmall;
}

const char* bench_scale_name(BenchScale s) {
  switch (s) {
    case BenchScale::kSmoke:
      return "smoke";
    case BenchScale::kSmall:
      return "small";
    case BenchScale::kPaper:
      return "paper";
  }
  return "?";
}

std::uint64_t experiment_seed() {
  return static_cast<std::uint64_t>(env_int("FEDCL_SEED", 42));
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<std::int64_t>(parsed);
}

}  // namespace fedcl
