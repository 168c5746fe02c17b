// Experiment scaling knobs read from the environment.
//
// Benches default to laptop-scale parameters so the whole suite runs in
// minutes on one CPU core. Setting FEDCL_SCALE=paper selects the
// paper-sized configuration. FEDCL_SEED overrides the experiment seed.
#pragma once

#include <cstdint>
#include <string>

namespace fedcl {

enum class BenchScale {
  kSmoke,  // FEDCL_SCALE=smoke : seconds, CI-sized
  kSmall,  // default           : minutes, shape-preserving
  kPaper,  // FEDCL_SCALE=paper : paper-sized parameters
};

BenchScale bench_scale();
const char* bench_scale_name(BenchScale s);

// Experiment seed (FEDCL_SEED, default 42).
std::uint64_t experiment_seed();

// Reads an integer env override, returning fallback when unset.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

}  // namespace fedcl
