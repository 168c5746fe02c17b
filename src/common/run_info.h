// Run manifest: who/what/where of the current process, captured once
// and embedded in every machine-readable artifact the stack emits —
// the telemetry JSONL meta header and every BENCH_*.json document —
// so a run is reproducible by inspection (git sha + dirty flag,
// compiler/build type, hostname, the ISA its kernels dispatch on, core
// counts, seed, scale, and the command line it was invoked with).
//
// The git fields are resolved at runtime against the source tree the
// binary was built from (FEDCL_SOURCE_DIR, baked in by CMake), so a
// rebuilt-but-uncommitted tree is honestly reported as dirty. When git
// or the tree is unavailable (installed binary, stripped container)
// they degrade to "unknown"; FEDCL_GIT_SHA / FEDCL_GIT_DIRTY override
// both for hermetic build environments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace fedcl::runinfo {

struct RunInfo {
  std::string git_sha;        // full sha, or "unknown"
  bool git_dirty = false;     // uncommitted changes in the source tree
  std::string build_type;     // CMAKE_BUILD_TYPE at configure time
  std::string compiler;       // e.g. "g++ 12.2.0"
  std::string hostname;       // gethostname(), or "unknown"
  std::string isa;            // fedcl_host_isa() (tensor/simd.h)
  std::int64_t hardware_threads = 0;  // std::thread::hardware_concurrency
  std::int64_t compute_threads = 0;   // compute_pool().size()
  std::uint64_t seed = 0;     // experiment_seed() (FEDCL_SEED)
  std::string scale;          // bench_scale_name (FEDCL_SCALE)
  std::vector<std::string> argv;  // set via set_command_line; may be empty
};

// Records the process command line so the manifest can carry the
// resolved invocation. Call once, first thing in main(); later
// current() / to_json() calls include it.
void set_command_line(int argc, char** argv);

// The manifest for this process. Git/host/build fields are resolved on
// first call and cached; seed/scale/argv are re-read every call so a
// manifest captured after flag parsing reflects the resolved config.
RunInfo current();

// JSON form used by the telemetry meta line and bench documents:
//   {"git":{"sha":...,"dirty":...},"build":{"type":...,"compiler":...},
//    "host":{"name":...,"isa":...,"hardware_threads":...,
//            "compute_threads":...},
//    "seed":...,"scale":...,"argv":[...]}
json::Value to_json(const RunInfo& info);
inline json::Value to_json() { return to_json(current()); }

}  // namespace fedcl::runinfo
