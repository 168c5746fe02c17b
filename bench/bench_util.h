// Shared helpers for the per-table/figure bench binaries.
//
// Every bench prints (1) the run configuration, (2) a table with the
// same row/column structure as the paper's table or figure, and
// (3) the paper's reported values where applicable, so shape
// comparisons (who wins, by how much, where crossovers fall) are
// immediate. Scale comes from FEDCL_SCALE (see data/benchmarks.h).
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/run_info.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/policy.h"
#include "data/benchmarks.h"

namespace fedcl::bench {

// The four policies of the paper's headline comparisons, built with
// the scale-calibrated noise level.
struct PolicySet {
  std::unique_ptr<core::PrivacyPolicy> non_private;
  std::unique_ptr<core::FedSdpPolicy> fed_sdp;
  std::unique_ptr<core::FedCdpPolicy> fed_cdp;
  std::unique_ptr<core::FedCdpPolicy> fed_cdp_decay;

  std::vector<const core::PrivacyPolicy*> all() const {
    return {non_private.get(), fed_sdp.get(), fed_cdp.get(),
            fed_cdp_decay.get()};
  }
};

inline PolicySet make_policy_set(std::int64_t total_rounds,
                                 double sigma = data::default_noise_scale(),
                                 double c = data::kDefaultClippingBound) {
  PolicySet set;
  set.non_private = core::make_non_private();
  set.fed_sdp = core::make_fed_sdp(c, sigma);
  set.fed_cdp = core::make_fed_cdp(c, sigma);
  set.fed_cdp_decay = core::make_fed_cdp_decay(
      total_rounds, data::kDecayClipStart, data::kDecayClipEnd, sigma);
  return set;
}

// Scale-dependent federation sizes used by the training benches. The
// paper simulates K up to 10000 with Kt up to 50%; the scaled runs
// shrink K while keeping the Kt/K percentages.
struct FederationScale {
  std::vector<std::int64_t> total_clients;  // the K column group
  std::int64_t default_clients = 20;        // K for single-config benches
  std::int64_t default_per_round = 10;      // Kt
  std::int64_t sweep_rounds = 0;            // T override for sweeps (0: bench default)
};

inline FederationScale federation_scale() {
  switch (bench_scale()) {
    case BenchScale::kSmoke:
      return {{4, 8}, 4, 2, 2};
    case BenchScale::kSmall:
      return {{20, 50, 100}, 20, 10, 15};
    case BenchScale::kPaper:
      return {{100, 1000, 10000}, 1000, 100, 0};
  }
  return {{20, 50, 100}, 20, 10, 15};
}

inline void print_preamble(const char* bench_name, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s — reproduces %s\n", bench_name, paper_ref);
  std::printf("scale: %s (FEDCL_SCALE), seed: %llu (FEDCL_SEED)\n",
              bench_scale_name(bench_scale()),
              static_cast<unsigned long long>(experiment_seed()));
  std::printf("==============================================================\n");
}

inline std::string yes_no(bool v) { return v ? "Y" : "N"; }

// Median wall-clock ms of one call of `round`: `warmup` untimed calls,
// then the median of `reps` timed ones, which one slow round cannot
// move. Every call gets a fresh fork of `stream_root`, so two legs
// timed from the same root replay the same RNG streams (same batches,
// same noise).
inline double time_rounds(const std::function<void(Rng&)>& round, int warmup,
                          int reps, const Rng& stream_root) {
  using Clock = std::chrono::steady_clock;
  for (int r = 0; r < warmup; ++r) {
    Rng rng = stream_root.fork("warmup", static_cast<std::uint64_t>(r));
    round(rng);
  }
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Rng rng = stream_root.fork("timed", static_cast<std::uint64_t>(r));
    const auto start = Clock::now();
    round(rng);
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// Attaches a JSONL telemetry sink to the global registry when the
// bench was invoked with --telemetry-out=FILE (every bench accepts the
// flag; fl_simulator shares the same spelling). The registry flushes
// it at exit.
inline void init_telemetry_from_flags(const FlagParser& flags) {
  const std::string path = flags.get("telemetry-out", "");
  if (path.empty()) return;
  auto sink = std::make_unique<telemetry::JsonlSink>(path);
  if (!sink->ok()) {
    std::fprintf(stderr, "cannot open --telemetry-out file '%s'\n",
                 path.c_str());
    return;
  }
  telemetry::global_registry().add_sink(std::move(sink));
}

// Where BENCH_<name>.json documents land: --bench-out=DIR beats the
// FEDCL_BENCH_DIR environment variable beats the process cwd, so the
// bench_suite driver (and CI) can collect artifacts from a scratch
// directory instead of whatever cwd the bench ran from.
inline std::string& bench_out_dir_storage() {
  static std::string dir;
  return dir;
}

inline void set_bench_out_dir(std::string dir) {
  bench_out_dir_storage() = std::move(dir);
}

inline std::string bench_out_dir() {
  if (!bench_out_dir_storage().empty()) return bench_out_dir_storage();
  if (const char* env = std::getenv("FEDCL_BENCH_DIR")) {
    if (env[0] != '\0') return env;
  }
  return ".";
}

// Exits 1 with one stderr line naming `dir` unless it is a directory
// this process may create files in.
inline void require_writable_dir(const std::string& dir) {
  struct stat st;
  int err = 0;
  if (::stat(dir.c_str(), &st) != 0) {
    err = errno;
  } else if (!S_ISDIR(st.st_mode)) {
    err = ENOTDIR;
  } else if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    err = errno;
  }
  if (err == 0) return;
  std::fprintf(stderr, "bench: cannot write to output directory '%s': %s\n",
               dir.c_str(), std::strerror(err));
  std::exit(1);
}

// Standard per-bench startup: records the command line in the run
// manifest (common/run_info.h), resolves --bench-out / FEDCL_BENCH_DIR
// and refuses it before any work unless it is a writable directory,
// and attaches --telemetry-out. Every bench main() starts with this.
inline FlagParser init_bench(int argc, char** argv) {
  runinfo::set_command_line(argc, argv);
  FlagParser flags(argc, argv);
  const std::string out_dir = flags.get("bench-out", "");
  if (!out_dir.empty()) set_bench_out_dir(out_dir);
  require_writable_dir(bench_out_dir());
  init_telemetry_from_flags(flags);
  return flags;
}

// Adds a gating metric to `doc["metrics"]` — the flat, uniformly-shaped
// map tools/fedcl_report.py diffs between runs. `better` is "higher" or
// "lower"; `cls` groups metrics for per-class regression thresholds:
//   "time"     — absolute wall-clock (machine-specific; diffed only
//                between runs on comparable hosts),
//   "ratio"    — machine-portable speedups/fractions,
//   "accuracy" — model quality,
//   "epsilon"  — privacy accounting (deterministic),
//   "count"    — integer totals (rounds completed, successes),
//   "memory"   — peak resident set (portable across comparable
//                builds; diffed with its own ceiling-style threshold).
inline void add_metric(json::Value& doc, const std::string& name,
                       double value, const std::string& better,
                       const std::string& cls) {
  json::Value m = json::Value::object();
  m["value"] = value;
  m["better"] = better;
  m["class"] = cls;
  doc["metrics"][name] = std::move(m);
}

// Machine-readable record: embeds the run manifest as doc["run"],
// prints the document after the tables, and writes it to
// BENCH_<name>.json under bench_out_dir(). Returns false (with a
// stderr report — never a silent drop) when the file cannot be
// written; benches propagate that as a nonzero exit so CI catches a
// missing artifact at the source.
inline bool emit_bench_json(const std::string& bench_name, json::Value doc) {
  doc["run"] = runinfo::to_json();
  const std::string text = doc.dump(2) + "\n";
  std::printf("\nbench_json = %s", text.c_str());
  const std::string path = bench_out_dir() + "/BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open '%s' for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    std::fprintf(stderr, "bench: short/failed write to '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace fedcl::bench
