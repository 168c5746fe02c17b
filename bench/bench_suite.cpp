// Unified bench suite driver: runs a standard subset of the bench
// binaries at a fixed scale, collects the BENCH_<name>.json document
// each one emits, and assembles them into a single
// BENCH_suite.json (schema docs/bench.schema.json) stamped with the
// run manifest. Built as the `bench_suite` CMake target:
//
//   cmake --build build --target bench_suite
//
// writes BENCH_suite.json at the repo root; feed it to
// tools/fedcl_report.py for paper-style tables and regression diffs.
// `bench_suite_runner --help` lists the flags; an unlisted one stops it
// before it runs a bench or writes a file.
#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/run_info.h"

namespace {

using fedcl::json::Value;

// The standard suite: one accuracy table, one sweep table, the pure
// accounting table, Table VII's leakage pattern (which the bench gates
// itself), the Fig. 3 series, the fault-tolerance and async
// extensions, and the hot-path perf bench. Chosen to cover every
// gating metric class (accuracy / epsilon / ratio / fraction / count /
// distance / time) while staying tractable at FEDCL_SCALE=smoke on one
// core.
const std::vector<std::string> kSuite = {
    "table1_datasets", "table2_accuracy", "table6_privacy",
    "table7_attack",   "fig3_gradnorm",   "ext_faults",
    "ext_async",       "ext_serving",     "ext_scale",
    "perf_hotpath",
};

// What --help prints (a printf format, the program name its one
// argument), and the flags the binary accepts.
constexpr char kUsage[] =
    "usage: %s [--bench-dir=DIR] [--out=FILE.json] [--work-dir=DIR]\n"
    "          [--scale=smoke|small|paper]\n"
    "  Runs each suite bench (DIR/bench_<name>, DIR defaulting to .) at\n"
    "  --scale (default: FEDCL_SCALE, else smoke), keeps its log and JSON\n"
    "  under --work-dir (default bench_suite_work), and writes the\n"
    "  assembled suite to --out (default BENCH_suite.json).\n";

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string shell_quote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcl;
  runinfo::set_command_line(argc, argv);
  FlagParser flags(argc, argv);
  if (flags.has("help")) {
    std::printf(kUsage, flags.program().c_str());
    return 0;
  }
  if (flags.refuse_unlisted(kUsage, "bench_suite_runner")) return 1;
  const std::string bench_dir = flags.get("bench-dir", ".");
  const std::string out_path = flags.get("out", "BENCH_suite.json");
  // Scale precedence: --scale flag, then the caller's FEDCL_SCALE,
  // then smoke (the suite's standard size).
  const char* env_scale = std::getenv("FEDCL_SCALE");
  const std::string scale =
      flags.get("scale", env_scale != nullptr ? env_scale : "smoke");
  const std::string work_dir = flags.get("work-dir", "bench_suite_work");

  if (mkdir(work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "bench_suite: cannot create work dir %s\n",
                 work_dir.c_str());
    return 1;
  }
  // The child benches inherit the scale; seed stays whatever the
  // caller exported (FEDCL_SEED) so suite runs are reproducible.
  setenv("FEDCL_SCALE", scale.c_str(), 1);

  Value doc = Value::object();
  doc["schema"] = "fedcl-bench-suite-v1";
  doc["version"] = 1;
  doc["scale"] = scale;
  doc["run"] = runinfo::to_json();
  Value benches = Value::object();

  bool all_ok = true;
  for (const std::string& name : kSuite) {
    const std::string binary = bench_dir + "/bench_" + name;
    const std::string log = work_dir + "/" + name + ".log";
    const std::string cmd = shell_quote(binary) +
                            " --bench-out=" + shell_quote(work_dir) + " > " +
                            shell_quote(log) + " 2>&1";
    std::printf("bench_suite: running %s (scale=%s)...\n", name.c_str(),
                scale.c_str());
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());

    Value entry = Value::object();
    const std::string json_path = work_dir + "/BENCH_" + name + ".json";
    std::string text;
    if (rc == 0 && read_file(json_path, &text)) {
      Value parsed;
      std::string error;
      if (json::parse(text, parsed, &error)) {
        entry["status"] = "ok";
        entry["doc"] = std::move(parsed);
      } else {
        entry["status"] = "bad-json";
        entry["error"] = error;
        all_ok = false;
      }
    } else {
      entry["status"] = "failed";
      entry["exit_code"] = rc;
      std::string tail;
      if (read_file(log, &tail)) {
        if (tail.size() > 2000) tail = tail.substr(tail.size() - 2000);
        entry["log_tail"] = tail;
      }
      all_ok = false;
    }
    std::printf("bench_suite: %s -> %s\n", name.c_str(),
                entry["status"].as_string().c_str());
    benches[name] = std::move(entry);
  }
  doc["benches"] = std::move(benches);
  doc["ok"] = all_ok;

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_suite: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench_suite: short write to %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("bench_suite: wrote %s (%s)\n", out_path.c_str(),
              all_ok ? "all benches ok" : "SOME BENCHES FAILED");
  return all_ok ? 0 : 1;
}
