// Extension experiment: the virtualized million-client federation.
// Two parts, one process:
//
//   Part 1 — reduction-order pin. The sync engine, folding in edge
//   blocks (streaming_aggregation, fl/round_engine.cpp), runs the SAME
//   experiment at every edge fan-out {2, 8, 64, >=Kt(flat)}, with sanitization
//   on (fed_sdp), and the final models must be BITWISE identical: the
//   binary-counter reduction order is fan-out-invariant on fault-free
//   rounds (DESIGN.md §7). This is the cheap, always-on guard that the tree
//   topology is an execution detail, not a numerics knob.
//
//   Part 2 — the headline scale round. One synchronous round over a
//   K = 1,000,000-client virtualized federation (full cohort), every
//   client materialized on demand from (seed, client_id) and folded
//   into the O(log K) accumulator as it reports. Gates:
//     (a) the round completes (quorum met, aggregate applied),
//     (b) peak RSS stays under --rss-ceiling-mb (the bounded-memory
//         claim, measured via getrusage ru_maxrss over the process),
//     (c) reducer occupancy respects the floor(log2 K)+1 bound.
//   Headline metrics: peak_rss_mb (class "memory" — gated with its own
//   regression threshold in CI) and clients_per_sec (class "time").
//
// Exits nonzero when a gate fails, so bench_suite flags it.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/error.h"
#include "common/telemetry.h"
#include "fl/protocol.h"
#include "fl/trainer.h"

namespace {

using namespace fedcl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set of this process in MiB. Linux reports ru_maxrss in
// KiB; this is a high-water mark over the whole process lifetime, so
// the cheap Part 1 runs first and cannot mask a Part 2 blow-up.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::int64_t log2_floor(std::int64_t v) {
  std::int64_t bits = 0;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags = bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_ext_scale",
      "extension: virtualized million-client federation in bounded memory");

  // The scale round uses the smoke-sized cancer benchmark regardless of
  // FEDCL_SCALE: the point is client COUNT, not dataset size, and the
  // virtualized provider makes every client a view over one shared
  // dataset anyway.
  const data::BenchmarkConfig smoke =
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmoke);

  // ---- Part 1: fan-out invariance, bitwise ----
  fl::FlExperimentConfig pin;
  pin.bench = smoke;
  pin.total_clients = 96;
  pin.clients_per_round = 96;
  pin.rounds = 2;
  pin.seed = experiment_seed();
  pin.eval_every = 0;
  pin.noise_scale = 0.25;
  pin.streaming_aggregation = true;
  std::unique_ptr<core::PrivacyPolicy> sdp =
      core::make_fed_sdp(data::kDefaultClippingBound, pin.noise_scale);

  const std::vector<std::int64_t> fan_outs = {2, 8, 64, 128};
  std::vector<std::vector<std::uint8_t>> finals;
  std::printf("fan-out pin: K=Kt=%lld, T=%lld, fed_sdp sigma=%.2f\n",
              static_cast<long long>(pin.total_clients),
              static_cast<long long>(pin.rounds), pin.noise_scale);
  for (std::int64_t f : fan_outs) {
    pin.tree_fan_out = f;
    fl::FlRunResult r = fl::run_experiment(pin, *sdp);
    finals.push_back(fl::serialize_tensor_list(r.final_weights));
    std::printf("  fan-out %4lld: acc %.4f, reducer levels %lld\n",
                static_cast<long long>(f), r.final_accuracy,
                static_cast<long long>(r.max_stream_levels));
  }
  bool parity = true;
  for (const std::vector<std::uint8_t>& w : finals) {
    parity = parity && (w == finals[0]);
  }
  std::printf("fan-out parity        %s (bitwise across {2,8,64,flat})\n",
              parity ? "YES" : "NO");

  // ---- Part 2: the K=1,000,000 round ----
  const std::int64_t clients = flags.get_int("clients", 1000000);
  const std::int64_t rounds = flags.get_int("rounds", 1);
  const std::int64_t fan_out = flags.get_int("tree-fan-out", 64);
  const double ceiling_mb =
      static_cast<double>(flags.get_int("rss-ceiling-mb", 2048));

  fl::FlExperimentConfig cfg;
  cfg.bench = smoke;
  cfg.total_clients = clients;
  cfg.clients_per_round = clients;  // full cohort: every client reports
  cfg.rounds = rounds;
  cfg.local_iterations = 1;
  cfg.seed = experiment_seed();
  cfg.eval_every = 0;
  cfg.min_reporting = 1;
  cfg.streaming_aggregation = true;
  cfg.tree_fan_out = fan_out;
  // non_private for the headline: fed_sdp's per-client noise draws
  // scale with model size × clients, and sanitization is already
  // covered (with noise) by the Part 1 pin.
  std::unique_ptr<core::PrivacyPolicy> non_private = core::make_non_private();

  std::printf("\nscale round: K=Kt=%lld, T=%lld, fan-out %lld, "
              "RSS ceiling %.0f MiB\n",
              static_cast<long long>(clients),
              static_cast<long long>(rounds),
              static_cast<long long>(fan_out), ceiling_mb);
  const Clock::time_point start = Clock::now();
  fl::FlRunResult big = fl::run_experiment(cfg, *non_private);
  const double elapsed_s = seconds_since(start);

  const double rss_mb = peak_rss_mb();
  const double clients_per_sec =
      elapsed_s > 0.0
          ? static_cast<double>(clients * big.completed_rounds) / elapsed_s
          : 0.0;
  const std::int64_t level_bound = log2_floor(clients) + 1;

  telemetry::Registry& registry = telemetry::global_registry();
  registry.gauge("fl.scale.peak_rss_mb").set(rss_mb);
  registry.gauge("fl.scale.clients_per_sec").set(clients_per_sec);

  std::printf("rounds completed      %lld/%lld\n",
              static_cast<long long>(big.completed_rounds),
              static_cast<long long>(rounds));
  std::printf("clients trained       %lld (%.0f clients/s, wall %.1f s)\n",
              static_cast<long long>(clients * big.completed_rounds),
              clients_per_sec, elapsed_s);
  std::printf("peak RSS              %.1f MiB (ceiling %.0f MiB)\n", rss_mb,
              ceiling_mb);
  std::printf("reducer occupancy     %lld levels (bound %lld = "
              "floor(log2 K)+1)\n",
              static_cast<long long>(big.max_stream_levels),
              static_cast<long long>(level_bound));
  std::printf("final accuracy        %.4f\n", big.final_accuracy);

  const bool gate_rounds = big.completed_rounds == rounds;
  const bool gate_rss = rss_mb <= ceiling_mb;
  const bool gate_levels =
      big.max_stream_levels > 0 && big.max_stream_levels <= level_bound;

  json::Value doc = json::Value::object();
  doc["bench"] = std::string("bench_ext_scale");
  doc["clients"] = static_cast<double>(clients);
  doc["rounds"] = static_cast<double>(rounds);
  doc["tree_fan_out"] = static_cast<double>(fan_out);
  bench::add_metric(doc, "scale_parity_bitwise", parity ? 1.0 : 0.0,
                    "higher", "count");
  bench::add_metric(doc, "scale_rounds_completed",
                    static_cast<double>(big.completed_rounds), "higher",
                    "count");
  bench::add_metric(doc, "scale_clients",
                    static_cast<double>(clients * big.completed_rounds),
                    "higher", "count");
  bench::add_metric(doc, "scale_reducer_levels",
                    static_cast<double>(big.max_stream_levels), "lower",
                    "count");
  bench::add_metric(doc, "peak_rss_mb", rss_mb, "lower", "memory");
  bench::add_metric(doc, "clients_per_sec", clients_per_sec, "higher",
                    "time");
  bench::add_metric(doc, "scale_final_accuracy", big.final_accuracy,
                    "higher", "accuracy");
  if (!bench::emit_bench_json("ext_scale", std::move(doc))) return 1;

  if (!parity || !gate_rounds || !gate_rss || !gate_levels) {
    std::fprintf(stderr,
                 "GATE FAILED: parity=%d rounds=%d rss=%d levels=%d\n",
                 parity, gate_rounds, gate_rss, gate_levels);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
