// Extension experiment: the asynchronous round engine under straggler
// and crash load. The headline cell is the acceptance gate for the
// async engine — 30% stragglers plus 10% crashes (fault_rate 0.4,
// weights 3:1), with a 3-attempt retry budget — and must (a) drop zero
// rounds, because stragglers are absorbed as staleness-weighted late
// arrivals and crashes are recovered by re-dispatch, and (b) stay
// within 5% relative accuracy of the fault-free synchronous baseline.
// A staleness-decay sweep (alpha x fault mix) maps how aggressively
// stale updates can be discounted before convergence suffers. Exits
// nonzero when a headline gate fails, so bench_suite flags it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"

namespace {

// Acceptance gate: async-under-fault accuracy within 5% relative of
// the fault-free sync baseline, with zero skipped rounds.
constexpr double kHeadlineMinRelAccuracy = 0.95;

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcl;
  FlagParser flags = bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_ext_async",
      "extension: async staleness-tolerant engine vs straggler/crash load");

  const bench::FederationScale fed = bench::federation_scale();

  fl::FlExperimentConfig base;
  base.bench = data::benchmark_config(data::BenchmarkId::kCancer);
  base.total_clients = std::max<std::int64_t>(fed.default_clients, 8);
  base.clients_per_round = std::max<std::int64_t>(fed.default_per_round, 4);
  base.rounds = fed.sweep_rounds > 0 ? std::max<std::int64_t>(
                                           fed.sweep_rounds * 6, 12)
                                     : 12;
  base.seed = experiment_seed();
  base.retry.max_attempts = 3;

  const std::int64_t rounds = base.effective_rounds();
  auto policy = core::make_non_private();

  std::printf("K=%lld, Kt=%lld, T=%lld, M=Kt/2, retry budget 3\n\n",
              static_cast<long long>(base.total_clients),
              static_cast<long long>(base.clients_per_round),
              static_cast<long long>(rounds));

  // Fault-free synchronous baseline — the accuracy yardstick.
  fl::FlRunResult sync_clean = fl::run_experiment(base, *policy);

  // Headline: async under 30% stragglers + 10% crashes.
  fl::FlExperimentConfig headline = base;
  headline.async_mode = true;
  headline.faults.fault_rate = 0.4;
  headline.faults.straggler_weight = 3.0;
  headline.faults.crash_weight = 1.0;
  headline.faults.corrupt_weight = 0.0;
  headline.faults.bit_flip_weight = 0.0;
  headline.faults.stale_round_weight = 0.0;
  fl::FlRunResult async_faulty = fl::run_experiment(headline, *policy);

  const double rel_accuracy =
      sync_clean.final_accuracy > 0.0
          ? async_faulty.final_accuracy / sync_clean.final_accuracy
          : 0.0;
  const double headline_drop_rate =
      static_cast<double>(async_faulty.dropped_rounds) /
      static_cast<double>(rounds);

  std::printf("sync fault-free accuracy  %.4f\n"
              "async 30%%strag+10%%crash  %.4f  (relative %.4f, dropped "
              "%lld/%lld rounds)\n\n",
              sync_clean.final_accuracy, async_faulty.final_accuracy,
              rel_accuracy,
              static_cast<long long>(async_faulty.dropped_rounds),
              static_cast<long long>(rounds));

  // Sweep: fault mix x staleness-decay exponent.
  struct Cell {
    std::string mix;
    double fault_rate;
    double straggler_w;
    double crash_w;
    double alpha;
    fl::FlRunResult result;
  };
  const std::vector<std::tuple<std::string, double, double, double>> mixes =
      {{"none", 0.0, 0.0, 0.0},
       {"strag30", 0.3, 1.0, 0.0},
       {"strag30+crash10", 0.4, 3.0, 1.0},
       {"crash20", 0.2, 0.0, 1.0}};
  const std::vector<double> alphas = {0.0, 0.5, 1.0};
  std::vector<Cell> cells;

  AsciiTable table("async accuracy / drop rate vs fault mix and alpha");
  table.set_header({"mix", "alpha", "accuracy", "dropped", "applies",
                    "accepted stale", "retries"});
  for (const auto& [mix, rate, sw, cw] : mixes) {
    for (double alpha : alphas) {
      fl::FlExperimentConfig config = base;
      config.async_mode = true;
      config.async.staleness_alpha = alpha;
      config.faults.fault_rate = rate;
      config.faults.straggler_weight = sw;
      config.faults.crash_weight = cw;
      config.faults.corrupt_weight = 0.0;
      config.faults.bit_flip_weight = 0.0;
      config.faults.stale_round_weight = 0.0;
      fl::FlRunResult result = fl::run_experiment(config, *policy);
      table.add_row(
          {mix, AsciiTable::fmt(alpha, 1),
           AsciiTable::fmt(result.final_accuracy),
           std::to_string(result.dropped_rounds) + "/" +
               std::to_string(rounds),
           std::to_string(result.async_applies),
           std::to_string(result.total_failures.fault_accepted_stale),
           std::to_string(result.total_failures.retry_attempts)});
      cells.push_back({mix, rate, sw, cw, alpha, std::move(result)});
    }
  }
  table.print();

  std::printf(
      "\nExpected shape: the fault-free column matches the sync baseline "
      "(same updates, streamed); under stragglers accuracy stays near the "
      "baseline because late updates are decay-weighted in rather than "
      "dropped, with higher alpha discounting them harder; crash cells "
      "lean on the retry budget and lose little. Drop rate stays 0 in "
      "every cell — the partial end-of-round flush applies whatever the "
      "buffer holds.\n");

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_ext_async";
  doc["rounds"] = rounds;
  doc["sync_clean_accuracy"] = sync_clean.final_accuracy;
  json::Value results = json::Value::array();
  for (const Cell& cell : cells) {
    json::Value r = json::Value::object();
    r["mix"] = cell.mix;
    r["alpha"] = cell.alpha;
    r["fault_rate"] = cell.fault_rate;
    r["final_accuracy"] = cell.result.final_accuracy;
    r["dropped_rounds"] = cell.result.dropped_rounds;
    r["async_applies"] = cell.result.async_applies;
    r["accepted_stale"] = cell.result.total_failures.fault_accepted_stale;
    r["retry_attempts"] = cell.result.total_failures.retry_attempts;
    results.push_back(std::move(r));
  }
  doc["results"] = std::move(results);

  // Gating metrics: the headline pair, plus per-cell accuracy and drop
  // rate so the sweep is regression-diffed too.
  bench::add_metric(doc, "headline.rel_accuracy", rel_accuracy, "higher",
                    "ratio");
  bench::add_metric(doc, "headline.drop_rate", headline_drop_rate, "lower",
                    "fraction");
  bench::add_metric(doc, "headline.accepted_stale",
                    static_cast<double>(
                        async_faulty.total_failures.fault_accepted_stale),
                    "higher", "count");
  for (const Cell& cell : cells) {
    const std::string key =
        cell.mix + ".alpha=" + AsciiTable::fmt(cell.alpha, 1);
    bench::add_metric(doc, "accuracy." + key, cell.result.final_accuracy,
                      "higher", "accuracy");
    bench::add_metric(doc, "drop_rate." + key,
                      static_cast<double>(cell.result.dropped_rounds) /
                          static_cast<double>(rounds),
                      "lower", "fraction");
  }

  if (!bench::emit_bench_json("ext_async", doc)) return 1;

  bool gates_ok = true;
  if (rel_accuracy < kHeadlineMinRelAccuracy) {
    std::fprintf(stderr,
                 "GATE FAILED: async-under-fault relative accuracy %.4f < "
                 "%.2f\n",
                 rel_accuracy, kHeadlineMinRelAccuracy);
    gates_ok = false;
  }
  if (async_faulty.dropped_rounds != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: async headline dropped %lld rounds "
                 "(expected 0)\n",
                 static_cast<long long>(async_faulty.dropped_rounds));
    gates_ok = false;
  }
  if (gates_ok) {
    std::printf("headline gates OK: rel accuracy %.4f >= %.2f, zero "
                "dropped rounds\n",
                rel_accuracy, kHeadlineMinRelAccuracy);
  }
  return gates_ok ? 0 : 1;
}
