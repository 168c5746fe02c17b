// Table VII: attack effectiveness (success Y/N, mean reconstruction
// distance, mean #attack iterations) of type-0&1 and type-2 gradient
// leakage against non-private, Fed-SDP, Fed-CDP and Fed-CDP(decay),
// on MNIST and LFW, averaged over attacked clients. Attack budget is
// the paper's T=300 iterations.
//
// Gates the paper's pattern on each dataset, and exits nonzero when it
// breaks, so bench_suite flags it: type-0/1 succeeds only against
// non-private; type-2 succeeds against non-private and Fed-SDP and
// fails against Fed-CDP and Fed-CDP(decay); and Fed-SDP's type-2
// distance equals non-private's exactly, since Fed-SDP leaves the
// per-example gradient untouched.
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/leakage_eval.h"
#include "bench/bench_util.h"

namespace {

// Which attacks succeed under each policy, in PolicySet::all() order
// (non-private, Fed-SDP, Fed-CDP, Fed-CDP(decay)): Fed-SDP noises only
// the shared update, so the type-2 view of its local training leaks.
constexpr bool kType01Leaks[] = {true, false, false, false};
constexpr bool kType2Leaks[] = {true, true, false, false};

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcl;
  bench::init_bench(argc, argv);
  bench::print_preamble("bench_table7_attack",
                        "Table VII: attack effectiveness by policy");

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_table7_attack";
  json::Value results = json::Value::array();
  std::vector<std::string> gate_failures;

  std::int64_t clients = 5;
  if (bench_scale() == BenchScale::kSmoke) clients = 1;
  if (bench_scale() == BenchScale::kPaper) clients = 100;

  for (data::BenchmarkId id :
       {data::BenchmarkId::kMnist, data::BenchmarkId::kLfw}) {
    attack::LeakageExperimentConfig config;
    config.bench = data::benchmark_config(id);
    // Smooth activations for a tractable gradient-matching landscape,
    // as in the DLG/CPL attack setups the paper builds on.
    config.bench.model.activation = nn::Activation::kSigmoid;
    config.clients = clients;
    config.seed = experiment_seed();
    config.attack.max_iterations = 300;

    bench::PolicySet policies =
        bench::make_policy_set(config.bench.rounds);

    AsciiTable table("Table VII — " + config.bench.name + " (average over " +
                     std::to_string(clients) + " clients, budget 300)");
    table.set_header({"policy", "type-0&1 succeed", "recon distance",
                      "attack iters", "type-2 succeed", "recon distance",
                      "attack iters"});
    const std::vector<const core::PrivacyPolicy*> all = policies.all();
    std::vector<double> type2_distances;
    for (std::size_t p = 0; p < all.size(); ++p) {
      const core::PrivacyPolicy* policy = all[p];
      attack::LeakageReport report =
          attack::evaluate_leakage(config, *policy);
      type2_distances.push_back(report.type2.mean_distance);
      table.add_row({policy->name(),
                     bench::yes_no(report.type01.any_success),
                     AsciiTable::fmt(report.type01.mean_distance),
                     AsciiTable::fmt(report.type01.mean_iterations, 0),
                     bench::yes_no(report.type2.any_success),
                     AsciiTable::fmt(report.type2.mean_distance),
                     AsciiTable::fmt(report.type2.mean_iterations, 0)});
      std::printf("%s %s done (t01 %s d=%.3f, t2 %s d=%.3f)\n",
                  config.bench.name.c_str(), policy->name().c_str(),
                  report.type01.any_success ? "Y" : "N",
                  report.type01.mean_distance,
                  report.type2.any_success ? "Y" : "N",
                  report.type2.mean_distance);
      json::Value r = json::Value::object();
      r["dataset"] = config.bench.name;
      r["policy"] = policy->name();
      r["type01_success"] = report.type01.any_success;
      r["type01_distance"] = report.type01.mean_distance;
      r["type01_iterations"] = report.type01.mean_iterations;
      r["type2_success"] = report.type2.any_success;
      r["type2_distance"] = report.type2.mean_distance;
      r["type2_iterations"] = report.type2.mean_iterations;
      results.push_back(std::move(r));
      // A cell that leaks by design should stay attackable (distance
      // low); a resilient one should stay resilient (distance high).
      const std::string key =
          config.bench.name + "." + policy->name();
      bench::add_metric(doc, "recon_distance." + key + ".type01",
                        report.type01.mean_distance,
                        kType01Leaks[p] ? "lower" : "higher", "distance");
      bench::add_metric(doc, "recon_distance." + key + ".type2",
                        report.type2.mean_distance,
                        kType2Leaks[p] ? "lower" : "higher", "distance");
      const auto check = [&](const char* type,
                             const attack::LeakageOutcome& outcome,
                             bool leaks) {
        if (outcome.any_success == leaks) return;
        gate_failures.push_back(
            config.bench.name + " " + policy->name() + ": " + type +
            " attack " + (leaks ? "failed" : "succeeded") + " (d=" +
            AsciiTable::fmt(outcome.mean_distance) + "), expected it to " +
            (leaks ? "succeed" : "fail"));
      };
      check("type-0&1", report.type01, kType01Leaks[p]);
      check("type-2", report.type2, kType2Leaks[p]);
    }
    table.print();
    std::printf("\n");
    if (type2_distances[1] != type2_distances[0]) {
      gate_failures.push_back(
          config.bench.name + ": Fed-SDP type-2 distance " +
          AsciiTable::fmt(type2_distances[1], 17) + " != non-private's " +
          AsciiTable::fmt(type2_distances[0], 17));
    }
  }
  std::printf(
      "paper (MNIST): type-0&1 — non-private Y d=0.155 it=6; all DP "
      "policies N d=0.70..0.94 it=300. type-2 — non-private AND Fed-SDP "
      "Y d=0.0008 it=7; Fed-CDP/decay N d=0.74/0.94 it=300.\n"
      "Expected shape: non-private leaks everywhere; Fed-SDP stops "
      "type-0&1 but NOT type-2; Fed-CDP and Fed-CDP(decay) stop all "
      "three, decay with the largest reconstruction distance.\n");
  doc["results"] = std::move(results);
  if (!bench::emit_bench_json("table7_attack", doc)) return 1;

  for (const std::string& failure : gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
  }
  if (!gate_failures.empty()) return 1;
  std::printf("\nall gates passed\n");
  return 0;
}
