// Figure 5: accuracy and resilience to type-2 leakage in
// communication-efficient federated learning — the shared updates are
// compressed by pruning the smallest-magnitude gradients at ratios 0%
// to 70%, under each policy (MNIST; the paper uses K=1000 clients with
// 100 participants).
#include <cstdio>
#include <vector>

#include "attack/leakage_eval.h"
#include "bench/bench_util.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace fedcl;
  bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_fig5_compression",
      "Figure 5: accuracy + type-2 resilience under gradient compression");
  const bench::FederationScale fed = bench::federation_scale();
  const std::vector<double> ratios = {0.0, 0.3, 0.5, 0.7, 0.9, 0.99};

  data::BenchmarkConfig bench_cfg =
      data::benchmark_config(data::BenchmarkId::kMnist);
  const std::int64_t rounds =
      fed.sweep_rounds > 0 ? fed.sweep_rounds : bench_cfg.rounds;
  bench::PolicySet policies = bench::make_policy_set(rounds);

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_fig5_compression";
  doc["rounds"] = rounds;
  json::Value acc_results = json::Value::array();
  json::Value leak_results = json::Value::array();

  // (a) accuracy under compression.
  AsciiTable acc_table("Figure 5 (a) — accuracy by compression ratio");
  std::vector<std::string> header = {"policy"};
  for (double r : ratios) {
    header.push_back(AsciiTable::fmt(100 * r, 0) + "%");
  }
  acc_table.set_header(header);
  for (const core::PrivacyPolicy* policy : policies.all()) {
    std::vector<std::string> row = {policy->name()};
    for (double ratio : ratios) {
      fl::FlExperimentConfig config;
      config.bench = bench_cfg;
      config.total_clients = fed.default_clients;
      config.clients_per_round = fed.default_per_round;
      config.rounds = rounds;
      config.prune_ratio = ratio;
      config.seed = experiment_seed();
      config.noise_scale = data::default_noise_scale();
      fl::FlRunResult result = fl::run_experiment(config, *policy);
      row.push_back(AsciiTable::fmt(result.final_accuracy, 3));
      std::printf("%s ratio=%.0f%% acc=%.3f\n", policy->name().c_str(),
                  100 * ratio, result.final_accuracy);
      json::Value jr = json::Value::object();
      jr["policy"] = policy->name();
      jr["prune_ratio"] = ratio;
      jr["final_accuracy"] = result.final_accuracy;
      acc_results.push_back(std::move(jr));
      bench::add_metric(doc,
                        "accuracy." + policy->name() + "." +
                            AsciiTable::fmt(100 * ratio, 0) + "%",
                        result.final_accuracy, "higher", "accuracy");
    }
    acc_table.add_row(row);
  }
  acc_table.print();

  // (b) leakage from the compressed shared gradients.
  AsciiTable leak_table(
      "Figure 5 (b) — attack on the compressed shared update "
      "(distance, Y/N)");
  leak_table.set_header(header);
  attack::LeakageExperimentConfig lcfg;
  lcfg.bench = bench_cfg;
  lcfg.bench.model.activation = nn::Activation::kSigmoid;
  lcfg.clients = bench_scale() == BenchScale::kSmoke ? 1 : 3;
  lcfg.seed = experiment_seed();
  lcfg.attack.max_iterations =
      bench_scale() == BenchScale::kSmoke ? 80 : 300;
  for (const core::PrivacyPolicy* policy : policies.all()) {
    std::vector<std::string> row = {policy->name()};
    for (double ratio : ratios) {
      lcfg.prune_ratio = ratio;
      attack::LeakageReport report = attack::evaluate_leakage(lcfg, *policy);
      row.push_back(AsciiTable::fmt(report.type01.mean_distance, 3) + " " +
                    bench::yes_no(report.type01.any_success));
      std::printf("%s ratio=%.0f%% attack dist=%.3f %s\n",
                  policy->name().c_str(), 100 * ratio,
                  report.type01.mean_distance,
                  report.type01.any_success ? "Y" : "N");
      json::Value jr = json::Value::object();
      jr["policy"] = policy->name();
      jr["prune_ratio"] = ratio;
      jr["attack_distance"] = report.type01.mean_distance;
      jr["attack_success"] = report.type01.any_success;
      leak_results.push_back(std::move(jr));
    }
    leak_table.add_row(row);
  }
  leak_table.print();
  std::printf(
      "Expected shape (paper Fig. 5): accuracy degrades gracefully with "
      "compression, and compression alone does NOT stop the leakage — "
      "the reconstruction distance grows with the prune ratio but the "
      "attack keeps succeeding far past the paper's 30%% mark (our "
      "attacker masks unobserved coordinates, so only extreme pruning "
      "defeats it), while Fed-CDP resists at every ratio.\n");
  doc["accuracy_results"] = std::move(acc_results);
  doc["results"] = std::move(leak_results);
  return bench::emit_bench_json("fig5_compression", doc) ? 0 : 1;
}
