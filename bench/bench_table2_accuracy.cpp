// Table II: MNIST validation accuracy by total clients K and per-round
// participation Kt/K for non-private, Fed-SDP, Fed-CDP and
// Fed-CDP(decay) (paper defaults C=4, sigma=6 at paper scale).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace fedcl;
  bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_table2_accuracy",
      "Table II: accuracy by #total clients and Kt/K on MNIST");
  const bench::FederationScale fed = bench::federation_scale();
  const std::vector<int> percents = {5, 10, 20, 50};

  data::BenchmarkConfig bench_cfg =
      data::benchmark_config(data::BenchmarkId::kMnist);
  const std::int64_t rounds =
      fed.sweep_rounds > 0 ? fed.sweep_rounds : bench_cfg.rounds;
  bench::PolicySet policies = bench::make_policy_set(rounds);

  // Paper reference rows (K=100 / 1000 / 10000, percentages 5..50).
  std::printf(
      "paper (K=100):   non-private 0.924..0.965, Fed-SDP 0.803..0.872, "
      "Fed-CDP 0.815..0.903, Fed-CDP(decay) 0.833..0.909\n"
      "paper (K=1000):  non-private 0.977..0.978, Fed-SDP 0.925..0.937, "
      "Fed-CDP 0.951..0.964, Fed-CDP(decay) 0.968..0.976\n"
      "paper (K=10000): non-private 0.979..0.980, Fed-SDP 0.935..0.944, "
      "Fed-CDP 0.963..0.968, Fed-CDP(decay) 0.974..0.980\n\n");

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_table2_accuracy";
  doc["rounds"] = rounds;
  json::Value results = json::Value::array();
  for (std::int64_t total_clients : fed.total_clients) {
    AsciiTable table("Table II — K=" + std::to_string(total_clients) +
                     " total clients (T=" + std::to_string(rounds) + ")");
    std::vector<std::string> header = {"policy"};
    for (int p : percents) header.push_back("Kt/K=" + std::to_string(p) + "%");
    table.set_header(header);

    for (const core::PrivacyPolicy* policy : policies.all()) {
      std::vector<std::string> row = {policy->name()};
      for (int percent : percents) {
        fl::FlExperimentConfig config;
        config.bench = bench_cfg;
        config.total_clients = total_clients;
        config.clients_per_round =
            std::max<std::int64_t>(1, total_clients * percent / 100);
        config.rounds = rounds;
        config.seed = experiment_seed();
        config.noise_scale = data::default_noise_scale();
        fl::FlRunResult result = fl::run_experiment(config, *policy);
        row.push_back(AsciiTable::fmt(result.final_accuracy, 3));
        std::printf("K=%lld %s Kt/K=%d%% -> %.3f\n",
                    static_cast<long long>(total_clients),
                    policy->name().c_str(), percent, result.final_accuracy);
        json::Value r = json::Value::object();
        r["total_clients"] = total_clients;
        r["percent"] = percent;
        r["policy"] = policy->name();
        r["final_accuracy"] = result.final_accuracy;
        results.push_back(std::move(r));
        bench::add_metric(doc,
                          "accuracy.K=" + std::to_string(total_clients) +
                              "." + policy->name() + "." +
                              std::to_string(percent) + "%",
                          result.final_accuracy, "higher", "accuracy");
      }
      table.add_row(row);
    }
    table.print();
    std::printf("\n");
  }
  std::printf("Expected shape (paper): accuracy grows with both K and "
              "Kt/K; Fed-CDP > Fed-SDP everywhere; Fed-CDP(decay) >= "
              "Fed-CDP, approaching the non-private baseline.\n");
  doc["results"] = std::move(results);
  return bench::emit_bench_json("table2_accuracy", doc) ? 0 : 1;
}
