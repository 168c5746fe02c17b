// Ablation (DESIGN.md): clipping-bound schedules for Fed-CDP — the
// design choice behind Fed-CDP(decay). Compares constant C, linear
// decay (the paper's choice), exponential decay and step decay on both
// accuracy and type-2 attack resilience, at equal noise scale.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "attack/leakage_eval.h"
#include "bench/bench_util.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace fedcl;
  bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_ablation_decay",
      "ablation: Fed-CDP clipping-bound schedules (Section VI)");
  const bench::FederationScale fed = bench::federation_scale();

  data::BenchmarkConfig bench_cfg =
      data::benchmark_config(data::BenchmarkId::kMnist);
  const std::int64_t rounds =
      fed.sweep_rounds > 0 ? fed.sweep_rounds : bench_cfg.rounds;
  const double sigma = data::default_noise_scale();

  struct Variant {
    std::string label;
    std::unique_ptr<core::FedCdpPolicy> policy;
  };
  std::vector<Variant> variants;
  variants.push_back({"constant C=4",
                      std::make_unique<core::FedCdpPolicy>(4.0, sigma)});
  variants.push_back(
      {"linear 6->2 (paper)",
       std::make_unique<core::FedCdpPolicy>(
           dp::ClippingSchedule::linear(6.0, 2.0, rounds), sigma, true)});
  // Exponential reaching ~2 from 6 over the horizon: rate = (2/6)^(1/T).
  const double rate = std::pow(2.0 / 6.0, 1.0 / static_cast<double>(rounds));
  variants.push_back(
      {"exponential 6->2",
       std::make_unique<core::FedCdpPolicy>(
           dp::ClippingSchedule::exponential(6.0, rate), sigma, true)});
  variants.push_back(
      {"step 6 x0.5 every T/3",
       std::make_unique<core::FedCdpPolicy>(
           dp::ClippingSchedule::step(6.0, 0.5,
                                      std::max<std::int64_t>(1, rounds / 3)),
           sigma, true)});

  json::Value doc = json::Value::object();
  doc["bench"] = "bench_ablation_decay";
  doc["rounds"] = rounds;
  json::Value results = json::Value::array();

  AsciiTable table("Ablation — Fed-CDP clipping schedules (MNIST, sigma=" +
                   AsciiTable::fmt(sigma, 2) + ")");
  table.set_header({"schedule", "C at t=0", "C at t=T-1", "accuracy",
                    "type-2 dist", "attack succeeds"});

  for (const auto& variant : variants) {
    fl::FlExperimentConfig config;
    config.bench = bench_cfg;
    config.total_clients = fed.default_clients;
    config.clients_per_round = fed.default_per_round;
    config.rounds = rounds;
    config.seed = experiment_seed();
    config.noise_scale = sigma;
    fl::FlRunResult result = fl::run_experiment(config, *variant.policy);

    attack::LeakageExperimentConfig lcfg;
    lcfg.bench = bench_cfg;
    lcfg.bench.model.activation = nn::Activation::kSigmoid;
    lcfg.clients = 1;
    lcfg.seed = experiment_seed();
    lcfg.attack.max_iterations =
        bench_scale() == BenchScale::kSmoke ? 60 : 200;
    attack::LeakageReport report =
        attack::evaluate_leakage(lcfg, *variant.policy);

    table.add_row({variant.label,
                   AsciiTable::fmt(variant.policy->clipping_bound_at(0), 2),
                   AsciiTable::fmt(
                       variant.policy->clipping_bound_at(rounds - 1), 2),
                   AsciiTable::fmt(result.final_accuracy, 3),
                   AsciiTable::fmt(report.type2.mean_distance, 3),
                   bench::yes_no(report.type2.any_success)});
    std::printf("%s done (acc %.3f)\n", variant.label.c_str(),
                result.final_accuracy);
    json::Value r = json::Value::object();
    r["schedule"] = variant.label;
    r["final_accuracy"] = result.final_accuracy;
    r["type2_distance"] = report.type2.mean_distance;
    r["type2_success"] = report.type2.any_success;
    results.push_back(std::move(r));
    bench::add_metric(doc, "accuracy." + variant.label,
                      result.final_accuracy, "higher", "accuracy");
    bench::add_metric(doc, "type2_distance." + variant.label,
                      report.type2.mean_distance, "higher", "distance");
  }
  table.print();
  std::printf(
      "Expected shape: schedules that decay C track the shrinking "
      "gradient norms (Fig. 3), improving accuracy over constant C at "
      "equal privacy while keeping the type-2 attack unsuccessful.\n");
  doc["results"] = std::move(results);
  return bench::emit_bench_json("ablation_decay", doc) ? 0 : 1;
}
