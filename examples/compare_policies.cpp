// Runs the same federated workload under all four policies the paper
// compares (non-private, Fed-SDP, Fed-CDP, Fed-CDP(decay)) and prints
// accuracy, cost and privacy side by side.
//
// Usage: compare_policies [mnist|cifar10|lfw|adult|cancer]   (default mnist)
#include <cstdio>
#include <memory>
#include <vector>

#include "common/env.h"
#include "common/table.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace fedcl;

  const Result<data::BenchmarkId> bench_id =
      data::parse_benchmark_id(argc < 2 ? "mnist" : argv[1]);
  if (!bench_id.ok()) {
    std::fprintf(stderr, "compare_policies: %s\n", bench_id.error().c_str());
    return 1;
  }
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(bench_id.value());
  config.total_clients = 20;
  config.clients_per_round = 10;
  config.seed = experiment_seed();
  const std::int64_t rounds = config.effective_rounds();

  const double c = data::kDefaultClippingBound;
  const double sigma = data::default_noise_scale();
  config.noise_scale = sigma;  // the sigma the budgets are accounted at
  std::vector<std::unique_ptr<core::PrivacyPolicy>> policies;
  policies.push_back(core::make_non_private());
  policies.push_back(core::make_fed_sdp(c, sigma));
  policies.push_back(core::make_fed_cdp(c, sigma));
  policies.push_back(core::make_fed_cdp_decay(rounds, data::kDecayClipStart,
                                              data::kDecayClipEnd, sigma));

  AsciiTable table("Policy comparison on " + config.bench.name);
  table.set_header({"policy", "val accuracy", "ms/iteration",
                    "instance eps", "client eps"});
  for (const auto& policy : policies) {
    fl::FlRunResult result = fl::run_experiment(config, *policy);
    core::PrivacyReport report = core::account_privacy(result.privacy_setup);
    const bool is_cdp = policy->needs_per_example_gradients();
    const bool is_private = policy->name() != "non-private";
    table.add_row(
        {policy->name(), AsciiTable::fmt(result.final_accuracy),
         AsciiTable::fmt(result.ms_per_local_iteration, 2),
         is_cdp ? AsciiTable::fmt(report.fed_cdp_instance_epsilon)
                : (is_private ? "not supported" : "-"),
         is_cdp ? AsciiTable::fmt(report.fed_cdp_client_epsilon)
                : (is_private ? AsciiTable::fmt(report.fed_sdp_client_epsilon)
                              : "-")});
    std::printf("%s done\n", policy->name().c_str());
  }
  table.print();
  return 0;
}
