// Quickstart: train a federated model on the MNIST-like benchmark
// under Fed-CDP, report accuracy and the differential-privacy budget.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/env.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"

int main() {
  using namespace fedcl;

  // 1. Pick a benchmark configuration (scaled by FEDCL_SCALE).
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kMnist);
  config.total_clients = 20;
  config.clients_per_round = 10;  // more per-round averaging helps DP
  config.eval_every = 5;
  config.seed = experiment_seed();

  std::printf("fedcl quickstart — %s benchmark at scale '%s'\n",
              config.bench.name.c_str(), bench_scale_name(bench_scale()));
  std::printf("clients K=%lld, per-round Kt=%lld, rounds T=%lld, "
              "local iterations L=%lld, batch B=%lld\n",
              static_cast<long long>(config.total_clients),
              static_cast<long long>(config.clients_per_round),
              static_cast<long long>(config.effective_rounds()),
              static_cast<long long>(config.effective_local_iterations()),
              static_cast<long long>(config.bench.batch_size));

  // 2. Choose the privacy policy: Fed-CDP with per-example clipping
  //    C=4 and the scale-calibrated noise (paper: sigma=6 at paper
  //    scale; see EXPERIMENTS.md on noise-scale calibration).
  const double sigma = data::default_noise_scale();
  auto policy = core::make_fed_cdp(data::kDefaultClippingBound, sigma);
  config.noise_scale = sigma;  // the sigma the budget is accounted at
  std::printf("policy: %s (C=%.1f, sigma=%.2f)\n", policy->name().c_str(),
              data::kDefaultClippingBound, sigma);

  // 3. Run federated training.
  fl::FlRunResult result = fl::run_experiment(config, *policy);
  for (const auto& r : result.history) {
    if (r.accuracy == r.accuracy) {  // skip NaN (non-eval rounds)
      std::printf("  round %3lld  accuracy %.4f  grad-norm %.3f\n",
                  static_cast<long long>(r.round + 1), r.accuracy,
                  r.mean_grad_norm);
    }
  }
  std::printf("final accuracy: %.4f (%.2f ms per local iteration)\n",
              result.final_accuracy, result.ms_per_local_iteration);

  // 4. Account the privacy spent.
  core::PrivacyReport report = core::account_privacy(result.privacy_setup);
  std::printf("privacy: instance-level epsilon=%.4f (delta=1e-5, q=%.4f, "
              "steps=%lld)\n",
              report.fed_cdp_instance_epsilon, report.instance_q,
              static_cast<long long>(report.instance_steps));
  std::printf("         client-level epsilon=%.4f via joint DP "
              "(Billboard lemma)\n",
              report.fed_cdp_client_epsilon);
  return 0;
}
