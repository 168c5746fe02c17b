// Gradient-leakage attack demo (paper Figure 1): mounts the
// reconstruction attack on a type-2 per-example gradient and on a
// type-0/1 round update, under non-private FL and under Fed-CDP, and
// prints ASCII renderings of the private image vs. the reconstruction.
//
// Usage: attack_demo [mnist|cifar10|lfw|adult|cancer]   (default mnist)
#include <cstdio>

#include "attack/leakage_eval.h"
#include "common/env.h"
#include "core/policy.h"
#include "data/benchmarks.h"

namespace {

void report_outcome(const char* label,
                    const fedcl::attack::LeakageOutcome& outcome,
                    bool render) {
  const auto& r = outcome.per_client.front();
  std::printf("%s: %s  reconstruction distance=%.4f  iterations=%d\n", label,
              r.success ? "SUCCEEDED" : "failed", r.reconstruction_distance,
              r.iterations);
  if (render && r.ground_truth.ndim() == 4) {
    std::printf("--- private input ---\n%s",
                fedcl::attack::ascii_image(r.ground_truth).c_str());
    std::printf("--- reconstruction ---\n%s\n",
                fedcl::attack::ascii_image(r.reconstruction).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedcl;

  const Result<data::BenchmarkId> bench_id =
      data::parse_benchmark_id(argc < 2 ? "mnist" : argv[1]);
  if (!bench_id.ok()) {
    std::fprintf(stderr, "attack_demo: %s\n", bench_id.error().c_str());
    return 1;
  }
  attack::LeakageExperimentConfig config;
  config.bench = data::benchmark_config(bench_id.value());
  config.clients = 1;
  config.seed = experiment_seed();
  config.attack.max_iterations = 300;

  std::printf("Gradient-leakage reconstruction attack on %s "
              "(batch B=%lld, seed init: %s, budget %d iterations)\n\n",
              config.bench.name.c_str(),
              static_cast<long long>(config.bench.batch_size),
              attack::seed_init_name(config.attack.seed_init),
              config.attack.max_iterations);

  {
    core::NonPrivatePolicy non_private;
    attack::LeakageReport report =
        attack::evaluate_leakage(config, non_private);
    std::printf("== non-private federated learning ==\n");
    report_outcome("type-2 (per-example gradient)", report.type2,
                   /*render=*/true);
    report_outcome("type-0/1 (round update)", report.type01,
                   /*render=*/false);
    std::printf("\n");
  }
  {
    auto policy = core::make_fed_cdp(data::kDefaultClippingBound,
                                     data::default_noise_scale());
    attack::LeakageReport report = attack::evaluate_leakage(config, *policy);
    std::printf("== Fed-CDP ==\n");
    report_outcome("type-2 (per-example gradient)", report.type2,
                   /*render=*/true);
    report_outcome("type-0/1 (round update)", report.type01,
                   /*render=*/false);
  }
  return 0;
}
