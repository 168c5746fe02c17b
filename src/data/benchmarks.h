// The paper's five benchmark configurations (Table I), with scaled
// variants so experiments run on one CPU core.
//
// FEDCL_SCALE=paper reproduces Table I's parameters exactly (feature
// dims, #data/client, L=100 local iterations, paper round counts).
// The default "small" scale shrinks images, dataset sizes, L and T
// while preserving every structural property the results depend on
// (class counts, non-IID shards, batch sizes, relative round budgets).
#pragma once

#include <string>
#include <vector>

#include "common/env.h"
#include "common/error.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace fedcl::data {

enum class BenchmarkId { kMnist, kCifar10, kLfw, kAdult, kCancer };

const char* benchmark_name(BenchmarkId id);
// The command-line name of a benchmark: mnist, cifar10, lfw, adult or
// cancer. Any other name fails with a message listing those five.
Result<BenchmarkId> parse_benchmark_id(const std::string& name);
std::vector<BenchmarkId> all_benchmarks();

struct BenchmarkConfig {
  BenchmarkId id;
  std::string name;
  SyntheticSpec train_spec;
  SyntheticSpec val_spec;
  nn::ModelSpec model;
  // data_per_client / classes_per_client defaults (num_clients filled
  // in by each experiment).
  PartitionSpec partition;
  std::int64_t local_iterations = 1;  // L
  std::int64_t batch_size = 1;        // B
  std::int64_t rounds = 1;            // T
  double learning_rate = 0.05;
  // Per-round multiplicative learning-rate decay (1 = constant); set
  // so the rate halves over the configured round budget.
  double lr_decay_per_round = 1.0;

  // Paper-reported reference values (Table I) for EXPERIMENTS.md.
  double paper_nonprivate_accuracy = 0.0;
  double paper_cost_ms = 0.0;
};

BenchmarkConfig benchmark_config(BenchmarkId id, BenchScale scale);

// Convenience: config at the scale selected via FEDCL_SCALE.
BenchmarkConfig benchmark_config(BenchmarkId id);

// Default DP noise scale (the paper's sigma) for *training*
// experiments at the given scale. The paper's sigma = 6 is calibrated
// to its testbed's averaging budget (L*T = 10^4 DP-SGD steps and up to
// Kt = 5000 clients averaged per round); the scaled-down runs keep the
// same signal-to-noise ratio by shrinking sigma with the averaging
// factor (see EXPERIMENTS.md, "noise-scale calibration"). Privacy
// *accounting* benches (Table VI) always use the paper's sigma = 6 —
// they are pure computation and need no scaling.
double default_noise_scale(BenchScale scale);
double default_noise_scale();

// Default clipping bound (the paper's C = 4) — scale independent.
inline constexpr double kDefaultClippingBound = 4.0;
// Fed-CDP(decay) schedule endpoints (paper: C decays 6 -> 2).
inline constexpr double kDecayClipStart = 6.0;
inline constexpr double kDecayClipEnd = 2.0;

}  // namespace fedcl::data
