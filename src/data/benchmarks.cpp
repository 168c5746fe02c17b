#include "data/benchmarks.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fedcl::data {

const char* benchmark_name(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kMnist:
      return "MNIST";
    case BenchmarkId::kCifar10:
      return "CIFAR-10";
    case BenchmarkId::kLfw:
      return "LFW";
    case BenchmarkId::kAdult:
      return "adult";
    case BenchmarkId::kCancer:
      return "cancer";
  }
  return "?";
}

Result<BenchmarkId> parse_benchmark_id(const std::string& name) {
  if (name == "mnist") return BenchmarkId::kMnist;
  if (name == "cifar10") return BenchmarkId::kCifar10;
  if (name == "lfw") return BenchmarkId::kLfw;
  if (name == "adult") return BenchmarkId::kAdult;
  if (name == "cancer") return BenchmarkId::kCancer;
  return Result<BenchmarkId>::failure("unknown dataset '" + name +
                                      "' (mnist|cifar10|lfw|adult|cancer)");
}

std::vector<BenchmarkId> all_benchmarks() {
  return {BenchmarkId::kMnist, BenchmarkId::kCifar10, BenchmarkId::kLfw,
          BenchmarkId::kAdult, BenchmarkId::kCancer};
}

namespace {

// Dimensions per scale: {image side, train count divisor}.
struct ScaleParams {
  std::int64_t image_side;
  std::int64_t local_iterations;
  double round_fraction;   // T scaled relative to the paper's T
  double count_fraction;   // dataset size relative to the paper's
};

ScaleParams scale_params(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return {8, 2, 0.02, 0.01};
    case BenchScale::kSmall:
      return {12, 10, 0.3, 0.03};
    case BenchScale::kPaper:
      return {0, 100, 1.0, 1.0};  // image_side 0 => paper dims
  }
  return {12, 10, 0.3, 0.03};
}

// Scales a paper parameter down by `fraction` (clamped to 1 so the
// paper scale reproduces the paper value exactly), with a floor.
std::int64_t scaled(std::int64_t paper_value, double fraction,
                    std::int64_t minimum) {
  const double f = std::min(1.0, fraction);
  const auto v = static_cast<std::int64_t>(paper_value * f);
  return std::min(paper_value, std::max(minimum, v));
}

}  // namespace

BenchmarkConfig benchmark_config(BenchmarkId id, BenchScale scale) {
  const ScaleParams sp = scale_params(scale);
  BenchmarkConfig cfg;
  cfg.id = id;
  cfg.name = benchmark_name(id);
  cfg.local_iterations = sp.local_iterations;

  auto image_side = [&](std::int64_t paper_side) {
    return sp.image_side == 0 ? paper_side : sp.image_side;
  };

  switch (id) {
    case BenchmarkId::kMnist: {
      const std::int64_t side = image_side(28);
      cfg.train_spec = {.example_shape = {side, side, 1},
                        .classes = 10,
                        .count = scaled(50000, sp.count_fraction, 400)};
      cfg.val_spec = cfg.train_spec;
      cfg.val_spec.count = scaled(10000, sp.count_fraction, 100);
      cfg.model = {.kind = nn::ModelSpec::Kind::kImageCnn,
                   .height = side,
                   .width = side,
                   .channels = 1,
                   .classes = 10};
      cfg.partition = {.num_clients = 0,
                       .data_per_client = scaled(500, sp.count_fraction * 3, 40),
                       .classes_per_client = 2};
      cfg.batch_size = 5;
      cfg.rounds = scaled(100, sp.round_fraction, 2);
      cfg.learning_rate = 0.2;
      cfg.paper_nonprivate_accuracy = 0.9798;
      cfg.paper_cost_ms = 6.8;
      break;
    }
    case BenchmarkId::kCifar10: {
      const std::int64_t side = image_side(32);
      cfg.train_spec = {.example_shape = {side, side, 3},
                        .classes = 10,
                        .count = scaled(40000, sp.count_fraction, 400),
                        .noise = 0.22f};
      cfg.val_spec = cfg.train_spec;
      cfg.val_spec.count = scaled(10000, sp.count_fraction, 100);
      cfg.model = {.kind = nn::ModelSpec::Kind::kImageCnn,
                   .height = side,
                   .width = side,
                   .channels = 3,
                   .classes = 10};
      cfg.partition = {.num_clients = 0,
                       .data_per_client = scaled(400, sp.count_fraction * 3, 40),
                       .classes_per_client = 2};
      cfg.batch_size = 4;
      cfg.rounds = scaled(100, sp.round_fraction, 2);
      cfg.learning_rate = 0.2;
      cfg.paper_nonprivate_accuracy = 0.674;
      cfg.paper_cost_ms = 32.5;
      break;
    }
    case BenchmarkId::kLfw: {
      const std::int64_t side = image_side(32);
      cfg.train_spec = {.example_shape = {side, side, 3},
                        .classes = 62,
                        .count = scaled(2267, sp.count_fraction * 30, 620),
                        .noise = 0.09f};
      cfg.val_spec = cfg.train_spec;
      cfg.val_spec.count = scaled(756, sp.count_fraction * 30, 124);
      cfg.model = {.kind = nn::ModelSpec::Kind::kImageCnn,
                   .height = side,
                   .width = side,
                   .channels = 3,
                   .classes = 62};
      cfg.partition = {.num_clients = 0,
                       .data_per_client = scaled(300, sp.count_fraction * 3, 30),
                       .classes_per_client = 15};
      cfg.batch_size = 3;
      cfg.rounds = scaled(60, sp.round_fraction, 2);
      cfg.learning_rate = 0.2;
      cfg.paper_nonprivate_accuracy = 0.695;
      cfg.paper_cost_ms = 30.9;
      break;
    }
    case BenchmarkId::kAdult: {
      cfg.train_spec = {.example_shape = {105},
                        .classes = 2,
                        .count = scaled(36631, sp.count_fraction, 400),
                        .noise = 6.0f,
                        .clamp01 = false};
      cfg.val_spec = cfg.train_spec;
      cfg.val_spec.count = scaled(12211, sp.count_fraction, 100);
      cfg.model = {.kind = nn::ModelSpec::Kind::kMlp,
                   .in_features = 105,
                   .classes = 2};
      cfg.partition = {.num_clients = 0,
                       .data_per_client = scaled(300, sp.count_fraction * 3, 30),
                       .classes_per_client = 2};
      cfg.batch_size = 3;
      cfg.rounds = scaled(10, sp.round_fraction * 5, 2);
      cfg.learning_rate = 0.2;
      cfg.paper_nonprivate_accuracy = 0.8424;
      cfg.paper_cost_ms = 5.1;
      break;
    }
    case BenchmarkId::kCancer: {
      cfg.train_spec = {.example_shape = {30},
                        .classes = 2,
                        .count = scale == BenchScale::kSmoke ? 64 : 426,
                        .noise = 1.6f,
                        .clamp01 = false};
      cfg.val_spec = cfg.train_spec;
      cfg.val_spec.count = scale == BenchScale::kSmoke ? 32 : 143;
      cfg.model = {.kind = nn::ModelSpec::Kind::kMlp,
                   .in_features = 30,
                   .classes = 2};
      // Paper: every client holds a full copy of the dataset.
      cfg.partition = {.num_clients = 0,
                       .data_per_client = cfg.train_spec.count,
                       .classes_per_client = 0};
      cfg.batch_size = 4;
      cfg.rounds = 3;
      cfg.learning_rate = 0.2;
      cfg.paper_nonprivate_accuracy = 0.993;
      cfg.paper_cost_ms = 4.9;
      break;
    }
  }
  // Train and validation describe the same task: shared prototypes,
  // distinct per-benchmark so e.g. MNIST and CIFAR stay different.
  const std::uint64_t domain =
      0xFEDC1000ull + static_cast<std::uint64_t>(id) * 0x9E37ull;
  cfg.train_spec.domain_seed = domain;
  cfg.val_spec.domain_seed = domain;
  FEDCL_CHECK_GT(cfg.rounds, 0);
  return cfg;
}

BenchmarkConfig benchmark_config(BenchmarkId id) {
  return benchmark_config(id, bench_scale());
}

double default_noise_scale(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return 0.25;
    case BenchScale::kSmall:
      return 0.25;
    case BenchScale::kPaper:
      return 6.0;
  }
  return 0.25;
}

double default_noise_scale() { return default_noise_scale(bench_scale()); }

}  // namespace fedcl::data
