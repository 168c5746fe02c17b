#include <gtest/gtest.h>

#include <cmath>

#include "attack/lbfgs.h"
#include "attack/leakage_eval.h"
#include "attack/reconstruction.h"
#include "attack/seed_init.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "data/synthetic.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "testing/sanitize.h"

namespace fedcl::attack {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ---- L-BFGS ----

TEST(Lbfgs, MinimizesQuadratic) {
  // f(x) = sum (x_i - i)^2, minimum at x_i = i.
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    double loss = 0;
    g.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      loss += d * d;
      g[i] = 2 * d;
    }
    return loss;
  };
  std::vector<double> x(5, 10.0);
  LbfgsOptions opts;
  LbfgsResult result = lbfgs_minimize(x, f, opts);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.final_loss, 1e-10);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], static_cast<double>(i), 1e-5);
  }
}

TEST(Lbfgs, MinimizesRosenbrock) {
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    const double a = 1.0, b = 100.0;
    g.resize(2);
    const double d1 = x[1] - x[0] * x[0];
    double loss = (a - x[0]) * (a - x[0]) + b * d1 * d1;
    g[0] = -2 * (a - x[0]) - 4 * b * d1 * x[0];
    g[1] = 2 * b * d1;
    return loss;
  };
  std::vector<double> x = {-1.2, 1.0};
  LbfgsOptions opts;
  opts.max_iterations = 500;
  LbfgsResult result = lbfgs_minimize(x, f, opts);
  EXPECT_LT(result.final_loss, 1e-6);
  EXPECT_NEAR(x[0], 1.0, 1e-2);
  EXPECT_NEAR(x[1], 1.0, 1e-2);
}

TEST(Lbfgs, CallbackCanStopEarly) {
  // cosh is smooth but needs many iterations from far away, so the
  // callback fires before convergence.
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    g = {std::sinh(x[0])};
    return std::cosh(x[0]);
  };
  std::vector<double> x = {8.0};
  LbfgsOptions opts;
  int calls = 0;
  LbfgsResult result = lbfgs_minimize(
      x, f, opts, [&](int, const std::vector<double>&, double) {
        return ++calls >= 2;
      });
  EXPECT_TRUE(result.stopped_by_callback);
  EXPECT_EQ(calls, 2);
}

TEST(Lbfgs, IterationBudgetRespected) {
  // Slow zig-zag objective cannot converge in 3 iterations.
  auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    g.resize(x.size());
    double loss = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      loss += std::cosh(x[i]);
      g[i] = std::sinh(x[i]);
    }
    return loss;
  };
  std::vector<double> x(4, 3.0);
  LbfgsOptions opts;
  opts.max_iterations = 3;
  LbfgsResult result = lbfgs_minimize(x, f, opts);
  EXPECT_LE(result.iterations, 3);
  EXPECT_THROW(lbfgs_minimize(x, f, LbfgsOptions{.max_iterations = 0}),
               Error);
}

// ---- seeds ----

TEST(SeedInit, ShapesAndRanges) {
  Rng rng(1);
  for (SeedInit init : {SeedInit::kPatternedRandom, SeedInit::kUniformRandom,
                        SeedInit::kConstant}) {
    Tensor s = make_attack_seed({2, 8, 8, 3}, init, rng);
    EXPECT_EQ(s.shape(), (Shape{2, 8, 8, 3}));
    for (std::int64_t i = 0; i < s.numel(); ++i) {
      EXPECT_GE(s.at(i), 0.0f);
      EXPECT_LE(s.at(i), 1.0f);
    }
  }
  EXPECT_STREQ(seed_init_name(SeedInit::kPatternedRandom),
               "patterned-random");
}

TEST(SeedInit, PatternedTiles) {
  Rng rng(2);
  Tensor s = make_attack_seed({1, 8, 8, 1}, SeedInit::kPatternedRandom, rng);
  // 4x4 patch tiled: (y, x) == (y+4, x+4).
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_FLOAT_EQ(s.at(y * 8 + x), s.at((y + 4) * 8 + (x + 4)));
    }
  }
}

TEST(SeedInit, FlatPatternPeriodic) {
  Rng rng(3);
  Tensor s = make_attack_seed({1, 40}, SeedInit::kPatternedRandom, rng);
  EXPECT_FLOAT_EQ(s.at(0), s.at(16));
  EXPECT_FLOAT_EQ(s.at(5), s.at(21));
}

TEST(SeedInit, ConstantIsHalf) {
  Rng rng(4);
  Tensor s = make_attack_seed({3}, SeedInit::kConstant, rng);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(s.at(i), 0.5f);
}

// ---- reconstruction ----

struct AttackFixture {
  std::shared_ptr<nn::Sequential> model;
  data::Batch example;
  TensorList true_gradient;

  explicit AttackFixture(nn::Activation act = nn::Activation::kSigmoid) {
    Rng rng(5);
    data::SyntheticSpec spec{.example_shape = {8, 8, 1},
                             .classes = 4,
                             .count = 8};
    Rng drng = rng.fork("d");
    data::Dataset ds = data::generate_synthetic(spec, drng);
    nn::ModelSpec ms{.kind = nn::ModelSpec::Kind::kImageCnn,
                     .height = 8,
                     .width = 8,
                     .channels = 1,
                     .classes = 4,
                     .activation = act,
                     .conv1_channels = 4,
                     .conv2_channels = 8};
    Rng mrng = rng.fork("m");
    model = nn::build_model(ms, mrng);
    example = ds.example(0);
    true_gradient =
        nn::compute_gradients(*model, example.x, example.labels);
  }
};

TEST(Reconstruction, RecoversInputFromCleanGradient) {
  AttackFixture fx;
  AttackConfig config;
  config.max_iterations = 200;
  GradientReconstructionAttack attack(fx.model, config);
  AttackResult result = attack.run(fx.true_gradient, fx.example.x.shape(),
                                   fx.example.labels, fx.example.x);
  EXPECT_TRUE(result.success);
  EXPECT_LT(result.reconstruction_distance, 0.1);
  EXPECT_LT(result.iterations, 200);
  EXPECT_TRUE(result.reconstruction.defined());
  EXPECT_TRUE(result.ground_truth.defined());
}

TEST(Reconstruction, FailsUnderFedCdpNoise) {
  AttackFixture fx;
  // Sanitize the observed gradient the way Fed-CDP does.
  core::FedCdpPolicy policy(/*clipping_bound=*/1.0, /*noise_scale=*/1.0);
  TensorList observed = tensor::list::clone(fx.true_gradient);
  Rng rng(6);
  testing::sanitize_one_example(policy, observed,
                                dp::single_group(observed.size()), 0, rng);
  AttackConfig config;
  config.max_iterations = 60;  // keep the test fast; failure is robust
  GradientReconstructionAttack attack(fx.model, config);
  AttackResult result = attack.run(observed, fx.example.x.shape(),
                                   fx.example.labels, fx.example.x);
  EXPECT_FALSE(result.success);
  EXPECT_GT(result.reconstruction_distance, 0.3);
  EXPECT_EQ(result.iterations, 60);  // failed attacks charged full budget
}

TEST(Reconstruction, ValidatesInputs) {
  AttackFixture fx;
  GradientReconstructionAttack attack(fx.model, AttackConfig{});
  TensorList short_grads(fx.true_gradient.begin(),
                         fx.true_gradient.end() - 1);
  EXPECT_THROW(attack.run(short_grads, fx.example.x.shape(),
                          fx.example.labels, fx.example.x),
               Error);
  EXPECT_THROW(attack.run(fx.true_gradient, {1, 4, 4, 1},
                          fx.example.labels, fx.example.x),
               Error);
  // The right count with one tensor of the wrong shape at equal numel:
  // the first conv weight [25, 4] read as [4, 25].
  TensorList reshaped = tensor::list::clone(fx.true_gradient);
  ASSERT_EQ(reshaped[0].shape(), (Shape{25, 4}));
  reshaped[0] = reshaped[0].reshape({4, 25});
  EXPECT_THROW(attack.run(reshaped, fx.example.x.shape(), fx.example.labels,
                          fx.example.x),
               Error);
}

// ---- end-to-end leakage evaluation ----

data::BenchmarkConfig attack_bench() {
  data::BenchmarkConfig bench =
      data::benchmark_config(data::BenchmarkId::kMnist, BenchScale::kSmoke);
  // Smooth activations make the gradient-matching landscape tractable,
  // as in the DLG/CPL attack literature.
  bench.model.activation = nn::Activation::kSigmoid;
  bench.batch_size = 1;
  return bench;
}

TEST(LeakageEval, NonPrivateLeaksEverywhere) {
  LeakageExperimentConfig config;
  config.bench = attack_bench();
  config.clients = 2;
  config.attack.max_iterations = 150;
  core::NonPrivatePolicy policy;
  LeakageReport report = evaluate_leakage(config, policy);
  EXPECT_TRUE(report.type2.any_success);
  EXPECT_TRUE(report.type01.any_success);
  EXPECT_LT(report.type2.mean_distance, 0.25);
  EXPECT_EQ(report.type2.per_client.size(), 2u);
}

TEST(LeakageEval, FedCdpStopsType2) {
  LeakageExperimentConfig config;
  config.bench = attack_bench();
  config.clients = 1;
  config.attack.max_iterations = 60;
  core::FedCdpPolicy policy(4.0, 0.5);
  LeakageReport report = evaluate_leakage(config, policy);
  EXPECT_FALSE(report.type2.any_success);
  EXPECT_FALSE(report.type01.any_success);
  EXPECT_GT(report.type2.mean_distance, 0.3);
}

TEST(LeakageEval, FedSdpVulnerableToType2Only) {
  LeakageExperimentConfig config;
  config.bench = attack_bench();
  config.clients = 1;
  config.attack.max_iterations = 150;
  core::FedSdpPolicy policy(4.0, 0.5);
  LeakageReport report = evaluate_leakage(config, policy);
  // The paper's key observation: Fed-SDP protects the shared update
  // (type-0/1) but leaves per-example gradients (type-2) exposed.
  EXPECT_TRUE(report.type2.any_success);
  EXPECT_FALSE(report.type01.any_success);
}

TEST(LeakageEval, FedCdpType2CellNeedsItsNoise) {
  // Table VII's Fed-CDP type-2 cell under the L2 objective, at the
  // bench's smoke setting (MNIST, sigmoid CNN, seed 42, one client,
  // budget 300). At C = 4 the 8x8 per-example norms fall below the
  // bound, so clipping alone leaves the gradient intact and the attack
  // recovers the input; the configured noise is what stops it. A Fed-CDP
  // that silently stops noising fails here.
  LeakageExperimentConfig config;
  config.bench =
      data::benchmark_config(data::BenchmarkId::kMnist, BenchScale::kSmoke);
  config.bench.model.activation = nn::Activation::kSigmoid;
  config.clients = 1;
  config.seed = 42;
  config.attack.max_iterations = 300;
  const LeakageReport clip_only =
      evaluate_leakage(config, core::FedCdpPolicy(4.0, 0.0));
  const LeakageReport noised =
      evaluate_leakage(config, core::FedCdpPolicy(4.0, 0.25));
  EXPECT_TRUE(clip_only.type2.any_success);
  EXPECT_LT(clip_only.type2.mean_distance, 0.05);
  EXPECT_FALSE(noised.type2.any_success);
  EXPECT_GT(noised.type2.mean_distance, 0.4);
}

TEST(LeakageEval, AsciiImageRendering) {
  Tensor img = Tensor::zeros({2, 2, 1});
  img.at(3) = 1.0f;
  std::string art = ascii_image(img);
  // Two rows of two double-width cells.
  EXPECT_EQ(art, "    \n  @@\n");
  EXPECT_THROW(ascii_image(Tensor::zeros({3})), Error);
}

}  // namespace
}  // namespace fedcl::attack
