// Parity and determinism tests for the batched per-example gradient
// engine and the parallel federated round schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "nn/per_example.h"
#include "tensor/tensor_list.h"

namespace fedcl {
namespace {

using nn::Sequential;
using tensor::Tensor;
using tensor::list::PerExampleGrads;
using tensor::list::TensorList;

std::vector<std::int64_t> random_labels(Rng& rng, std::int64_t n,
                                        std::int64_t classes) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (auto& l : labels)
    l = static_cast<std::int64_t>(rng.uniform_int(
        static_cast<std::uint64_t>(classes)));
  return labels;
}

// Largest absolute difference between batched and sliced per-example
// gradients over all examples and parameters.
double max_abs_diff(const PerExampleGrads& a, const PerExampleGrads& b) {
  EXPECT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.batch, b.batch);
  double worst = 0.0;
  for (std::size_t p = 0; p < a.rows.size(); ++p) {
    EXPECT_EQ(a.rows[p].numel(), b.rows[p].numel());
    for (std::int64_t i = 0; i < a.rows[p].numel(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(
                                  a.rows[p].at(i) - b.rows[p].at(i))));
    }
  }
  return worst;
}

void expect_parity(Sequential& model, const Tensor& x,
                   const std::vector<std::int64_t>& labels,
                   double tol = 1e-5) {
  double loss_batched = 0.0, loss_sliced = 0.0;
  PerExampleGrads batched =
      nn::compute_per_example_gradients(model, x, labels, &loss_batched);
  PerExampleGrads sliced = nn::compute_per_example_gradients_sliced(
      model, x, labels, &loss_sliced);
  EXPECT_LT(max_abs_diff(batched, sliced), tol);
  EXPECT_NEAR(loss_batched, loss_sliced, 1e-5);

  // The mean of the raw per-example gradients is the batch gradient.
  TensorList mean = batched.mean();
  TensorList reference = nn::compute_gradients(model, x, labels);
  ASSERT_EQ(mean.size(), reference.size());
  for (std::size_t p = 0; p < mean.size(); ++p) {
    for (std::int64_t i = 0; i < mean[p].numel(); ++i) {
      EXPECT_NEAR(mean[p].at(i), reference[p].at(i), tol)
          << "param " << p << " index " << i;
    }
  }
}

nn::ModelSpec mlp_spec() {
  nn::ModelSpec spec;
  spec.kind = nn::ModelSpec::Kind::kMlp;
  spec.in_features = 20;
  spec.classes = 5;
  spec.hidden1 = 16;
  spec.hidden2 = 12;
  return spec;
}

nn::ModelSpec cnn_spec() {
  nn::ModelSpec spec;
  spec.kind = nn::ModelSpec::Kind::kImageCnn;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 1;
  spec.classes = 4;
  spec.conv1_channels = 4;
  spec.conv2_channels = 6;
  return spec;
}

TEST(PerExampleEngine, MlpParityAcrossBatchSizes) {
  for (std::int64_t batch : {1, 3, 32}) {
    Rng rng(77 + static_cast<std::uint64_t>(batch));
    auto model = nn::build_model(mlp_spec(), rng);
    ASSERT_TRUE(nn::per_example_supported(*model));
    Tensor x = Tensor::randn({batch, 20}, rng);
    expect_parity(*model, x, random_labels(rng, batch, 5));
  }
}

TEST(PerExampleEngine, CnnParityAcrossBatchSizes) {
  for (std::int64_t batch : {1, 4, 16}) {
    Rng rng(99 + static_cast<std::uint64_t>(batch));
    auto model = nn::build_model(cnn_spec(), rng);
    ASSERT_TRUE(nn::per_example_supported(*model));
    Tensor x = Tensor::uniform({batch, 8, 8, 1}, rng);
    expect_parity(*model, x, random_labels(rng, batch, 4));
  }
}

TEST(PerExampleEngine, MaxPoolTanhSigmoidParity) {
  // Exercise the tape paths the zoo models don't: MaxPool routing plus
  // sigmoid/tanh derivatives-from-output.
  Rng rng(123);
  Sequential model;
  model.emplace<nn::InputScale>(-0.5f, 2.0f);
  model.emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng);
  model.emplace<nn::ActivationLayer>(nn::Activation::kTanh);
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(3 * 3 * 3, 8, rng);
  model.emplace<nn::ActivationLayer>(nn::Activation::kSigmoid);
  model.emplace<nn::Linear>(8, 3, rng);
  ASSERT_TRUE(nn::per_example_supported(model));
  const std::int64_t batch = 6;
  Tensor x = Tensor::randn({batch, 6, 6, 2}, rng);
  expect_parity(model, x, random_labels(rng, batch, 3));
}

TEST(PerExampleEngine, DropoutEvalModeParity) {
  // In eval mode Dropout is the identity, so both paths agree; in
  // training mode the two paths consume the layer's mask stream
  // differently, which is why parity is only checked in eval.
  Rng rng(321);
  Sequential model;
  model.emplace<nn::Linear>(10, 8, rng);
  model.emplace<nn::ActivationLayer>(nn::Activation::kRelu);
  model.emplace<nn::Dropout>(0.4, 17);
  model.emplace<nn::Linear>(8, 3, rng);
  model.set_training(false);
  ASSERT_TRUE(nn::per_example_supported(model));
  Tensor x = Tensor::randn({5, 10}, rng);
  expect_parity(model, x, random_labels(rng, 5, 3));
}

TEST(PerExampleEngine, DropoutTrainingMasksWholeBatchConsistently) {
  // A batched forward applies ONE mask tensor to the whole batch; the
  // per-example gradients must reflect exactly that mask.
  Rng rng(55);
  Sequential model;
  model.emplace<nn::Linear>(6, 4, rng);
  model.emplace<nn::Dropout>(0.5, 3);
  model.emplace<nn::Linear>(4, 2, rng);
  Tensor x = Tensor::randn({4, 6}, rng);
  PerExampleGrads grads = nn::compute_per_example_gradients(
      model, x, random_labels(rng, 4, 2));
  EXPECT_EQ(grads.batch, 4);
  EXPECT_EQ(grads.rows.size(), 4u);  // two Linear layers, W+b each
}

TEST(PerExampleEngine, ModeDispatch) {
  Rng rng(7);
  auto model = nn::build_model(mlp_spec(), rng);
  Tensor x = Tensor::randn({3, 20}, rng);
  std::vector<std::int64_t> labels = random_labels(rng, 3, 5);

  nn::set_per_example_mode(nn::PerExampleMode::kSliced);
  PerExampleGrads sliced = nn::per_example_gradients(*model, x, labels);
  nn::set_per_example_mode(nn::PerExampleMode::kBatched);
  PerExampleGrads batched = nn::per_example_gradients(*model, x, labels);
  nn::set_per_example_mode(nn::PerExampleMode::kAuto);
  EXPECT_LT(max_abs_diff(batched, sliced), 1e-5);
}

TEST(PerExampleGradsLayout, ExampleRoundTripAndNorms) {
  PerExampleGrads grads =
      tensor::list::make_per_example(3, {{2, 2}, {2}});
  TensorList one = {Tensor::from_vector({2, 2}, {1, 2, 3, 4}),
                    Tensor::from_vector({2}, {5, 6})};
  grads.set_example(1, one);
  TensorList back = grads.example(1);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_FLOAT_EQ(back[0].at(3), 4.0f);
  EXPECT_FLOAT_EQ(back[1].at(1), 6.0f);
  // Examples 0 and 2 stay zero; the mean is one third of example 1.
  TensorList mean = grads.mean();
  EXPECT_NEAR(mean[0].at(0), 1.0f / 3.0f, 1e-6);
  const double expected =
      std::sqrt(1.0 + 4.0 + 9.0 + 16.0 + 25.0 + 36.0);
  EXPECT_NEAR(grads.example_l2_norm(1), expected, 1e-6);
  EXPECT_NEAR(grads.example_l2_norm(0), 0.0, 1e-12);
}

TEST(PerExamplePolicy, BatchedSanitizeMatchesExampleLoopBitwise) {
  // Fed-CDP's batched clip+noise must consume the RNG stream in the
  // same example-major order as the per-example loop, producing
  // bitwise-identical sanitized gradients.
  Rng rng(42);
  auto model = nn::build_model(mlp_spec(), rng);
  Tensor x = Tensor::randn({8, 20}, rng);
  std::vector<std::int64_t> labels = random_labels(rng, 8, 5);
  PerExampleGrads batched =
      nn::compute_per_example_gradients(*model, x, labels);
  PerExampleGrads looped;
  looped.batch = batched.batch;
  looped.shapes = batched.shapes;
  for (const Tensor& r : batched.rows) looped.rows.push_back(r.clone());

  core::ParamGroups groups;
  for (const auto& g : model->layer_groups()) groups.push_back(g.param_indices);
  core::FedCdpPolicy policy(/*clipping_bound=*/0.7, /*noise_scale=*/1.3);

  Rng noise_a(2024);
  policy.sanitize_per_example_batch(batched, groups, /*round=*/3, noise_a);

  Rng noise_b(2024);
  for (std::int64_t j = 0; j < looped.batch; ++j) {
    TensorList grad = looped.example(j);
    policy.sanitize_per_example(grad, groups, /*round=*/3, noise_b);
    looped.set_example(j, grad);
  }
  EXPECT_EQ(max_abs_diff(batched, looped), 0.0);
}

fl::FlExperimentConfig small_fl_config(std::uint64_t seed) {
  fl::FlExperimentConfig config;
  config.bench =
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmoke);
  config.total_clients = 6;
  config.clients_per_round = 4;
  config.rounds = 3;
  config.seed = seed;
  config.client_dropout = 0.2;
  config.faults.fault_rate = 0.2;
  return config;
}

void expect_same_run(const fl::FlRunResult& a, const fl::FlRunResult& b) {
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size());
  for (std::size_t p = 0; p < a.final_weights.size(); ++p) {
    ASSERT_EQ(a.final_weights[p].numel(), b.final_weights[p].numel());
    for (std::int64_t i = 0; i < a.final_weights[p].numel(); ++i) {
      ASSERT_EQ(a.final_weights[p].at(i), b.final_weights[p].at(i))
          << "weights diverge at param " << p << " index " << i;
    }
  }
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.dropped_rounds, b.dropped_rounds);
  EXPECT_EQ(a.total_failures.injected_total(),
            b.total_failures.injected_total());
  EXPECT_EQ(a.total_failures.dropouts, b.total_failures.dropouts);
  EXPECT_EQ(a.total_failures.rejected_total(),
            b.total_failures.rejected_total());
  EXPECT_EQ(a.total_failures.retried_clients,
            b.total_failures.retried_clients);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.history[r].mean_grad_norm,
                     b.history[r].mean_grad_norm);
  }
}

TEST(ParallelTrainer, SerialAndParallelSchedulesBitwiseIdentical) {
  // The round consumes every shared RNG stream serially and each client
  // trains and delivers from its own forked streams, so the parallel
  // schedule must reproduce the serial one bit for bit — for the
  // non-private batched path and for Fed-CDP, through both folds, under
  // dropout, faults, and post-train re-dispatch. tree_fan_out 2 splits
  // the Kt = 4 cohort into two edge blocks in the streamed fold.
  for (const bool streaming : {false, true}) {
    for (const bool per_example : {false, true}) {
      SCOPED_TRACE(std::string(streaming ? "streamed" : "buffered") +
                   (per_example ? " Fed-CDP" : " non-private"));
      fl::FlExperimentConfig config = small_fl_config(911);
      config.streaming_aggregation = streaming;
      config.tree_fan_out = 2;
      config.retry.max_attempts = 3;
      std::unique_ptr<core::PrivacyPolicy> policy;
      if (per_example) {
        policy = core::make_fed_cdp(2.0, 0.5);
      } else {
        policy = core::make_non_private();
      }
      config.parallel_clients = false;
      fl::FlRunResult serial = fl::run_experiment(config, *policy);
      config.parallel_clients = true;
      fl::FlRunResult parallel = fl::run_experiment(config, *policy);
      expect_same_run(serial, parallel);
      // The pin covers re-dispatch: this seed draws no crash, so every
      // retry is a post-train resend of a corrupt or bit-flipped update.
      EXPECT_GT(serial.total_failures.retry_attempts, 0);
    }
  }
}

TEST(ParallelTrainer, OrderDependentPolicyStaysDeterministic) {
  // The median-norm policy is order-dependent; the trainer must
  // serialize it even when parallel_clients is requested, keeping
  // repeated runs identical.
  fl::FlExperimentConfig config = small_fl_config(500);
  core::FedCdpAdaptivePolicy policy(4.0, 0.5);
  config.parallel_clients = true;
  fl::FlRunResult a = fl::run_experiment(config, policy);
  core::FedCdpAdaptivePolicy policy_b(4.0, 0.5);
  fl::FlRunResult b = fl::run_experiment(config, policy_b);
  expect_same_run(a, b);
}

}  // namespace
}  // namespace fedcl
