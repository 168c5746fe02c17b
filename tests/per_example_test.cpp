// Parity and determinism tests for the batched per-example gradient
// engine and the parallel federated round schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "dp/fused_sanitize.h"
#include "fl/client.h"
#include "fl/trainer.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "nn/per_example.h"
#include "tensor/tensor_list.h"
#include "testing/kernel_check.h"
#include "testing/reference.h"
#include "testing/sanitize.h"

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
// gradients over all examples and parameters, example by example: the
// engine's factors are multiplied out, the sliced reference's rows
// copied.
double max_abs_diff(const PerExampleGrads& a, const PerExampleGrads& b) {
  EXPECT_EQ(a.params.size(), b.params.size());
  EXPECT_EQ(a.batch, b.batch);
  double worst = 0.0;
  for (std::int64_t j = 0; j < a.batch; ++j) {
    const TensorList ea = a.example(j);
    const TensorList eb = b.example(j);
    for (std::size_t p = 0; p < ea.size(); ++p) {
      EXPECT_EQ(ea[p].numel(), eb[p].numel());
      for (std::int64_t i = 0; i < ea[p].numel(); ++i) {
        worst = std::max(worst, std::abs(static_cast<double>(
                                    ea[p].at(i) - eb[p].at(i))));
      }
    }
  }
  return worst;
}

void expect_parity(const Sequential& model, const Tensor& x,
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
  TensorList mean = dp::batch_mean(batched);
  TensorList reference = nn::compute_gradients_reference(model, x, labels);
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
    Tensor x = Tensor::randn({batch, 20}, rng);
    const std::vector<std::int64_t> labels = random_labels(rng, batch, 5);
    expect_parity(*model, x, labels);
    // Linear layers hand over factors, never rows, and each bias shares
    // its weight's deltas.
    const PerExampleGrads grads =
        nn::compute_per_example_gradients(*model, x, labels);
    for (std::size_t p = 0; p < grads.params.size(); p += 2) {
      EXPECT_TRUE(grads.params[p].factored());
      EXPECT_TRUE(grads.params[p].a.defined());
      EXPECT_EQ(grads.params[p + 1].delta.data(),
                grads.params[p].delta.data());
    }
  }
}

TEST(PerExampleEngine, CnnParityAcrossBatchSizes) {
  for (std::int64_t batch : {1, 4, 16}) {
    Rng rng(99 + static_cast<std::uint64_t>(batch));
    auto model = nn::build_model(cnn_spec(), rng);
    Tensor x = Tensor::uniform({batch, 8, 8, 1}, rng);
    expect_parity(*model, x, random_labels(rng, batch, 4));
  }
}

TEST(PerExampleEngine, TanhSigmoidCnnParity) {
  // Exercise per-example paths the zoo tests here don't: tanh and
  // sigmoid derivatives-from-output in a CNN, with a hidden Linear
  // layer after the pool.
  Rng rng(123);
  Sequential model;
  model.emplace<nn::InputScale>(-0.5f, 2.0f);
  model.emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng);
  model.emplace<nn::ActivationLayer>(nn::Activation::kTanh);
  model.emplace<nn::AvgPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(3 * 3 * 3, 8, rng);
  model.emplace<nn::ActivationLayer>(nn::Activation::kSigmoid);
  model.emplace<nn::Linear>(8, 3, rng);
  const std::int64_t batch = 6;
  Tensor x = Tensor::randn({batch, 6, 6, 2}, rng);
  expect_parity(model, x, random_labels(rng, batch, 3));
}

TEST(PerExampleGradsLayout, ExampleRoundTripAndNorms) {
  PerExampleGrads grads =
      tensor::list::make_per_example(3, {{2, 2}, {2}});
  TensorList one = {Tensor::from_vector({2, 2}, {1, 2, 3, 4}),
                    Tensor::from_vector({2}, {5, 6})};
  nn::set_example(grads, 1, one);
  TensorList back = grads.example(1);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_FLOAT_EQ(back[0].at(3), 4.0f);
  EXPECT_FLOAT_EQ(back[1].at(1), 6.0f);
  // Examples 0 and 2 stay zero; the mean is one third of example 1.
  TensorList mean = dp::batch_mean(grads);
  EXPECT_NEAR(mean[0].at(0), 1.0f / 3.0f, 1e-6);
}

// A layer outside nn/layers.h, which the batched engine has no
// backward rule for.
class UnknownLayer final : public nn::Layer {
 public:
  std::string name() const override { return "UnknownLayer"; }
};

TEST(PerExampleEngine, UnsupportedLayerThrows) {
  // There is no fallback engine: a model the tape cannot differentiate
  // is an error for both reductions, called directly or from a round of
  // a per-example (Fed-CDP) or a batch (non-private) policy.
  Rng rng(13);
  Sequential model;
  model.emplace<nn::Linear>(4, 3, rng);
  model.emplace<UnknownLayer>();
  const Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_THROW(
      nn::compute_per_example_gradients(model, x, random_labels(rng, 2, 3)),
      Error);
  EXPECT_THROW(nn::compute_gradients(model, x, random_labels(rng, 2, 3)),
               Error);

  auto dataset = std::make_shared<const data::Dataset>(
      Tensor::randn({6, 4}, rng), random_labels(rng, 6, 3), 3);
  const fl::Client client(0, data::ClientData(dataset, {0, 1, 2, 3, 4, 5}),
                          {.local_iterations = 1, .batch_size = 2});
  const std::unique_ptr<core::PrivacyPolicy> policies[] = {
      core::make_fed_cdp(/*C=*/1.0, /*sigma=*/0.5), core::make_non_private()};
  for (const auto& policy : policies) {
    Rng round_rng(14);
    EXPECT_THROW(client.run_round(model, model.weights(), *policy,
                                  /*round=*/0, round_rng),
                 Error);
  }
}

TEST(PerExampleEngine, RejectsOutOfRangeLabels) {
  // A label picks the seed's column in its logits row. Out of range it
  // would land in the neighbouring row, so both reductions check every
  // label before they seed. The bad label sits in a non-final row,
  // where the tensor's own bound check cannot catch it.
  Rng rng(19);
  nn::ModelSpec spec =
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmall)
          .model;
  ASSERT_EQ(spec.classes, 2);
  auto model = nn::build_model(spec, rng);
  const Tensor x = Tensor::randn({3, spec.in_features}, rng);
  const std::vector<std::vector<std::int64_t>> bad = {{2, 0, 1}, {0, -1, 1}};
  for (const std::vector<std::int64_t>& labels : bad) {
    EXPECT_THROW(nn::compute_per_example_gradients(*model, x, labels), Error);
    EXPECT_THROW(nn::compute_gradients(*model, x, labels), Error);
  }
}

// The tape's batch reduction against one autograd graph over the same
// weights: every tensor memcmp'd, the loss compared exactly.
void expect_batch_matches_autograd(const Sequential& model, const Tensor& x,
                                   const std::vector<std::int64_t>& labels) {
  double tape_loss = 0.0, graph_loss = 0.0;
  const TensorList tape = nn::compute_gradients(model, x, labels, &tape_loss);
  const TensorList graph =
      nn::compute_gradients_reference(model, x, labels, &graph_loss);
  ASSERT_EQ(tape.size(), graph.size());
  for (std::size_t p = 0; p < tape.size(); ++p)
    ASSERT_EQ(tape[p].shape(), graph[p].shape()) << "param " << p;
  testing::expect_bitwise_equal(tape, graph, "batch gradient");
  EXPECT_EQ(tape_loss, graph_loss);
}

Tensor random_input(const nn::ModelSpec& spec, std::int64_t batch, Rng& rng) {
  if (spec.kind == nn::ModelSpec::Kind::kImageCnn)
    return Tensor::uniform({batch, spec.height, spec.width, spec.channels},
                           rng);
  return Tensor::randn({batch, spec.in_features}, rng);
}

TEST(PerExampleEngine, BatchGradientMatchesAutogradBitwise) {
  // Non-private and Fed-SDP train on the batch reduction, so it must
  // reproduce the autograd graph it replaced bit for bit: every model
  // zoo architecture at small and paper dims, every activation, and
  // batch sizes on both sides of matmul_nt's 16-row pack threshold.
  const std::vector<std::int64_t> batches = {1, 2, 3, 5, 7, 16, 33};
  std::uint64_t seed = 1000;
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    for (const BenchScale scale : {BenchScale::kSmall, BenchScale::kPaper}) {
      for (const nn::Activation act :
           {nn::Activation::kRelu, nn::Activation::kSigmoid,
            nn::Activation::kTanh}) {
        nn::ModelSpec spec = data::benchmark_config(id, scale).model;
        spec.activation = act;
        Rng rng(++seed);
        auto model = nn::build_model(spec, rng);
        for (const std::int64_t batch : batches) {
          SCOPED_TRACE(std::string(data::benchmark_name(id)) + " " +
                       bench_scale_name(scale) + " " +
                       nn::activation_name(act) +
                       " B=" + std::to_string(batch));
          const Tensor x = random_input(spec, batch, rng);
          expect_batch_matches_autograd(
              *model, x, random_labels(rng, batch, spec.classes));
        }
      }
    }
  }

  // Stacks the zoo does not build. The first mixes three activations
  // and routes both pools' gradients into a second conv whose batch has
  // 16 output positions at B = 1; the second starts at a Conv with no
  // InputScale in front.
  const std::vector<std::int64_t> stack_batches = {1, 3, 16};
  {
    Rng rng(2001);
    Sequential model;
    model.emplace<nn::InputScale>(-0.5f, 2.0f);
    model.emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng);
    model.emplace<nn::ActivationLayer>(nn::Activation::kTanh);
    model.emplace<nn::AvgPool2d>(2);
    model.emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng);
    model.emplace<nn::ActivationLayer>(nn::Activation::kRelu);
    model.emplace<nn::AvgPool2d>(2);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(4 * 2 * 2, 5, rng);
    model.emplace<nn::ActivationLayer>(nn::Activation::kSigmoid);
    model.emplace<nn::Linear>(5, 3, rng);
    for (const std::int64_t batch : stack_batches) {
      SCOPED_TRACE("Two-pool stack B=" + std::to_string(batch));
      const Tensor x = Tensor::randn({batch, 8, 8, 2}, rng);
      expect_batch_matches_autograd(model, x, random_labels(rng, batch, 3));
    }
  }
  {
    Rng rng(2004);
    Sequential model;
    model.emplace<nn::Conv2d>(1, 4, 5, 1, 2, rng);
    model.emplace<nn::ActivationLayer>(nn::Activation::kRelu);
    model.emplace<nn::AvgPool2d>(2);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(4 * 4 * 4, 3, rng);
    for (const std::int64_t batch : stack_batches) {
      SCOPED_TRACE("Conv-first stack B=" + std::to_string(batch));
      const Tensor x = Tensor::uniform({batch, 8, 8, 1}, rng);
      expect_batch_matches_autograd(model, x, random_labels(rng, batch, 3));
    }
  }
}

TEST(PerExampleEngine, ForwardLogitsMatchOracleBitwise) {
  // evaluate_accuracy and the membership attack read nn::forward, the
  // tape's forward without the tape: on every model-zoo architecture,
  // activation and scale its logits are the oracle graph's, bit for bit.
  std::uint64_t seed = 3000;
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    for (const BenchScale scale : {BenchScale::kSmall, BenchScale::kPaper}) {
      for (const nn::Activation act :
           {nn::Activation::kRelu, nn::Activation::kSigmoid,
            nn::Activation::kTanh}) {
        nn::ModelSpec spec = data::benchmark_config(id, scale).model;
        spec.activation = act;
        Rng rng(++seed);
        auto model = nn::build_model(spec, rng);
        for (const std::int64_t batch : {1, 3, 17}) {
          SCOPED_TRACE(std::string(data::benchmark_name(id)) + " " +
                       bench_scale_name(scale) + " " +
                       nn::activation_name(act) +
                       " B=" + std::to_string(batch));
          const Tensor x = random_input(spec, batch, rng);
          const Tensor tape = nn::forward(*model, x);
          const Tensor graph =
              nn::graph_forward(*model, tensor::Var(x, false)).value();
          ASSERT_EQ(tape.shape(), graph.shape());
          testing::expect_bitwise_equal({tape}, {graph}, "logits");
        }
      }
    }
  }
}

TEST(PerExamplePolicy, BatchedSanitizeMatchesExampleLoopBitwise) {
  // One hook call on B = 8 examples against eight calls on one-example
  // slices of the same factors from the same stream, averaged in
  // example order. Every example draws its one noise key in example
  // order, so both sides take the same stream, and example 0 observed
  // is bitwise its slice's sanitize. Without noise the means are
  // bitwise equal too, since both sides take clip norms from the same
  // factors; with noise the batched mean draws the unobserved
  // examples' noise once, so it matches the loop in distribution only
  // (PhiloxNoise.MeanNoiseHasTheDistributionOfPerExampleDraws).
  Rng rng(42);
  auto model = nn::build_model(mlp_spec(), rng);
  Tensor x = Tensor::randn({8, 20}, rng);
  std::vector<std::int64_t> labels = random_labels(rng, 8, 5);
  const PerExampleGrads raw =
      nn::compute_per_example_gradients(*model, x, labels);
  const core::ParamGroups groups = fl::to_param_groups(model->layer_groups());
  const std::int64_t round = 3;

  // The fixed bounds (2, and decay 4 -> 2 over 7 rounds, i.e. 3 at
  // round 3) lie inside the spread of the group norms, so each case
  // both clips and passes groups through.
  const std::vector<double> norms = dp::batch_group_norms(raw, groups);
  const auto [lo, hi] = std::minmax_element(norms.begin(), norms.end());
  for (const double bound : {2.0, 3.0}) {
    ASSERT_LT(*lo, bound);
    ASSERT_GT(*hi, bound);
  }

  for (const double sigma : {0.0, 1.3}) {
    const std::unique_ptr<core::FedCdpPolicy> policies[] = {
        core::make_fed_cdp(2.0, sigma),
        core::make_fed_cdp_decay(7, 4.0, 2.0, sigma)};
    for (const auto& policy : policies) {
      SCOPED_TRACE(policy->name() + " sigma " + std::to_string(sigma));
      Rng noise_a(2024);
      const dp::SanitizedBatch batched = policy->sanitize_per_example_batch(
          raw, groups, round, noise_a, /*observe=*/0);

      TensorList looped;
      TensorList first;
      Rng noise_b(2024);
      for (std::int64_t j = 0; j < raw.batch; ++j) {
        TensorList y = policy
                           ->sanitize_per_example_batch(
                               testing::slice_example(raw, j), groups, round,
                               noise_b, /*observe=*/0)
                           .observed;
        if (j == 0) {
          first = tensor::list::clone(y);
          looped = tensor::list::zeros_like(y);
        }
        tensor::list::add_(looped, y);
      }
      tensor::list::scale_(looped, 1.0f / static_cast<float>(raw.batch));

      if (sigma == 0.0) {
        testing::expect_bitwise_equal(batched.mean, looped, "mean");
      }
      testing::expect_bitwise_equal(batched.observed, first, "example 0");
      EXPECT_EQ(noise_a.next_u64(), noise_b.next_u64());
    }
  }
}

TEST(PerExamplePolicy, ProbeObservesOneExampleSanitize) {
  // The type-2 probe of a Fed-CDP round reads example 0's sanitized
  // gradient: bitwise a one-example sanitize of that example under its
  // key, replayed from the round's stream (batch sample, then one key
  // per example, example 0's first).
  Rng rng(61);
  auto model = nn::build_model(mlp_spec(), rng);
  auto dataset = std::make_shared<const data::Dataset>(
      Tensor::randn({12, 20}, rng), random_labels(rng, 12, 5), 5);
  std::vector<std::int64_t> indices(12);
  for (std::int64_t i = 0; i < 12; ++i)
    indices[static_cast<std::size_t>(i)] = i;
  const fl::Client client(0, data::ClientData(dataset, indices),
                          {.local_iterations = 2, .batch_size = 4});
  const core::FedCdpPolicy policy(/*clipping_bound=*/2.0, /*noise_scale=*/0.7);
  const TensorList global = model->weights();
  const core::ParamGroups groups = fl::to_param_groups(model->layer_groups());

  Rng round_rng(62);
  Rng replay = round_rng;
  fl::LeakageProbe probe;
  client.run_round(*model, global, policy, /*round=*/0, round_rng, &probe);
  ASSERT_TRUE(probe.captured);

  model->set_weights(global);
  const data::Batch batch = client.data().sample_batch(replay, 4);
  const PerExampleGrads grads =
      nn::compute_per_example_gradients(*model, batch.x, batch.labels);
  const TensorList alone =
      policy
          .sanitize_per_example_batch(testing::slice_example(grads, 0), groups,
                                      /*round=*/0, replay, /*observe=*/0)
          .observed;
  testing::expect_bitwise_equal(probe.type2_observed, alone, "type-2 view");
  // The raw batch gradient the probe also records is the unsanitized
  // mean.
  testing::expect_bitwise_equal(probe.first_batch_gradient,
                                dp::batch_mean(grads), "raw batch gradient");
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
      if (streaming) config.tree_fan_out = 2;
      config.retry.max_attempts = 3;
      config.noise_scale = 0.5;
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

}  // namespace
}  // namespace fedcl
