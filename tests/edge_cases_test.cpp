// Edge cases and contract checks across modules: the inputs a careless
// (or adversarial) caller could produce.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "data/synthetic.h"
#include "dp/accountant.h"
#include "fl/client.h"
#include "nn/model_zoo.h"
#include "testing/ops.h"
#include "testing/reference.h"
#include "testing/sanitize.h"

namespace fedcl {
namespace {

namespace o = tensor::ops;
using tensor::Shape;
using tensor::Tensor;
using tensor::Var;

// ---- autograd edge cases ----

TEST(AutogradEdge, BackwardOnLeafScalar) {
  Var x(Tensor::scalar(5.0f), true);
  tensor::Gradients g = tensor::backward(x);
  EXPECT_TRUE(g.contains(x));
  EXPECT_FLOAT_EQ(g.of(x).value().item(), 1.0f);
}

TEST(AutogradEdge, NestedGradModeGuards) {
  Var x(Tensor::ones({2}), true);
  {
    tensor::GradModeGuard off(false);
    EXPECT_FALSE(tensor::grad_mode_enabled());
    {
      tensor::GradModeGuard on(true);
      EXPECT_TRUE(tensor::grad_mode_enabled());
      EXPECT_TRUE(o::mul_scalar(x, 2.0f).requires_grad());
    }
    EXPECT_FALSE(tensor::grad_mode_enabled());
    EXPECT_FALSE(o::mul_scalar(x, 2.0f).requires_grad());
  }
  EXPECT_TRUE(tensor::grad_mode_enabled());
}

TEST(AutogradEdge, LongChainDoesNotOverflowStack) {
  // The topo sort is iterative; a 20k-op chain must not recurse.
  Var x(Tensor::scalar(1.0f), true);
  Var y = x;
  for (int i = 0; i < 20000; ++i) y = o::add_scalar(y, 1e-6f);
  tensor::Gradients g = tensor::backward(y);
  EXPECT_FLOAT_EQ(g.of(x).value().item(), 1.0f);
}

TEST(AutogradEdge, WideFanOutAccumulates) {
  Var x(Tensor::scalar(2.0f), true);
  Var sum;
  for (int i = 0; i < 64; ++i) {
    Var term = o::mul_scalar(x, static_cast<float>(i));
    sum = sum.defined() ? o::add(sum, term) : term;
  }
  tensor::Gradients g = tensor::backward(sum);
  EXPECT_FLOAT_EQ(g.of(x).value().item(), 63.0f * 64.0f / 2.0f);
}

// ---- loss properties ----

TEST(LossEdge, CrossEntropyShiftInvariant) {
  Rng rng(1);
  Tensor logits = Tensor::randn({3, 5}, rng);
  std::vector<std::int64_t> labels{0, 2, 4};
  const float base =
      nn::softmax_cross_entropy(Var(logits, false), labels).value().item();
  Tensor shifted = tensor::add_scalar(logits, 100.0f);
  const float moved =
      nn::softmax_cross_entropy(Var(shifted, false), labels).value().item();
  EXPECT_NEAR(base, moved, 1e-4);
}

TEST(LossEdge, CrossEntropyNonNegativeAndStable) {
  // Extreme logits must not produce NaN/inf.
  Tensor logits = Tensor::from_vector({2, 2}, {1e4f, -1e4f, -1e4f, 1e4f});
  Var loss = nn::softmax_cross_entropy(Var(logits, false), {0, 1});
  EXPECT_TRUE(std::isfinite(loss.value().item()));
  EXPECT_GE(loss.value().item(), 0.0f);
}

TEST(LossEdge, LabelOutOfRangeThrows) {
  Tensor logits = Tensor::zeros({1, 3});
  EXPECT_THROW(nn::softmax_cross_entropy(Var(logits, false), {3}), Error);
  EXPECT_THROW(nn::softmax_cross_entropy(Var(logits, false), {-1}), Error);
  EXPECT_THROW(nn::softmax_cross_entropy(Var(logits, false), {0, 1}),
               Error);  // label count mismatch
}

// ---- tensor contracts ----

TEST(TensorEdge, ZeroDimensionTensor) {
  Tensor t({0, 4});
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.defined());
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(TensorEdge, UndefinedTensorAccessThrows) {
  Tensor t;
  EXPECT_THROW(t.data(), Error);
  EXPECT_THROW(t.clone(), Error);
  EXPECT_THROW(Var(Tensor(), false), Error);
}

TEST(TensorEdge, NegativeShapeRejected) {
  EXPECT_THROW(Tensor({2, -1}), Error);
}

// ---- policy contracts under extreme parameters ----

TEST(PolicyEdge, FedCdpZeroGradientStaysZeroWithoutNoise) {
  core::FedCdpPolicy policy(4.0, 0.0);
  Rng rng(2);
  core::TensorList g = {Tensor::zeros({10})};
  testing::sanitize_one_example(policy, g, {{0}}, 0, rng);
  EXPECT_FLOAT_EQ(g[0].l2_norm(), 0.0f);
}

TEST(PolicyEdge, FedSdpHugeNoiseScaleStillFiniteUpdate) {
  core::FedSdpPolicy policy(1.0, 1e6);
  Rng rng(3);
  core::TensorList u = {Tensor::ones({16})};
  policy.sanitize_client_update(u, {{0}}, 0, rng);
  for (std::int64_t i = 0; i < u[0].numel(); ++i) {
    EXPECT_TRUE(std::isfinite(u[0].at(i)));
  }
}

TEST(PolicyEdge, DecayPolicyRejectsNegativeRound) {
  auto policy = core::make_fed_cdp_decay(10);
  EXPECT_THROW(policy->clipping_bound_at(-1), Error);
}

// ---- accountant numeric robustness ----

TEST(AccountantEdge, TinySamplingRateStaysFinite) {
  dp::MomentsAccountant acc(1e-9, 6.0);
  const double eps = acc.epsilon(1000000, 1e-5);
  EXPECT_TRUE(std::isfinite(eps));
  EXPECT_GE(eps, 0.0);
  // The classic conversion floors at log(1/delta)/(max_order - 1)
  // ~= 0.045 for delta=1e-5 and orders up to 256, no matter how small
  // the per-step RDP is.
  EXPECT_LT(eps, 0.05);
}

TEST(AccountantEdge, HugeStepCountStaysFinite) {
  dp::MomentsAccountant acc(0.01, 6.0);
  EXPECT_TRUE(std::isfinite(acc.epsilon(100000000, 1e-5)));
}

TEST(AccountantEdge, ZeroStepsIsFree) {
  dp::MomentsAccountant acc(0.01, 6.0);
  EXPECT_DOUBLE_EQ(acc.epsilon(0, 1e-5), 0.0);
}

// ---- synthetic data degenerate configs ----

TEST(SyntheticEdge, SingleExamplePerClass) {
  data::SyntheticSpec spec{.example_shape = {4}, .classes = 3, .count = 3,
                           .clamp01 = false};
  Rng rng(4);
  data::Dataset ds = data::generate_synthetic(spec, rng);
  EXPECT_EQ(ds.size(), 3);
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ds.indices_of_class(c).size(), 1u);
  }
}

TEST(SyntheticEdge, ZeroNoiseEqualsPrototype) {
  data::SyntheticSpec spec{.example_shape = {4, 4, 1},
                           .classes = 2,
                           .count = 2,
                           .noise = 0.0f};
  Rng rng(5);
  data::Dataset ds = data::generate_synthetic(spec, rng);
  Tensor proto = data::class_prototype(spec, 0);
  data::Batch e = ds.example(0);
  EXPECT_TRUE(tensor::allclose(e.x.reshape(proto.shape()), proto));
}

TEST(SyntheticEdge, InvalidSpecsThrow) {
  Rng rng(6);
  data::SyntheticSpec no_count{.example_shape = {4}, .classes = 2,
                               .count = 0};
  EXPECT_THROW(data::generate_synthetic(no_count, rng), Error);
  data::SyntheticSpec one_class{.example_shape = {4}, .classes = 1,
                                .count = 4};
  EXPECT_THROW(data::generate_synthetic(one_class, rng), Error);
}

// ---- client under single-example datasets ----

TEST(ClientEdge, SingleExampleClientTrains) {
  Rng rng(7);
  data::SyntheticSpec spec{.example_shape = {4}, .classes = 2, .count = 2,
                           .clamp01 = false};
  Rng drng = rng.fork("d");
  auto ds = std::make_shared<data::Dataset>(
      data::generate_synthetic(spec, drng));
  data::ClientData cd(ds, {0});  // one example
  nn::ModelSpec ms{.kind = nn::ModelSpec::Kind::kMlp, .in_features = 4,
                   .classes = 2, .hidden1 = 3, .hidden2 = 3};
  Rng mrng = rng.fork("m");
  auto model = nn::build_model(ms, mrng);
  fl::LocalTrainConfig local{.local_iterations = 2,
                             .batch_size = 3,  // > data size: resampled
                             .learning_rate = 0.1};
  fl::Client client(0, cd, local);
  core::FedCdpPolicy policy(4.0, 0.1);
  Rng crng = rng.fork("c");
  fl::ClientRoundOutcome outcome =
      client.run_round(*model, model->weights(), policy, 0, crng);
  EXPECT_GT(tensor::list::l2_norm(outcome.update.delta), 0.0);
}

}  // namespace
}  // namespace fedcl
