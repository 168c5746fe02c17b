#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "nn/grad_utils.h"
#include "nn/layer.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/per_example.h"
#include "testing/gradcheck.h"
#include "testing/reference.h"

namespace fedcl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::Var;
using fedcl::testing::expect_gradcheck;

// A one-layer model around `layer`, run on the tape's raw forward.
template <typename L, typename... Args>
Sequential one_layer(Args&&... args) {
  Sequential model;
  model.emplace<L>(std::forward<Args>(args)...);
  return model;
}

TEST(Linear, ForwardShapeAndValue) {
  Rng rng(1);
  Sequential model = one_layer<Linear>(3, 2, rng);
  // Overwrite with known weights.
  model.set_weights({Tensor::from_vector({3, 2}, {1, 0, 0, 1, 1, 1}),
                     Tensor::from_vector({2}, {0.5f, -0.5f})});
  Tensor y = forward(model, Tensor::from_vector({1, 3}, {1, 2, 3}));
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 1 + 3 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(1), 2 + 3 - 0.5f);
}

TEST(Linear, RejectsWrongWidth) {
  Rng rng(2);
  Sequential model = one_layer<Linear>(3, 2, rng);
  EXPECT_THROW(forward(model, Tensor::ones({1, 4})), Error);
}

TEST(Conv2d, ShapeAndIdentityKernel) {
  Rng rng(3);
  // 1x1 kernel conv is a per-pixel linear map.
  Sequential model =
      one_layer<Conv2d>(2, 3, /*kernel=*/1, /*stride=*/1, /*pad=*/0, rng);
  Tensor y = forward(model, Tensor::ones({2, 4, 4, 2}));
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 3}));
}

TEST(Conv2d, PaddedSameSize) {
  Rng rng(4);
  Sequential model = one_layer<Conv2d>(1, 4, 5, 1, 2, rng);
  EXPECT_EQ(forward(model, Tensor::ones({1, 12, 12, 1})).shape(),
            (Shape{1, 12, 12, 4}));
}

TEST(Conv2d, MatchesManualConvolution) {
  Rng rng(5);
  Sequential model = one_layer<Conv2d>(1, 1, 2, 1, 0, rng);
  // Kernel [[1,2],[3,4]] flattened in (kh,kw,c) order; bias 0.5.
  model.set_weights({Tensor::from_vector({4, 1}, {1, 2, 3, 4}),
                     Tensor::from_vector({1}, {0.5f})});
  Tensor y = forward(
      model, Tensor::from_vector({1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 1}));
  // Patch (1,2,4,5) . (1,2,3,4) + 0.5 = 1+4+12+20+0.5
  EXPECT_FLOAT_EQ(y.at(0), 37.5f);
  EXPECT_FLOAT_EQ(y.at(3), (5 + 12 + 24 + 36) + 0.5f);
}

TEST(AvgPool2d, Averages) {
  Sequential model = one_layer<AvgPool2d>(2);
  Tensor y = forward(model, Tensor::from_vector({1, 2, 2, 1}, {1, 2, 3, 4}));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
}

TEST(AvgPool2d, PerChannel) {
  Sequential model = one_layer<AvgPool2d>(2);
  // Two channels with distinct values.
  Tensor y = forward(
      model, Tensor::from_vector({1, 2, 2, 2}, {1, 10, 2, 20, 3, 30, 4, 40}));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(1), 25.0f);
}

TEST(Flatten, Shape) {
  Sequential model = one_layer<Flatten>();
  EXPECT_EQ(forward(model, Tensor::ones({2, 3, 4, 5})).shape(),
            (Shape{2, 60}));
}

TEST(InputScale, CentersInput) {
  Sequential model = one_layer<InputScale>(-0.5f, 2.0f);
  Tensor y = forward(model, Tensor::from_vector({1, 2}, {0.0f, 1.0f}));
  EXPECT_FLOAT_EQ(y.at(0), -1.0f);
  EXPECT_FLOAT_EQ(y.at(1), 1.0f);
}

class ActivationTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationTest, ForwardMatchesRawOp) {
  Sequential model = one_layer<ActivationLayer>(GetParam());
  Tensor in = Tensor::from_vector({1, 4}, {-2, -0.5f, 0.5f, 2});
  Tensor y = forward(model, in);
  for (int i = 0; i < 4; ++i) {
    float expect = 0;
    switch (GetParam()) {
      case Activation::kRelu:
        expect = std::max(0.0f, in.at(i));
        break;
      case Activation::kSigmoid:
        expect = 1.0f / (1.0f + std::exp(-in.at(i)));
        break;
      case Activation::kTanh:
        expect = std::tanh(in.at(i));
        break;
    }
    EXPECT_NEAR(y.at(i), expect, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationTest,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(Sequential, LayerGroupsOnlyParameterized) {
  Rng rng(6);
  Sequential model;
  model.emplace<Linear>(4, 3, rng);
  model.emplace<ActivationLayer>(Activation::kRelu);
  model.emplace<Linear>(3, 2, rng);
  EXPECT_EQ(model.layer_count(), 3u);
  EXPECT_EQ(model.parameter_count(), 4u);  // 2 weights + 2 biases
  ASSERT_EQ(model.layer_groups().size(), 2u);
  EXPECT_EQ(model.layer_groups()[0].param_indices,
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(model.layer_groups()[1].param_indices,
            (std::vector<std::size_t>{2, 3}));
}

TEST(Sequential, WeightsRoundTrip) {
  Rng rng(7);
  Sequential model;
  model.emplace<Linear>(2, 3, rng);
  TensorList w = model.weights();
  w[0].fill_(3.0f);
  model.set_weights(w);
  EXPECT_FLOAT_EQ(model.parameters()[0].at(0), 3.0f);
  // weights() returns copies: mutating them later is inert, and so is
  // mutating the list set_weights installed.
  TensorList w2 = model.weights();
  w2[0].fill_(9.0f);
  w[0].fill_(7.0f);
  EXPECT_FLOAT_EQ(model.parameters()[0].at(0), 3.0f);
  w2.pop_back();
  EXPECT_THROW(model.set_weights(w2), Error);
  // The right count with the weight transposed: every numel matches,
  // the shape does not, and the model keeps its weights.
  TensorList transposed = model.weights();
  transposed[0] = Tensor::full({3, 2}, 5.0f);
  EXPECT_THROW(model.set_weights(transposed), Error);
  EXPECT_EQ(model.parameters()[0].shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(model.parameters()[0].at(0), 3.0f);
}

TEST(Sequential, RefusesALayerAlreadyInAModel) {
  // The first model owns the layer's parameters; a second model holding
  // the same layer would have none to run it with.
  Rng rng(9);
  auto layer = std::make_shared<Linear>(3, 2, rng);
  Sequential first;
  first.add(layer);
  EXPECT_EQ(first.parameter_count(), 2u);
  Sequential second;
  EXPECT_THROW(second.add(layer), Error);
}

TEST(Sequential, EmptyForwardThrows) {
  Sequential model;
  EXPECT_THROW(forward(model, Tensor::ones({1, 2})), Error);
}

TEST(Loss, CrossEntropyUniformLogits) {
  // Uniform logits: loss == log(C) regardless of labels.
  Var logits(Tensor::zeros({4, 10}), false);
  Var loss = softmax_cross_entropy(logits, {0, 3, 7, 9});
  EXPECT_NEAR(loss.value().item(), std::log(10.0f), 1e-5);
}

TEST(Loss, CrossEntropyConfidentCorrect) {
  Tensor t = Tensor::zeros({1, 3});
  t.at(1) = 50.0f;  // near-one-hot on class 1
  Var loss = softmax_cross_entropy(Var(t, false), {1});
  EXPECT_NEAR(loss.value().item(), 0.0f, 1e-4);
}

TEST(Loss, CrossEntropyGradcheck) {
  Rng rng(8);
  Tensor logits = Tensor::randn({3, 5}, rng);
  std::vector<std::int64_t> labels{4, 0, 2};
  expect_gradcheck(
      [&labels](const std::vector<Var>& v) {
        return softmax_cross_entropy(v[0], labels);
      },
      {logits});
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(9);
  Tensor logits = Tensor::randn({4, 6}, rng, 0.0f, 3.0f);
  Tensor probs = softmax(logits);
  for (int r = 0; r < 4; ++r) {
    double s = 0;
    for (int c = 0; c < 6; ++c) s += probs.at(r * 6 + c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Loss, PredictAndAccuracy) {
  Tensor logits = Tensor::from_vector({2, 3}, {0, 5, 1, 9, 2, 3});
  EXPECT_EQ(predict(logits), (std::vector<std::int64_t>{1, 0}));
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 2}), 0.5);
}

TEST(Optimizer, PlainSgdStep) {
  Rng rng(10);
  Sequential model;
  model.emplace<Linear>(2, 1, rng);
  Tensor before = model.parameters()[0].clone();
  TensorList grads = {Tensor::ones({2, 1}), Tensor::ones({1})};
  SgdOptimizer opt(0.5);
  opt.step(model, grads);
  EXPECT_FLOAT_EQ(model.parameters()[0].at(0), before.at(0) - 0.5f);
  EXPECT_THROW(SgdOptimizer(0.0), Error);
}

TEST(Optimizer, ShapeMismatchThrows) {
  Rng rng(12);
  Sequential model;
  model.emplace<Linear>(2, 1, rng);
  TensorList bad = {Tensor::ones({3, 1}), Tensor::ones({1})};
  SgdOptimizer opt(0.1);
  EXPECT_THROW(opt.step(model, bad), Error);
}

TEST(ModelZoo, ImageCnnStructure) {
  Rng rng(13);
  ModelSpec spec{.kind = ModelSpec::Kind::kImageCnn,
                 .height = 12,
                 .width = 12,
                 .channels = 1,
                 .classes = 10};
  auto model = build_image_cnn(spec, rng);
  // Paper architecture: 2 conv + 1 fc = 3 clip groups (M layers).
  EXPECT_EQ(model->layer_groups().size(), 3u);
  EXPECT_EQ(forward(*model, Tensor::ones({2, 12, 12, 1})).shape(),
            (Shape{2, 10}));
}

TEST(ModelZoo, MlpStructure) {
  Rng rng(14);
  ModelSpec spec{.kind = ModelSpec::Kind::kMlp,
                 .in_features = 30,
                 .classes = 2};
  auto model = build_mlp(spec, rng);
  // Two hidden layers + classifier = 3 clip groups.
  EXPECT_EQ(model->layer_groups().size(), 3u);
  EXPECT_EQ(forward(*model, Tensor::ones({4, 30})).shape(), (Shape{4, 2}));
}

TEST(ModelZoo, RejectsBadDimensions) {
  Rng rng(15);
  ModelSpec spec{.kind = ModelSpec::Kind::kImageCnn,
                 .height = 10,  // not divisible by 4
                 .width = 12,
                 .channels = 1,
                 .classes = 10};
  EXPECT_THROW(build_image_cnn(spec, rng), Error);
}

TEST(ModelZoo, DispatchMatchesKind) {
  Rng rng(16);
  ModelSpec mlp{.kind = ModelSpec::Kind::kMlp, .in_features = 5, .classes = 3};
  EXPECT_EQ(mlp.input_numel(), 5);
  ModelSpec cnn{.kind = ModelSpec::Kind::kImageCnn,
                .height = 8,
                .width = 8,
                .channels = 3,
                .classes = 2};
  EXPECT_EQ(cnn.input_numel(), 192);
  EXPECT_NE(build_model(mlp, rng), nullptr);
  EXPECT_NE(build_model(cnn, rng), nullptr);
}

TEST(GradUtils, ComputeGradientsMatchesAutodiff) {
  Rng rng(17);
  Sequential model;
  model.emplace<Linear>(3, 2, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  std::vector<std::int64_t> labels{0, 1, 0, 1};
  double loss = 0;
  TensorList grads = compute_gradients(model, x, labels, &loss);
  EXPECT_EQ(grads.size(), 2u);
  EXPECT_GT(loss, 0.0);

  // Cross-check against the autograd oracle.
  std::vector<Var> gvars =
      compute_gradient_vars(model, Var(x, false), labels);
  ASSERT_EQ(gvars.size(), 2u);
  EXPECT_TRUE(tensor::allclose(grads[0], gvars[0].value()));
  EXPECT_TRUE(tensor::allclose(grads[1], gvars[1].value()));
}

TEST(GradUtils, EvaluateAccuracyBatched) {
  Rng rng(18);
  Sequential model;
  model.emplace<Linear>(2, 2, rng);
  // Weights mapping x0>x1 -> class 0.
  model.set_weights(
      {Tensor::from_vector({2, 2}, {1, -1, -1, 1}), Tensor::zeros({2})});
  Tensor x = Tensor::from_vector({3, 2}, {2, 0, 0, 2, 3, 1});
  std::vector<std::int64_t> labels{0, 1, 0};
  EXPECT_DOUBLE_EQ(evaluate_accuracy(model, x, labels, /*batch=*/2), 1.0);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(model, x, {1, 0, 1}, 2), 0.0);
}

TEST(Training, MlpLearnsSeparableTask) {
  // End-to-end sanity: a tiny MLP fits a linearly separable problem.
  Rng rng(19);
  ModelSpec spec{.kind = ModelSpec::Kind::kMlp,
                 .in_features = 4,
                 .classes = 2,
                 .hidden1 = 8,
                 .hidden2 = 8};
  auto model = build_mlp(spec, rng);
  SgdOptimizer opt(0.3);
  Rng drng(20);
  // Class = sign of the first coordinate.
  const int n = 64;
  Tensor x = Tensor::randn({n, 4}, drng);
  std::vector<std::int64_t> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = x.at(i * 4) > 0 ? 1 : 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    TensorList g = compute_gradients(*model, x, labels);
    opt.step(*model, g);
  }
  EXPECT_GT(evaluate_accuracy(*model, x, labels), 0.95);
}

TEST(Training, CnnGradientsFlowThroughAllLayers) {
  Rng rng(21);
  ModelSpec spec{.kind = ModelSpec::Kind::kImageCnn,
                 .height = 8,
                 .width = 8,
                 .channels = 1,
                 .classes = 4,
                 .conv1_channels = 4,
                 .conv2_channels = 4};
  auto model = build_image_cnn(spec, rng);
  Tensor x = Tensor::uniform({2, 8, 8, 1}, rng);
  TensorList g = compute_gradients(*model, x, {0, 3});
  for (const auto& t : g) {
    EXPECT_GT(t.l2_norm(), 0.0f) << "dead gradient";
  }
}

}  // namespace
}  // namespace fedcl::nn
