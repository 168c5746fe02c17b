#include <gtest/gtest.h>


#include "common/error.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "testing/gradcheck.h"

namespace fedcl::tensor {
namespace {

namespace o = ops;
using fedcl::testing::expect_gradcheck;
using nn::Var;

TEST(GatherScatter, ForwardAndAdjoint) {
  Var x(Tensor::from_vector({4}, {10, 20, 30, 40}), true);
  Var g = o::gather_flat(x, {3, 0, 3});
  EXPECT_FLOAT_EQ(g.value().at(0), 40.0f);
  EXPECT_FLOAT_EQ(g.value().at(1), 10.0f);
  // Backward of gather accumulates over repeated indices.
  Gradients grads = backward(o::sum_all(g));
  Tensor gx = grads.of(x).value();
  EXPECT_FLOAT_EQ(gx.at(0), 1.0f);
  EXPECT_FLOAT_EQ(gx.at(3), 2.0f);
  EXPECT_FLOAT_EQ(gx.at(1), 0.0f);
}

TEST(GatherScatter, ScatterAddsAndValidates) {
  Var s(Tensor::from_vector({3}, {1, 2, 3}), true);
  Var out = o::scatter_flat(s, {1, 1, 0}, {2, 2});
  EXPECT_FLOAT_EQ(out.value().at(0), 3.0f);
  EXPECT_FLOAT_EQ(out.value().at(1), 3.0f);  // 1 + 2 accumulated
  Gradients grads = backward(o::sum_all(o::square(out)));
  EXPECT_TRUE(grads.contains(s));
  EXPECT_THROW(o::gather_flat(s, {5}), fedcl::Error);
}

TEST(GatherScatter, Gradcheck) {
  Rng rng(2);
  Tensor x = Tensor::randn({6}, rng);
  std::vector<std::int64_t> idx{0, 5, 2, 2};
  expect_gradcheck(
      [&idx](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::gather_flat(v[0], idx)));
      },
      {x});
}

}  // namespace
}  // namespace fedcl::tensor

namespace fedcl::nn {
namespace {

namespace o = tensor::ops;
using tensor::Shape;
using tensor::Tensor;
using fedcl::testing::expect_gradcheck;

TEST(MaxPool2d, SelectsMaxPerChannel) {
  MaxPool2d pool(2);
  Var x(Tensor::from_vector({1, 2, 2, 2}, {1, 10, 5, 2, 3, 30, 4, 6}),
        false);
  Tensor y = pool.forward(x).value();
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 5.0f);   // channel 0: max(1,5,3,4)
  EXPECT_FLOAT_EQ(y.at(1), 30.0f);  // channel 1: max(10,2,30,6)
}

TEST(MaxPool2d, GradientRoutesToArgmax) {
  MaxPool2d pool(2);
  Var x(Tensor::from_vector({1, 2, 2, 1}, {1, 7, 3, 2}), true);
  Var y = pool.forward(x);
  tensor::Gradients g = tensor::backward(o::sum_all(y));
  Tensor gx = g.of(x).value();
  EXPECT_FLOAT_EQ(gx.at(1), 1.0f);  // only the max cell gets gradient
  EXPECT_FLOAT_EQ(gx.at(0), 0.0f);
  EXPECT_FLOAT_EQ(gx.at(2), 0.0f);
}

TEST(MaxPool2d, GradcheckAwayFromTies) {
  Rng rng(3);
  Tensor x = Tensor::randn({2, 4, 4, 2}, rng);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        MaxPool2d pool(2);
        return o::sum_all(o::square(pool.forward(v[0])));
      },
      {x});
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5, /*seed=*/1);
  drop.set_training(false);
  Var x(Tensor::ones({100}), false);
  EXPECT_TRUE(tensor::allclose(drop.forward(x).value(), x.value()));
}

TEST(Dropout, TrainModeZeroesAboutPAndRescales) {
  Dropout drop(0.5, 2);
  Var x(Tensor::ones({4000}), false);
  Tensor y = drop.forward(x).value();
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // 1/(1-0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_THROW(Dropout(1.0, 0), fedcl::Error);
}

TEST(Dropout, SequentialPropagatesMode) {
  Sequential model;
  auto drop = std::make_shared<Dropout>(0.9, 3);
  model.add(drop);
  EXPECT_TRUE(model.training());
  model.set_training(false);
  EXPECT_FALSE(drop->training());
  EXPECT_FALSE(model.training());
}

}  // namespace
}  // namespace fedcl::nn
