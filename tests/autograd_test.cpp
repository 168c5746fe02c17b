#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "testing/autograd.h"
#include "testing/ops.h"
#include "testing/gradcheck.h"

namespace fedcl::tensor {
namespace {

namespace o = ops;
using fedcl::testing::expect_gradcheck;

TEST(Var, LeafBasics) {
  Var v(Tensor::ones({2, 2}), true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_TRUE(v.is_leaf());
  Var undef;
  EXPECT_FALSE(undef.defined());
}

TEST(Var, SetValueOnLeafOnly) {
  Var v(Tensor::ones({2}), true);
  v.set_value(Tensor::from_vector({2}, {3, 4}));
  EXPECT_EQ(v.value().at(1), 4.0f);
  EXPECT_THROW(v.set_value(Tensor::ones({3})), Error);
  Var w = o::add(v, v);
  EXPECT_THROW(w.set_value(Tensor::ones({2})), Error);
}

TEST(Var, GradModeTruncatesGraph) {
  Var v(Tensor::ones({2}), true);
  {
    GradModeGuard guard(false);
    Var w = o::mul_scalar(v, 2.0f);
    EXPECT_FALSE(w.requires_grad());
    EXPECT_TRUE(w.is_leaf());
  }
  Var w2 = o::mul_scalar(v, 2.0f);
  EXPECT_TRUE(w2.requires_grad());
}

TEST(Backward, SimpleChain) {
  // f = sum(2x + 3) -> df/dx = 2.
  Var x(Tensor::from_vector({3}, {1, 2, 3}), true);
  Var f = o::sum_all(o::add_scalar(o::mul_scalar(x, 2.0f), 3.0f));
  Gradients g = backward(f);
  Tensor gx = g.of(x).value();
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(gx.at(i), 2.0f);
}

TEST(Backward, RequiresScalarRoot) {
  Var x(Tensor::ones({2}), true);
  EXPECT_THROW(backward(o::mul_scalar(x, 2.0f)), Error);
  Var c(Tensor::scalar(1.0f), false);
  EXPECT_THROW(backward(c), Error);
}

TEST(Backward, SharedParentAccumulates) {
  // f = sum(x * x) -> 2x (x used twice by mul).
  Var x(Tensor::from_vector({2}, {3, -4}), true);
  Gradients g = backward(o::sum_all(o::mul(x, x)));
  EXPECT_FLOAT_EQ(g.of(x).value().at(0), 6.0f);
  EXPECT_FLOAT_EQ(g.of(x).value().at(1), -8.0f);
}

TEST(Backward, DiamondGraph) {
  // f = sum((x+x) * x) = sum(2x^2) -> 4x.
  Var x(Tensor::from_vector({2}, {1, 2}), true);
  Var f = o::sum_all(o::mul(o::add(x, x), x));
  Gradients g = backward(f);
  EXPECT_FLOAT_EQ(g.of(x).value().at(0), 4.0f);
  EXPECT_FLOAT_EQ(g.of(x).value().at(1), 8.0f);
}

TEST(Backward, UnreachedVariable) {
  Var x(Tensor::ones({2}), true);
  Var y(Tensor::ones({2}), true);
  Gradients g = backward(o::sum_all(x));
  EXPECT_TRUE(g.contains(x));
  EXPECT_FALSE(g.contains(y));
  EXPECT_THROW(g.of(y), Error);
}

TEST(Backward, ConstantsGetNoGrad) {
  Var x(Tensor::ones({2}), true);
  Var c = o::constant(Tensor::ones({2}));
  Gradients g = backward(o::sum_all(o::mul(x, c)));
  EXPECT_FALSE(g.contains(c));
  EXPECT_FLOAT_EQ(g.of(x).value().at(0), 1.0f);
}

// ---- per-op gradient checks against finite differences ----

TEST(Gradcheck, AddSubMulDiv) {
  Rng rng(10);
  Tensor a = Tensor::uniform({2, 3}, rng, 0.5f, 2.0f);
  Tensor b = Tensor::uniform({2, 3}, rng, 0.5f, 2.0f);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::mul(o::add(v[0], v[1]), o::sub(v[0], v[1])));
      },
      {a, b});
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::div(v[0], v[1])); },
      {a, b});
}

TEST(Gradcheck, UnaryOps) {
  Rng rng(11);
  Tensor a = Tensor::uniform({6}, rng, 0.3f, 1.5f);
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::exp(v[0])); }, {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::log(v[0])); }, {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::sigmoid(v[0])); },
      {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::tanh(v[0])); },
      {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) { return o::sum_all(o::neg(v[0])); }, {a});
}

TEST(Gradcheck, ReluAwayFromKink) {
  Tensor a = Tensor::from_vector({4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::mul(o::relu(v[0]), o::relu(v[0])));
      },
      {a});
}

TEST(Gradcheck, MatmulTranspose) {
  Rng rng(12);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({4, 2}, rng);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::matmul(v[0], v[1])));
      },
      {a, b});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::matmul_tn(v[0], v[0]));
      },
      {a});
}

TEST(Gradcheck, ReductionsAndBroadcasts) {
  Rng rng(13);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor col = Tensor::randn({3, 1}, rng);
  Tensor row = Tensor::randn({4}, rng);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::row_sum(v[0])));
      },
      {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::broadcast_col(v[0], 5)));
      },
      {col});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::col_sum(v[0])));
      },
      {a});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::broadcast_row(v[0], 3)));
      },
      {row});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::add_rowvec(v[0], v[1])));
      },
      {a, row});
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(
            o::square(o::expand_scalar(o::sum_all(v[0]), {2, 2})));
      },
      {a});
}

TEST(Gradcheck, PickScatter) {
  Rng rng(14);
  Tensor x = Tensor::randn({3, 4}, rng);
  std::vector<std::int64_t> idx{1, 3, 0};
  expect_gradcheck(
      [&idx](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::pick(v[0], idx)));
      },
      {x});
  Tensor s = Tensor::randn({3, 1}, rng);
  expect_gradcheck(
      [&idx](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::scatter(v[0], idx, 4)));
      },
      {s});
}

TEST(Gradcheck, Reshape) {
  Rng rng(15);
  Tensor a = Tensor::randn({2, 6}, rng);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return o::sum_all(o::square(o::reshape(v[0], {3, 4})));
      },
      {a});
}

TEST(Gradcheck, Im2colConvPath) {
  Rng rng(16);
  ConvSpec spec{.in_h = 4, .in_w = 4, .in_c = 2, .kernel_h = 3, .kernel_w = 3,
                .stride = 1, .pad = 1};
  Tensor x = Tensor::randn({2, 4, 4, 2}, rng, 0.0f, 0.5f);
  Tensor w = Tensor::randn({spec.patch_size(), 3}, rng, 0.0f, 0.5f);
  expect_gradcheck(
      [&spec](const std::vector<Var>& v) {
        Var cols = o::im2col(v[0], spec);
        Var y = o::matmul(cols, v[1]);
        return o::sum_all(o::square(y));
      },
      {x, w});
}

TEST(Gradcheck, SoftmaxCrossEntropyComposite) {
  Rng rng(17);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<std::int64_t> labels{2, 0, 3};
  expect_gradcheck(
      [&labels](const std::vector<Var>& v) {
        const std::int64_t c = v[0].value().dim(1);
        Var m = o::row_max_detached(v[0]);
        Var z = o::sub(v[0], o::broadcast_col(m, c));
        Var lse = o::log(o::row_sum(o::exp(z)));
        Var logp = o::sub(z, o::broadcast_col(lse, c));
        Var picked = o::pick(logp, labels);
        return o::mul_scalar(o::sum_all(picked), -1.0f / 3.0f);
      },
      {logits});
}

// ---- higher-order gradients ----

TEST(HigherOrder, CubePolynomial) {
  // f = sum(x^3); df/dx = 3x^2; d2f/dx2 (via sum of grads) = 6x.
  Var x(Tensor::from_vector({3}, {1, 2, -3}), true);
  Var f = o::sum_all(o::mul(o::mul(x, x), x));
  Gradients g1 = backward(f, /*create_graph=*/true);
  Var gx = g1.of(x);
  EXPECT_FLOAT_EQ(gx.value().at(1), 12.0f);
  EXPECT_TRUE(gx.requires_grad());
  Gradients g2 = backward(o::sum_all(gx));
  Tensor hx = g2.of(x).value();
  EXPECT_FLOAT_EQ(hx.at(0), 6.0f);
  EXPECT_FLOAT_EQ(hx.at(1), 12.0f);
  EXPECT_FLOAT_EQ(hx.at(2), -18.0f);
}

TEST(HigherOrder, WithoutCreateGraphGradsAreConstant) {
  Var x(Tensor::from_vector({2}, {1, 2}), true);
  Gradients g1 = backward(o::sum_all(o::mul(x, x)));
  EXPECT_FALSE(g1.of(x).requires_grad());
}

TEST(HigherOrder, GradOfGradThroughExp) {
  // f = sum(exp(2x)); f' = 2 e^{2x}; (sum f')' = 4 e^{2x}.
  Var x(Tensor::from_vector({2}, {0.0f, 0.5f}), true);
  Var f = o::sum_all(o::exp(o::mul_scalar(x, 2.0f)));
  Gradients g1 = backward(f, true);
  Gradients g2 = backward(o::sum_all(g1.of(x)));
  EXPECT_NEAR(g2.of(x).value().at(0), 4.0f, 1e-4);
  EXPECT_NEAR(g2.of(x).value().at(1), 4.0f * std::exp(1.0f), 1e-3);
}

TEST(HigherOrder, GradientMatchingObjective) {
  // The attack pattern: match d(loss)/dw computed at x against a target
  // gradient, then differentiate the matching loss w.r.t. x.
  // loss(x, w) = sum((x w)^2) over scalar-ish shapes.
  Var w(Tensor::from_vector({1, 1}, {2.0f}), true);
  auto grad_wrt_w = [&w](const Var& x) {
    Var pred = o::matmul(x, w);  // [1,1]
    Var loss = o::sum_all(o::square(pred));
    Gradients g = backward(loss, true);
    return g.of(w);  // 2 * x^2 * w
  };
  Var x(Tensor::from_vector({1, 1}, {3.0f}), true);
  Var gw = grad_wrt_w(x);
  EXPECT_FLOAT_EQ(gw.value().item(), 36.0f);  // 2*9*2

  Var target = o::constant(Tensor::from_vector({1, 1}, {16.0f}));
  Var match = o::sum_all(o::square(o::sub(gw, target)));
  Gradients gx = backward(match);
  // d/dx (2x^2 w - 16)^2 = 2(2x^2 w - 16) * 4xw = 2*20*24 = 960.
  EXPECT_NEAR(gx.of(x).value().item(), 960.0f, 1e-2);
}

TEST(HigherOrder, SecondOrderMatchesFiniteDifference) {
  // Hessian diagonal of f = sum(sigmoid(x)) via double backward vs FD.
  Rng rng(18);
  Tensor x0 = Tensor::uniform({5}, rng, -1.0f, 1.0f);
  Var x(x0.clone(), true);
  Var f = o::sum_all(o::sigmoid(x));
  Gradients g1 = backward(f, true);
  Gradients g2 = backward(o::sum_all(g1.of(x)));
  Tensor analytic = g2.of(x).value();

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < x0.numel(); ++i) {
    auto grad_sum_at = [&](float delta) {
      Tensor xp = x0.clone();
      xp.at(i) += delta;
      Var xv(xp, true);
      Gradients g = backward(o::sum_all(o::sigmoid(xv)));
      return g.of(xv).value().sum();
    };
    float numeric = (grad_sum_at(eps) - grad_sum_at(-eps)) / (2 * eps);
    EXPECT_NEAR(analytic.at(i), numeric, 5e-3) << "element " << i;
  }
}

TEST(Memory, RepeatedBackwardOnSameLeaf) {
  // Successive graphs over the same leaf must not interfere.
  Var x(Tensor::from_vector({2}, {1, 2}), true);
  for (int iter = 0; iter < 3; ++iter) {
    Var f = o::sum_all(o::mul_scalar(o::mul(x, x), static_cast<float>(iter + 1)));
    Gradients g = backward(f);
    EXPECT_FLOAT_EQ(g.of(x).value().at(0), 2.0f * (iter + 1));
  }
}

}  // namespace
}  // namespace fedcl::tensor
