// Finite-difference gradient checks over every model_zoo architecture
// and layer type, run against BOTH gradient paths: the autograd
// oracle's batch gradient (compute_gradients_reference, which the
// tape's batch reduction matches bit for bit) and the per-example
// reduction's mean gradient. This is the safety harness that gates
// kernel optimizations — a wrong matmul/im2col/pool kernel shows up here
// as a mismatch against central differences of the loss itself. The
// same enumeration checks the attack's forward-over-reverse pass
// (nn::input_grad_of_gradient_dot) against the oracle's double backward
// and against central differences of the gradient-matching objective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "nn/per_example.h"
#include "tensor/tensor.h"
#include "tensor/tensor_list.h"
#include "testing/ops.h"
#include "testing/reference.h"

namespace fedcl {
namespace {

using nn::Sequential;
using tensor::Tensor;
using tensor::list::TensorList;

// (1/B) sum_j example(j): the batch gradient from per-example
// gradients in either form, multiplied out example by example.
TensorList example_mean(const tensor::list::PerExampleGrads& grads) {
  TensorList mean = tensor::list::zeros_like(grads.example(0));
  for (std::int64_t j = 0; j < grads.batch; ++j)
    tensor::list::add_(mean, grads.example(j));
  tensor::list::scale_(mean, 1.0f / static_cast<float>(grads.batch));
  return mean;
}

std::vector<std::int64_t> labels_for(std::int64_t batch,
                                     std::int64_t classes) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::int64_t j = 0; j < batch; ++j)
    labels[static_cast<std::size_t>(j)] = j % classes;
  return labels;
}

// Central finite differences of the mean cross-entropy loss w.r.t.
// every parameter element, compared against both analytic paths.
void expect_model_gradcheck(Sequential& model, const Tensor& x,
                            const std::vector<std::int64_t>& labels,
                            float eps = 1e-2f, float atol = 6e-3f,
                            float rtol = 6e-2f, int max_skip_percent = 5) {
  const TensorList analytic =
      nn::compute_gradients_reference(model, x, labels);
  double engine_loss = 0.0;
  const tensor::list::PerExampleGrads engine =
      nn::compute_per_example_gradients(model, x, labels, &engine_loss);
  const TensorList engine_mean = example_mean(engine);
  ASSERT_EQ(analytic.size(), engine_mean.size());
  ASSERT_EQ(analytic.size(), model.parameter_count());
  // Example by example, the engine's factors (Linear) and rows (Conv)
  // agree with the sliced reference's single-example graphs.
  const tensor::list::PerExampleGrads sliced =
      nn::compute_per_example_gradients_sliced(model, x, labels);
  for (std::int64_t j = 0; j < engine.batch; ++j) {
    const TensorList e = engine.example(j);
    const TensorList r = sliced.example(j);
    for (std::size_t p = 0; p < e.size(); ++p) {
      for (std::int64_t i = 0; i < e[p].numel(); ++i) {
        EXPECT_NEAR(e[p].at(i), r[p].at(i),
                    1e-5 * std::max(1.0f, std::abs(r[p].at(i))))
            << "example " << j << " param " << p << " element " << i;
      }
    }
  }

  const TensorList saved = model.weights();
  auto loss_at = [&](const TensorList& w) {
    model.set_weights(w);
    double loss = 0.0;
    nn::compute_gradients_reference(model, x, labels, &loss);
    return loss;
  };
  std::int64_t total = 0, skipped = 0;
  for (std::size_t p = 0; p < saved.size(); ++p) {
    for (std::int64_t i = 0; i < saved[p].numel(); ++i) {
      ++total;
      TensorList w = tensor::list::clone(saved);
      const float orig = w[p].at(i);
      auto central_diff = [&](float h) {
        w[p].at(i) = orig + h;
        const double up = loss_at(w);
        w[p].at(i) = orig - h;
        const double down = loss_at(w);
        w[p].at(i) = orig;
        return static_cast<float>((up - down) / (2.0 * static_cast<double>(h)));
      };
      // Two step sizes: for a smooth loss the estimates agree (central
      // differences converge at O(h^2)); where they disagree the
      // element sits on a kink (a relu boundary) and finite
      // differences say nothing — skip it, but bound how many
      // elements may take that exit.
      const float coarse = central_diff(eps);
      const float numeric = central_diff(eps / 4.0f);
      const float tol = atol + rtol * std::abs(numeric);
      if (std::abs(coarse - numeric) > tol / 2.0f) {
        ++skipped;
        continue;
      }
      EXPECT_NEAR(analytic[p].at(i), numeric, tol)
          << "autograd: param " << p << " element " << i;
      EXPECT_NEAR(engine_mean[p].at(i), numeric, tol)
          << "per-example engine: param " << p << " element " << i;
    }
  }
  // The kink exit cannot mask a wrong kernel (skips depend only on the
  // FD estimates, never on the analytic values), but bound it anyway so
  // the check cannot silently degenerate to covering nothing.
  EXPECT_LE(skipped * 100, total * max_skip_percent)
      << "too many non-smooth elements skipped (" << skipped << "/" << total
      << ")";
  model.set_weights(saved);
}

nn::ModelSpec mlp_spec(nn::Activation act) {
  nn::ModelSpec spec;
  spec.kind = nn::ModelSpec::Kind::kMlp;
  spec.in_features = 6;
  spec.classes = 3;
  spec.hidden1 = 5;
  spec.hidden2 = 4;
  spec.activation = act;
  return spec;
}

nn::ModelSpec cnn_spec(nn::Activation act) {
  nn::ModelSpec spec;
  spec.kind = nn::ModelSpec::Kind::kImageCnn;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 1;
  spec.classes = 3;
  spec.conv1_channels = 2;
  spec.conv2_channels = 3;
  spec.activation = act;
  return spec;
}

TEST(ModelGradCheck, MlpAllActivations) {
  for (nn::Activation act :
       {nn::Activation::kRelu, nn::Activation::kTanh,
        nn::Activation::kSigmoid}) {
    Rng rng(11 + static_cast<std::uint64_t>(act));
    auto model = nn::build_model(mlp_spec(act), rng);
    const std::int64_t batch = 3;
    const Tensor x = Tensor::randn({batch, 6}, rng);
    expect_model_gradcheck(*model, x, labels_for(batch, 3));
  }
}

TEST(ModelGradCheck, ImageCnnReluAndTanh) {
  // Conv2d + AvgPool2d + Flatten + Linear, the paper's image model.
  for (nn::Activation act : {nn::Activation::kRelu, nn::Activation::kTanh}) {
    Rng rng(23 + static_cast<std::uint64_t>(act));
    auto model = nn::build_model(cnn_spec(act), rng);
    const std::int64_t batch = 2;
    const Tensor x = Tensor::randn({batch, 8, 8, 1}, rng);
    // Every conv1 weight feeds 64 positions x 2 images worth of relu
    // pre-activations, so perturbations frequently cross a kink; allow
    // a larger (but still bounded) non-smooth fraction for relu.
    const int max_skip_percent = act == nn::Activation::kRelu ? 25 : 5;
    expect_model_gradcheck(*model, x, labels_for(batch, 3), 1e-2f, 6e-3f,
                           6e-2f, max_skip_percent);
  }
}

// ---- the attack's forward-over-reverse pass ----

// What the attack matches: an observed gradient g* and, for a sparse
// observation, the 0/1 mask of its observed coordinates (empty when
// dense). F(x) = sum_i ||mask_i * (g_i(x) - g*_i)||^2.
struct Matching {
  TensorList observed;
  TensorList masks;
};

// v = 2 mask * (g - g*), adding F into *f.
TensorList matching_direction(const TensorList& g, const Matching& m,
                              double* f) {
  TensorList v;
  for (std::size_t i = 0; i < g.size(); ++i) {
    Tensor vi(g[i].shape());
    for (std::int64_t e = 0; e < vi.numel(); ++e) {
      float diff = g[i].at(e) - m.observed[i].at(e);
      if (!m.masks.empty()) diff *= m.masks[i].at(e);
      *f += static_cast<double>(diff) * diff;
      vi.at(e) = 2.0f * diff;
    }
    v.push_back(std::move(vi));
  }
  return v;
}

Tensor pass_input_grad(const Sequential& model, const Tensor& x,
                       const std::vector<std::int64_t>& labels,
                       const Matching& m) {
  double f = 0.0;
  return nn::input_grad_of_gradient_dot(
      model, x, labels,
      [&](const TensorList& g) { return matching_direction(g, m, &f); });
}

// The oracle: F as a graph over the gradient graphs, then one more
// backward to x.
Tensor oracle_input_grad(const Sequential& model, const Tensor& x,
                         const std::vector<std::int64_t>& labels,
                         const Matching& m) {
  namespace o = tensor::ops;
  const tensor::Var xv(x.clone(), /*requires_grad=*/true);
  const std::vector<tensor::Var> g = nn::compute_gradient_vars(model, xv, labels);
  tensor::Var f;
  for (std::size_t i = 0; i < g.size(); ++i) {
    tensor::Var diff = o::sub(g[i], o::constant(m.observed[i]));
    if (!m.masks.empty()) diff = o::mul(diff, o::constant(m.masks[i]));
    const tensor::Var term = o::l2_norm_squared(diff);
    f = f.defined() ? o::add(f, term) : term;
  }
  return tensor::backward(f).of(xv).value();
}

double matching_objective(const Sequential& model, const Tensor& x,
                          const std::vector<std::int64_t>& labels,
                          const Matching& m) {
  double f = 0.0;
  matching_direction(nn::compute_gradients(model, x, labels), m, &f);
  return f;
}

struct PassCase {
  std::string name;
  nn::ModelSpec spec;
  std::int64_t batch;
  bool masked;
};

// Every zoo architecture and activation at B in {1, 3}, matching a dense
// and a masked observation.
std::vector<PassCase> pass_cases() {
  std::vector<PassCase> out;
  for (const bool cnn : {false, true}) {
    for (const nn::Activation act :
         {nn::Activation::kRelu, nn::Activation::kSigmoid,
          nn::Activation::kTanh}) {
      for (const std::int64_t batch : {1, 3}) {
        for (const bool masked : {false, true}) {
          out.push_back({std::string(cnn ? "cnn " : "mlp ") +
                             nn::activation_name(act) +
                             " B=" + std::to_string(batch) +
                             (masked ? " masked" : " dense"),
                         cnn ? cnn_spec(act) : mlp_spec(act), batch, masked});
        }
      }
    }
  }
  return out;
}

Tensor pass_input(const nn::ModelSpec& spec, std::int64_t batch, Rng& rng) {
  if (spec.kind == nn::ModelSpec::Kind::kImageCnn)
    return Tensor::uniform({batch, spec.height, spec.width, spec.channels},
                           rng);
  return Tensor::randn({batch, spec.in_features}, rng);
}

// The observed gradient of a second input; masked, every third
// coordinate unobserved.
Matching make_matching(const Sequential& model, const nn::ModelSpec& spec,
                       std::int64_t batch,
                       const std::vector<std::int64_t>& labels, bool masked,
                       Rng& rng) {
  Matching m;
  m.observed = nn::compute_gradients(model, pass_input(spec, batch, rng),
                                     labels);
  if (masked) {
    for (Tensor& g : m.observed) {
      Tensor mask = Tensor::ones(g.shape());
      for (std::int64_t e = 0; e < g.numel(); e += 3) {
        g.at(e) = 0.0f;
        mask.at(e) = 0.0f;
      }
      m.masks.push_back(std::move(mask));
    }
  }
  return m;
}

TEST(ModelGradCheck, GradientDotInputGradMatchesOracle) {
  std::uint64_t seed = 500;
  for (const PassCase& c : pass_cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(++seed);
    auto model = nn::build_model(c.spec, rng);
    const std::vector<std::int64_t> labels =
        labels_for(c.batch, c.spec.classes);
    const Tensor x = pass_input(c.spec, c.batch, rng);
    const Matching m =
        make_matching(*model, c.spec, c.batch, labels, c.masked, rng);
    const Tensor got = pass_input_grad(*model, x, labels, m);
    const Tensor want = oracle_input_grad(*model, x, labels, m);
    ASSERT_EQ(got.shape(), want.shape());
    float scale = 0.0f;
    for (std::int64_t i = 0; i < want.numel(); ++i)
      scale = std::max(scale, std::abs(want.at(i)));
    ASSERT_GT(scale, 0.0f);
    for (std::int64_t i = 0; i < want.numel(); ++i) {
      EXPECT_NEAR(got.at(i), want.at(i), 1e-4f * scale) << "element " << i;
    }
  }
}

TEST(ModelGradCheck, GradientDotInputGradMatchesCentralDifferences) {
  std::uint64_t seed = 700;
  for (const PassCase& c : pass_cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(++seed);
    auto model = nn::build_model(c.spec, rng);
    const std::vector<std::int64_t> labels =
        labels_for(c.batch, c.spec.classes);
    const Tensor x = pass_input(c.spec, c.batch, rng);
    const Matching m =
        make_matching(*model, c.spec, c.batch, labels, c.masked, rng);
    const Tensor analytic = pass_input_grad(*model, x, labels, m);
    const bool relu = c.spec.activation == nn::Activation::kRelu;
    float scale = 0.0f;
    for (std::int64_t i = 0; i < analytic.numel(); ++i)
      scale = std::max(scale, std::abs(analytic.at(i)));
    ASSERT_GT(scale, 0.0f);
    std::int64_t skipped = 0;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      Tensor xp = x.clone();
      auto central_diff = [&](float h) {
        xp.at(i) = x.at(i) + h;
        const double up = matching_objective(*model, xp, labels, m);
        xp.at(i) = x.at(i) - h;
        const double down = matching_objective(*model, xp, labels, m);
        xp.at(i) = x.at(i);
        return static_cast<float>((up - down) / (2.0 * h));
      };
      // As in expect_model_gradcheck: where two step sizes disagree the
      // element sits near a relu kink, where the gradient itself jumps,
      // and is skipped, a bounded number of times (a hidden unit near
      // its kink takes every input of its example with it). The skips
      // depend only on the differences, never on the pass's values.
      // Relu takes smaller steps, which cross fewer kinks.
      const float h = relu ? 2e-3f : 2e-2f;
      const float coarse = central_diff(h);
      const float numeric = central_diff(h / 4.0f);
      const float tol = 2e-2f * scale + 5e-2f * std::abs(numeric);
      if (std::abs(coarse - numeric) > tol / 2.0f) {
        ++skipped;
        continue;
      }
      EXPECT_NEAR(analytic.at(i), numeric, tol) << "element " << i;
    }
    EXPECT_LE(skipped * 100, x.numel() * (relu ? 30 : 5))
        << skipped << " of " << x.numel() << " elements skipped";
  }
}

TEST(ModelGradCheck, SlicedEngineAgreesToo) {
  // The sliced reference engine goes through the same check on one
  // architecture, pinning all three gradient paths to the same truth.
  Rng rng(47);
  auto model = nn::build_model(mlp_spec(nn::Activation::kTanh), rng);
  const std::int64_t batch = 2;
  const Tensor x = Tensor::randn({batch, 6}, rng);
  const std::vector<std::int64_t> labels = labels_for(batch, 3);
  const TensorList analytic =
      nn::compute_gradients_reference(*model, x, labels);
  const TensorList sliced_mean = example_mean(
      nn::compute_per_example_gradients_sliced(*model, x, labels, nullptr));
  ASSERT_EQ(analytic.size(), sliced_mean.size());
  for (std::size_t p = 0; p < analytic.size(); ++p) {
    for (std::int64_t i = 0; i < analytic[p].numel(); ++i) {
      EXPECT_NEAR(analytic[p].at(i), sliced_mean[p].at(i), 1e-5)
          << "param " << p << " element " << i;
    }
  }
}

}  // namespace
}  // namespace fedcl
