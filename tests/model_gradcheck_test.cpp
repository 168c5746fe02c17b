// Finite-difference gradient checks over every model_zoo architecture
// and layer type, run against BOTH gradient paths: the autograd batch
// gradient (compute_gradients_reference, which the tape's batch
// reduction matches bit for bit) and the per-example reduction's mean
// gradient. This is the safety harness that gates kernel
// optimizations — a wrong matmul/im2col/pool kernel shows up here as a
// mismatch against central differences of the loss itself.
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
