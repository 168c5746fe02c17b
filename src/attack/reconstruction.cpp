#include "attack/reconstruction.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nn/per_example.h"

namespace fedcl::attack {

namespace {

// Success threshold on the reconstruction distance (root mean square
// deviation between x_rec and x). Calibrated so the paper's qualitative
// outcomes reproduce: non-private attacks land well below it,
// DP-protected attacks well above.
constexpr double kSuccessDistance = 0.25;
// The success condition is checked every this many attack iterations.
constexpr int kCheckEvery = 5;

}  // namespace

GradientReconstructionAttack::GradientReconstructionAttack(
    std::shared_ptr<nn::Sequential> model, AttackConfig config)
    : model_(std::move(model)), config_(config) {
  FEDCL_CHECK(model_ != nullptr);
  FEDCL_CHECK_GT(config_.max_iterations, 0);
}

AttackResult GradientReconstructionAttack::run(
    const TensorList& observed_gradient, const tensor::Shape& input_shape,
    const std::vector<std::int64_t>& labels,
    const Tensor& ground_truth) const {
  const std::vector<Tensor>& params = model_->parameters();
  FEDCL_CHECK_EQ(observed_gradient.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    FEDCL_CHECK(observed_gradient[i].shape() == params[i].shape())
        << "observed gradient " << i << " has shape "
        << tensor::shape_str(observed_gradient[i].shape())
        << ", the parameter " << tensor::shape_str(params[i].shape());
  }
  FEDCL_CHECK_EQ(tensor::shape_numel(input_shape), ground_truth.numel());
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), input_shape[0]);

  Rng rng(config_.seed);
  Tensor seed = make_attack_seed(input_shape, config_.seed_init, rng);
  std::vector<float> truth = ground_truth.to_vector();

  // Treat exactly-zero coordinates of the observed gradient as
  // *unobserved* and exclude them from the matching loss. This is how
  // the CPL attack handles selective sharing (DSSGD) and compressed
  // updates: pruned coordinates carry no constraint. Harmless for dense
  // observations (noise makes exact zeros vanishingly rare).
  TensorList masks;
  masks.reserve(observed_gradient.size());
  bool any_zero = false;
  for (const Tensor& g : observed_gradient) {
    Tensor mask(g.shape());
    const float* src = g.data();
    float* dst = mask.data();
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      dst[i] = src[i] != 0.0f ? 1.0f : 0.0f;
      any_zero = any_zero || src[i] == 0.0f;
    }
    masks.push_back(std::move(mask));
  }
  if (!any_zero) masks.clear();  // dense observation: skip the muls

  // Gradient-matching objective F = sum_i ||mask_i * (g_i(x) - g*_i)||^2
  // and its input gradient grad_x <g(x), v> at v = 2 mask * (g - g*),
  // from one forward-over-reverse pass on the tape.
  auto objective = [&](const std::vector<double>& x,
                       std::vector<double>& grad_out) -> double {
    Tensor xt(input_shape);
    for (std::int64_t i = 0; i < xt.numel(); ++i) {
      xt.at(i) = static_cast<float>(x[static_cast<std::size_t>(i)]);
    }
    double loss = 0.0;
    const Tensor gx = nn::input_grad_of_gradient_dot(
        *model_, xt, labels, [&](const TensorList& g) {
          TensorList v;
          v.reserve(g.size());
          for (std::size_t i = 0; i < g.size(); ++i) {
            Tensor vi(g[i].shape());
            const float* dummy = g[i].data();
            const float* seen = observed_gradient[i].data();
            const float* mask = masks.empty() ? nullptr : masks[i].data();
            float* out = vi.data();
            for (std::int64_t e = 0; e < vi.numel(); ++e) {
              float diff = dummy[e] - seen[e];
              if (mask != nullptr) diff *= mask[e];
              loss += static_cast<double>(diff) * diff;
              out[e] = 2.0f * diff;
            }
            v.push_back(std::move(vi));
          }
          return v;
        });
    grad_out.resize(static_cast<std::size_t>(gx.numel()));
    for (std::int64_t i = 0; i < gx.numel(); ++i) {
      grad_out[static_cast<std::size_t>(i)] = gx.at(i);
    }
    return loss;
  };

  // The adversary knows the valid input range and projects the
  // reconstruction into it before scoring (pixels live in [0,1]).
  auto project = [](double v) {
    return std::clamp(static_cast<float>(v), 0.0f, 1.0f);
  };
  auto distance_of = [&](const std::vector<double>& x) {
    std::vector<float> xf(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) xf[i] = project(x[i]);
    return rmse(xf, truth);
  };

  std::vector<double> x(static_cast<std::size_t>(seed.numel()));
  for (std::int64_t i = 0; i < seed.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = seed.at(i);
  }

  AttackResult result;
  LbfgsOptions opts = config_.lbfgs;
  opts.max_iterations = config_.max_iterations;
  int success_iteration = 0;
  // The attack keeps optimizing to convergence (the adversary cannot
  // measure the true distance); we record the first iteration at which
  // the reconstruction crossed the success threshold — the paper's
  // "#attack iterations to succeed".
  auto callback = [&](int iteration, const std::vector<double>& cur,
                      double /*loss*/) {
    if (success_iteration == 0 && iteration % kCheckEvery == 0 &&
        distance_of(cur) < kSuccessDistance) {
      success_iteration = iteration;
    }
    return false;
  };

  LbfgsResult lr = lbfgs_minimize(x, objective, opts, callback);

  result.reconstruction_distance = distance_of(x);
  result.success = success_iteration > 0 ||
                   result.reconstruction_distance < kSuccessDistance;
  // Paper convention: failed attacks are charged the full budget T.
  result.iterations =
      result.success
          ? (success_iteration > 0 ? success_iteration : lr.iterations)
          : config_.max_iterations;
  result.final_gradient_loss = lr.final_loss;
  Tensor rec(input_shape);
  for (std::int64_t i = 0; i < rec.numel(); ++i) {
    rec.at(i) = project(x[static_cast<std::size_t>(i)]);
  }
  result.reconstruction = std::move(rec);
  result.ground_truth = ground_truth.clone().reshape(input_shape);
  return result;
}

}  // namespace fedcl::attack
