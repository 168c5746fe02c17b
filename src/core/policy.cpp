#include "core/policy.h"

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "dp/fused_sanitize.h"

namespace fedcl::core {

namespace {

// Folds one sanitize call's clip decisions into the global telemetry
// counters. Pure counter arithmetic — never touches the RNG — so
// telemetry cannot perturb the policies' noise streams.
void count_clipped_groups(const std::string& policy,
                          const std::vector<double>& norms, double bound) {
  std::int64_t clipped = 0;
  for (double norm : norms) {
    if (norm > bound) ++clipped;
  }
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", policy}};
  registry.counter("dp.clip.groups_total", labels)
      .add(static_cast<std::int64_t>(norms.size()));
  registry.counter("dp.clip.groups_clipped_total", labels).add(clipped);
}

}  // namespace

void PrivacyPolicy::sanitize_per_example(TensorList&, const ParamGroups&,
                                         std::int64_t, Rng&) const {}

void PrivacyPolicy::sanitize_per_example_batch(
    tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    std::int64_t round, Rng& rng) const {
  // Generic fallback: round-trip each example through the per-example
  // hook. Subclasses with a hot batched path override this.
  for (std::int64_t j = 0; j < grads.batch; ++j) {
    TensorList grad = grads.example(j);
    sanitize_per_example(grad, groups, round, rng);
    grads.set_example(j, grad);
  }
}

void PrivacyPolicy::sanitize_client_update(TensorList&, const ParamGroups&,
                                           std::int64_t, Rng&) const {}

void PrivacyPolicy::sanitize_at_server(TensorList&, const ParamGroups&,
                                       std::int64_t, Rng&) const {}

FedSdpPolicy::FedSdpPolicy(double clipping_bound, double noise_scale,
                           bool noise_at_server)
    : clip_(clipping_bound),
      mechanism_(noise_scale, clipping_bound),
      noise_at_server_(noise_at_server) {
  FEDCL_CHECK_GT(clipping_bound, 0.0);
}

void FedSdpPolicy::sanitize_client_update(TensorList& update,
                                          const ParamGroups& groups,
                                          std::int64_t /*round*/,
                                          Rng& rng) const {
  // Algorithm 1 lines 6-11: clip the per-client update layer by layer.
  const std::vector<double> norms = dp::clip_per_layer(update, groups, clip_);
  bool any_clipped = false;
  for (double norm : norms) any_clipped = any_clipped || norm > clip_;
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", name()}};
  registry.counter("dp.clip.updates_total", labels).add(1);
  registry.counter("dp.clip.updates_clipped_total", labels)
      .add(any_clipped ? 1 : 0);
  if (!noise_at_server_) {
    // Line 13 executed at the client: noise before the update leaves
    // the device, protecting both type-0 and type-1 observation points.
    mechanism_.sanitize(update, rng);
  }
}

void FedSdpPolicy::sanitize_at_server(TensorList& update,
                                      const ParamGroups& /*groups*/,
                                      std::int64_t /*round*/,
                                      Rng& rng) const {
  if (noise_at_server_) {
    mechanism_.sanitize(update, rng);
  }
}

const char* clip_granularity_name(ClipGranularity g) {
  switch (g) {
    case ClipGranularity::kPerLayer:
      return "per-layer";
    case ClipGranularity::kPerParameter:
      return "per-parameter";
    case ClipGranularity::kGlobal:
      return "global";
  }
  return "?";
}

ParamGroups effective_groups(ClipGranularity granularity,
                             const ParamGroups& layer_groups,
                             std::size_t param_count) {
  switch (granularity) {
    case ClipGranularity::kPerLayer:
      return layer_groups;
    case ClipGranularity::kPerParameter: {
      ParamGroups out;
      out.reserve(param_count);
      for (std::size_t i = 0; i < param_count; ++i) out.push_back({i});
      return out;
    }
    case ClipGranularity::kGlobal:
      return dp::single_group(param_count);
  }
  return layer_groups;
}

FedCdpPolicy::FedCdpPolicy(double clipping_bound, double noise_scale)
    : schedule_(dp::ClippingSchedule::constant(clipping_bound)),
      sigma_(noise_scale),
      decay_label_(false) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

FedCdpPolicy::FedCdpPolicy(dp::ClippingSchedule schedule, double noise_scale,
                           bool decay_label, ClipGranularity granularity)
    : schedule_(schedule),
      sigma_(noise_scale),
      decay_label_(decay_label),
      granularity_(granularity) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

std::string FedCdpPolicy::name() const {
  return decay_label_ ? "Fed-CDP(decay)" : "Fed-CDP";
}

double FedCdpPolicy::clipping_bound_at(std::int64_t round) const {
  return schedule_.bound_at(round);
}

void FedCdpPolicy::sanitize_per_example(TensorList& grad,
                                        const ParamGroups& groups,
                                        std::int64_t round, Rng& rng) const {
  // Algorithm 2 lines 9-12: per-layer clip of this example's gradient,
  // then line 14's Gaussian noise with S <- C(round). The noise is
  // added to every example's gradient (inside the batch sum). One fused
  // clip+noise traversal (dp/fused_sanitize.h), the same kernel the
  // batched hook runs per example — which is what keeps the two hooks
  // bitwise interchangeable.
  const double c = schedule_.bound_at(round);
  const ParamGroups clip_groups =
      effective_groups(granularity_, groups, grad.size());
  const dp::ExampleView ex = dp::view_of(grad);
  const std::vector<double> norms = dp::group_norms(ex, clip_groups);
  count_clipped_groups(name(), norms, c);
  dp::scale_noise(ex, clip_groups, norms, c, sigma_ * c, rng.next_u64());
}

void FedCdpPolicy::sanitize_per_example_batch(
    tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    std::int64_t round, Rng& rng) const {
  // Parallel norm pass, serial per-example key draws (matching the
  // draws a loop of sanitize_per_example calls would make), then the
  // parallel fused scale+noise pass.
  const double c = schedule_.bound_at(round);
  const ParamGroups clip_groups =
      effective_groups(granularity_, groups, grads.rows.size());
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  const std::vector<double> norms = dp::batch_group_norms(grads, clip_groups);
  count_clipped_groups(name(), norms, c);
  std::vector<std::uint64_t> keys(batch);
  for (auto& k : keys) k = rng.next_u64();
  const std::vector<double> bounds(batch, c);
  const std::vector<double> stddevs(batch, sigma_ * c);
  dp::batch_scale_noise(grads, clip_groups, norms, bounds, stddevs, keys);
}

FedCdpAdaptivePolicy::FedCdpAdaptivePolicy(double initial_bound,
                                           double noise_scale,
                                           std::size_t window)
    : initial_bound_(initial_bound),
      sigma_(noise_scale),
      estimator_(window) {
  FEDCL_CHECK_GT(initial_bound, 0.0);
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

double FedCdpAdaptivePolicy::current_bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return estimator_.ready() ? estimator_.median() : initial_bound_;
}

void FedCdpAdaptivePolicy::sanitize_per_example(TensorList& grad,
                                                const ParamGroups& groups,
                                                std::int64_t /*round*/,
                                                Rng& rng) const {
  // Clip at the current median-of-norms bound...
  double bound = initial_bound_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (estimator_.ready()) bound = estimator_.median();
  }
  const dp::ExampleView ex = dp::view_of(grad);
  const std::vector<double> norms = dp::group_norms(ex, groups);
  count_clipped_groups(name(), norms, bound);
  dp::scale_noise(ex, groups, norms, bound, sigma_ * bound, rng.next_u64());
  // ...then fold this example's pre-clip norms into the estimator for
  // subsequent sanitizations.
  std::lock_guard<std::mutex> lock(mutex_);
  for (double norm : norms) {
    if (norm > 0.0) estimator_.observe(norm);
  }
}

void FedCdpAdaptivePolicy::sanitize_per_example_batch(
    tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    std::int64_t /*round*/, Rng& rng) const {
  // The estimator may move between examples (each example's pre-clip
  // norms are folded in before the next example is clipped), but the
  // pre-clip norms themselves only depend on example j's own slice —
  // so the norm pass runs in parallel up front, leaving only the
  // estimator walk and the key draws serial.
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  const std::vector<double> norms = dp::batch_group_norms(grads, groups);
  std::vector<double> bounds(batch);
  std::vector<double> stddevs(batch);
  std::vector<std::uint64_t> keys(batch);
  std::int64_t groups_clipped = 0;
  // Serial walk reproducing the per-example order: read the bound,
  // draw the example's noise key, fold its norms into the estimator.
  for (std::size_t j = 0; j < batch; ++j) {
    double bound = initial_bound_;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (estimator_.ready()) bound = estimator_.median();
    }
    bounds[j] = bound;
    stddevs[j] = sigma_ * bound;
    keys[j] = rng.next_u64();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double norm = norms[j * groups.size() + g];
      if (norm > bound) ++groups_clipped;
      if (norm > 0.0) estimator_.observe(norm);
    }
  }
  dp::batch_scale_noise(grads, groups, norms, bounds, stddevs, keys);
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", name()}};
  registry.counter("dp.clip.groups_total", labels)
      .add(static_cast<std::int64_t>(norms.size()));
  registry.counter("dp.clip.groups_clipped_total", labels).add(groups_clipped);
}

std::unique_ptr<PrivacyPolicy> make_non_private() {
  return std::make_unique<NonPrivatePolicy>();
}

std::unique_ptr<FedSdpPolicy> make_fed_sdp(double c, double sigma) {
  return std::make_unique<FedSdpPolicy>(c, sigma);
}

std::unique_ptr<FedCdpPolicy> make_fed_cdp(double c, double sigma) {
  return std::make_unique<FedCdpPolicy>(c, sigma);
}

std::unique_ptr<FedCdpPolicy> make_fed_cdp_decay(std::int64_t total_rounds,
                                                 double c_start, double c_end,
                                                 double sigma) {
  return std::make_unique<FedCdpPolicy>(
      dp::ClippingSchedule::linear(c_start, c_end, total_rounds), sigma,
      /*decay_label=*/true);
}

}  // namespace fedcl::core
