#include "core/policy.h"

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"

namespace fedcl::core {

namespace {

// Folds one sanitize call's clip decisions into the global telemetry
// counters. Pure counter arithmetic — never touches the RNG — so
// telemetry cannot perturb the policies' noise streams.
void count_clipped_groups(const std::string& policy,
                          const std::vector<double>& norms,
                          const std::vector<double>& bounds,
                          std::size_t groups) {
  std::int64_t clipped = 0;
  for (std::size_t i = 0; i < norms.size(); ++i) {
    if (norms[i] > bounds[i / groups]) ++clipped;
  }
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", policy}};
  registry.counter("dp.clip.groups_total", labels)
      .add(static_cast<std::int64_t>(norms.size()));
  registry.counter("dp.clip.groups_clipped_total", labels).add(clipped);
}

// Algorithm 2 lines 9-14 over a batch: example j's groups are clipped
// to bounds[j] and noised with stddev sigma * bounds[j] (S <- C), then
// averaged. One Philox key per example, drawn serially in example
// order, then the parallel one-write pass.
dp::SanitizedBatch clip_and_noise(const std::string& policy,
                                  const tensor::list::PerExampleGrads& grads,
                                  const ParamGroups& groups,
                                  const std::vector<double>& norms,
                                  const std::vector<double>& bounds,
                                  double sigma, Rng& rng,
                                  std::optional<std::int64_t> observe) {
  count_clipped_groups(policy, norms, bounds, groups.size());
  std::vector<double> stddevs(bounds.size());
  std::vector<std::uint64_t> keys(bounds.size());
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    stddevs[j] = sigma * bounds[j];
    keys[j] = rng.next_u64();
  }
  return dp::batch_scale_noise(grads, groups, norms, bounds, stddevs, keys,
                               /*pool=*/nullptr, observe);
}

}  // namespace

dp::SanitizedBatch PrivacyPolicy::sanitize_per_example_batch(
    const tensor::list::PerExampleGrads& grads, const ParamGroups&,
    std::int64_t, Rng&, std::optional<std::int64_t> observe) const {
  return {.mean = dp::batch_mean(grads),
          .observed = observe ? grads.example(*observe) : TensorList{}};
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

FedCdpPolicy::FedCdpPolicy(double clipping_bound, double noise_scale)
    : schedule_(dp::ClippingSchedule::constant(clipping_bound)),
      sigma_(noise_scale),
      decay_label_(false) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

FedCdpPolicy::FedCdpPolicy(dp::ClippingSchedule schedule, double noise_scale,
                           bool decay_label)
    : schedule_(schedule), sigma_(noise_scale), decay_label_(decay_label) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

std::string FedCdpPolicy::name() const {
  return decay_label_ ? "Fed-CDP(decay)" : "Fed-CDP";
}

double FedCdpPolicy::clipping_bound_at(std::int64_t round) const {
  return schedule_.bound_at(round);
}

dp::SanitizedBatch FedCdpPolicy::sanitize_per_example_batch(
    const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    std::int64_t round, Rng& rng, std::optional<std::int64_t> observe) const {
  // Algorithm 2 lines 9-12: per-layer clip of every example's
  // gradient, then line 14's Gaussian noise with S <- C(round), added
  // to every example's gradient (inside the batch sum).
  const std::vector<double> bounds(static_cast<std::size_t>(grads.batch),
                                   schedule_.bound_at(round));
  return clip_and_noise(name(), grads, groups,
                        dp::batch_group_norms(grads, groups), bounds, sigma_,
                        rng, observe);
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

dp::SanitizedBatch FedCdpAdaptivePolicy::sanitize_per_example_batch(
    const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    std::int64_t /*round*/, Rng& rng,
    std::optional<std::int64_t> observe) const {
  // The estimator moves between examples (each example's pre-clip
  // norms are folded in before the next example is clipped), but the
  // pre-clip norms themselves only depend on example j's own slice —
  // so the norm pass runs in parallel up front, leaving only the
  // estimator walk serial.
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  const std::vector<double> norms = dp::batch_group_norms(grads, groups);
  std::vector<double> bounds(batch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t j = 0; j < batch; ++j) {
      bounds[j] = estimator_.ready() ? estimator_.median() : initial_bound_;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const double norm = norms[j * groups.size() + g];
        if (norm > 0.0) estimator_.observe(norm);
      }
    }
  }
  return clip_and_noise(name(), grads, groups, norms, bounds, sigma_, rng,
                        observe);
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
