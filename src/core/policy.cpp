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

dp::SanitizedBatch PrivacyPolicy::sanitize_per_example_batch(
    const tensor::list::PerExampleGrads& grads, const ParamGroups&,
    std::int64_t, Rng&, std::optional<std::int64_t> observe) const {
  return {.mean = dp::batch_mean(grads),
          .observed = observe ? grads.example(*observe) : TensorList{}};
}

void PrivacyPolicy::sanitize_client_update(TensorList&, const ParamGroups&,
                                           std::int64_t, Rng&) const {}

FedSdpPolicy::FedSdpPolicy(double clipping_bound, double noise_scale)
    : clip_(clipping_bound), sigma_(noise_scale) {
  FEDCL_CHECK_GT(clipping_bound, 0.0);
  FEDCL_CHECK_GE(noise_scale, 0.0);
}

void FedSdpPolicy::sanitize_client_update(TensorList& update,
                                          const ParamGroups& groups,
                                          std::int64_t /*round*/,
                                          Rng& rng) const {
  // Algorithm 1 lines 6-13 at the client: clip the update layer by
  // layer to C and noise it with stddev sigma * C before it leaves the
  // device, protecting both type-0 and type-1 observation points. One
  // Philox key from the client's round stream, as for one example.
  const tensor::list::PerExampleGrads one = tensor::list::as_one_example(update);
  const std::vector<double> norms = dp::batch_group_norms(one, groups);
  bool any_clipped = false;
  for (double norm : norms) any_clipped = any_clipped || norm > clip_;
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", name()}};
  registry.counter("dp.clip.updates_total", labels).add(1);
  registry.counter("dp.clip.updates_clipped_total", labels)
      .add(any_clipped ? 1 : 0);
  update = dp::batch_scale_noise(one, groups, norms, {clip_}, {sigma_ * clip_},
                                 {rng.next_u64()})
               .mean;
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
  // Algorithm 2 lines 9-14 over a batch: every example's groups are
  // clipped to C(round) and noised with stddev sigma * C(round)
  // (S <- C), inside the batch sum, where the examples' noise is one
  // draw of the summed variance (dp/fused_sanitize.h). One Philox key
  // per example, drawn serially in example order, then the parallel
  // one-write pass.
  const double bound = schedule_.bound_at(round);
  const std::vector<double> norms = dp::batch_group_norms(grads, groups);
  count_clipped_groups(name(), norms, bound);
  const auto batch = static_cast<std::size_t>(grads.batch);
  const std::vector<double> bounds(batch, bound);
  const std::vector<double> stddevs(batch, sigma_ * bound);
  std::vector<std::uint64_t> keys(batch);
  for (std::uint64_t& key : keys) key = rng.next_u64();
  return dp::batch_scale_noise(grads, groups, norms, bounds, stddevs, keys,
                               /*pool=*/nullptr, observe);
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
