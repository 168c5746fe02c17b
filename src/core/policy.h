// Privacy policies for federated learning — the paper's core subject.
//
// A PrivacyPolicy hooks into the two places on the client where a
// defense acts:
//  - per-example gradients during local training (Algorithm 2,
//    lines 9-14: Fed-CDP clips per layer and adds Gaussian noise to
//    every example's gradient before batch averaging), one call per
//    local iteration on the batched engine's output, returning the
//    sanitized batch mean,
//  - the per-client round update before it is shared (Algorithm 1:
//    Fed-SDP clips and noises the update before it leaves the device).
// Policies hold no state that sanitizing changes, so clients may run in
// any order and on any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "dp/clipping.h"
#include "dp/fused_sanitize.h"
#include "tensor/tensor_list.h"

namespace fedcl {
class Rng;
}

namespace fedcl::core {

using dp::ParamGroups;
using tensor::list::TensorList;

class PrivacyPolicy {
 public:
  virtual ~PrivacyPolicy() = default;
  virtual std::string name() const = 0;

  // True when local training must process gradients per example
  // (Fed-CDP); false lets the client use the cheaper batched backward
  // (non-private, Fed-SDP).
  virtual bool needs_per_example_gradients() const { return false; }

  // The Gaussian noise scale sigma the policy adds, and the one its
  // privacy budget is accounted at; 0 for a policy that adds no noise
  // (it records no budget).
  virtual double noise_scale() const { return 0.0; }

  // Hook 1: sanitize every example's gradient of one local iteration,
  // as the batched gradient engine hands it over, and return the mean
  // of the sanitized gradients (the step gradient) plus, when
  // `observe` names one, that example's sanitized gradient. Draws one
  // noise key per example from `rng`, in example order, so a B-example
  // call takes as much of the stream as B one-example calls, and its
  // observed example is bitwise a one-example call on that example's
  // key. The mean carries the B examples' noise in at most two draws
  // (dp/fused_sanitize.h): the distribution of B per-example draws,
  // not their bits. The default sanitizes nothing.
  virtual dp::SanitizedBatch sanitize_per_example_batch(
      const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
      std::int64_t round, Rng& rng,
      std::optional<std::int64_t> observe) const;

  // Hook 2: sanitize the client's round update before sharing.
  virtual void sanitize_client_update(TensorList& update,
                                      const ParamGroups& groups,
                                      std::int64_t round, Rng& rng) const;
};

// Baseline: no defense anywhere.
class NonPrivatePolicy final : public PrivacyPolicy {
 public:
  std::string name() const override { return "non-private"; }
};

// Fed-SDP (Algorithm 1): per-client clipping + Gaussian noise on the
// shared round update, both at the client, before the update leaves
// the device. The update is sanitized as a one-example batch of
// Fed-CDP's fused pass, so it gets the values Fed-CDP would give one
// example with the same gradient, bound, sigma and stream.
class FedSdpPolicy final : public PrivacyPolicy {
 public:
  FedSdpPolicy(double clipping_bound, double noise_scale);
  std::string name() const override { return "Fed-SDP"; }

  void sanitize_client_update(TensorList& update, const ParamGroups& groups,
                              std::int64_t round, Rng& rng) const override;
  double clipping_bound() const { return clip_; }
  double noise_scale() const override { return sigma_; }

 private:
  double clip_;
  double sigma_;
};

// Fed-CDP (Algorithm 2): per-example, per-layer clipping + Gaussian
// noise at every local iteration. A ClippingSchedule makes this the
// same class implement Fed-CDP (constant C) and Fed-CDP(decay)
// (linearly decaying C); the sensitivity S tracks C(t) so the noise
// variance decays with the bound, as Section VI prescribes.
class FedCdpPolicy final : public PrivacyPolicy {
 public:
  // Fed-CDP with constant clipping bound.
  FedCdpPolicy(double clipping_bound, double noise_scale);
  // Fed-CDP with an arbitrary schedule; `decay_label` switches the
  // reported name to "Fed-CDP(decay)".
  FedCdpPolicy(dp::ClippingSchedule schedule, double noise_scale,
               bool decay_label);

  std::string name() const override;
  bool needs_per_example_gradients() const override { return true; }

  dp::SanitizedBatch sanitize_per_example_batch(
      const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
      std::int64_t round, Rng& rng,
      std::optional<std::int64_t> observe) const override;

  double clipping_bound_at(std::int64_t round) const;
  double noise_scale() const override { return sigma_; }

 private:
  dp::ClippingSchedule schedule_;
  double sigma_;
  bool decay_label_;
};

// Convenience factories with the paper's defaults (C=4, sigma=6;
// decay C: 6 -> 2 over the given total rounds).
std::unique_ptr<PrivacyPolicy> make_non_private();
std::unique_ptr<FedSdpPolicy> make_fed_sdp(double c = 4.0, double sigma = 6.0);
std::unique_ptr<FedCdpPolicy> make_fed_cdp(double c = 4.0, double sigma = 6.0);
std::unique_ptr<FedCdpPolicy> make_fed_cdp_decay(std::int64_t total_rounds,
                                                 double c_start = 6.0,
                                                 double c_end = 2.0,
                                                 double sigma = 6.0);

}  // namespace fedcl::core
