// The Gaussian mechanism (Definition 2): additive noise
// N(0, sigma^2 * S^2) calibrated to sensitivity S.
#pragma once

#include "tensor/tensor_list.h"

namespace fedcl {
class Rng;
}

namespace fedcl::dp {

using tensor::Tensor;
using tensor::list::TensorList;

class GaussianMechanism {
 public:
  // noise_scale is the paper's sigma; sensitivity is S (set to the
  // clipping bound C in both Fed-SDP and Fed-CDP).
  GaussianMechanism(double noise_scale, double sensitivity);

  double noise_scale() const { return noise_scale_; }
  double noise_stddev() const { return noise_scale_ * sensitivity_; }

  // Adds N(0, (sigma*S)^2) i.i.d. to every coordinate from the
  // sequential stream: client-update noise is one draw per element once
  // per round, far off the hot path. Per-example noise goes through the
  // fused sanitizer (dp/fused_sanitize.h) instead.
  void sanitize(TensorList& update, Rng& rng) const;
  void sanitize(Tensor& update, Rng& rng) const;

 private:
  double noise_scale_;
  double sensitivity_;
};

}  // namespace fedcl::dp
