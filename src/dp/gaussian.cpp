#include "dp/gaussian.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace fedcl::dp {

GaussianMechanism::GaussianMechanism(double noise_scale, double sensitivity)
    : noise_scale_(noise_scale), sensitivity_(sensitivity) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
  FEDCL_CHECK_GT(sensitivity, 0.0);
}

void GaussianMechanism::sanitize(TensorList& update, Rng& rng) const {
  tensor::list::add_gaussian_noise_(update, rng,
                                    static_cast<float>(noise_stddev()));
}

void GaussianMechanism::sanitize(Tensor& update, Rng& rng) const {
  update.add_gaussian_noise_(rng, static_cast<float>(noise_stddev()));
}

double GaussianMechanism::sigma_for(double epsilon, double delta) {
  FEDCL_CHECK(epsilon > 0.0 && epsilon < 1.0) << "epsilon " << epsilon;
  FEDCL_CHECK(delta > 0.0 && delta < 1.0) << "delta " << delta;
  return std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

}  // namespace fedcl::dp
