#include "dp/gaussian.h"


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

}  // namespace fedcl::dp
