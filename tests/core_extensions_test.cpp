#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "testing/sanitize.h"

namespace fedcl::core {
namespace {

using tensor::Tensor;

TEST(AdaptivePolicy, StartsAtInitialBound) {
  FedCdpAdaptivePolicy policy(/*initial_bound=*/2.5, /*noise_scale=*/0.0);
  EXPECT_DOUBLE_EQ(policy.current_bound(), 2.5);
  EXPECT_EQ(policy.name(), "Fed-CDP(median)");
  EXPECT_TRUE(policy.needs_per_example_gradients());
  EXPECT_THROW(FedCdpAdaptivePolicy(0.0, 1.0), Error);
}

TEST(AdaptivePolicy, BoundTracksObservedMedian) {
  FedCdpAdaptivePolicy policy(10.0, 0.0);
  ParamGroups groups = {{0}};
  Rng rng(2);
  // Feed gradients with norm 4 repeatedly; bound converges to 4.
  for (int i = 0; i < 20; ++i) {
    TensorList g = {Tensor::full({16}, 1.0f)};  // norm 4
    testing::sanitize_one_example(policy, g, groups, 0, rng);
  }
  EXPECT_NEAR(policy.current_bound(), 4.0, 1e-4);
  // Now a huge gradient gets clipped down to ~the median, not to the
  // stale initial bound.
  TensorList big = {Tensor::full({16}, 100.0f)};  // norm 400
  testing::sanitize_one_example(policy, big, groups, 0, rng);
  EXPECT_NEAR(big[0].l2_norm(), 4.0f, 1e-3);
}

TEST(AdaptivePolicy, MedianRobustToOutliers) {
  FedCdpAdaptivePolicy policy(1.0, 0.0);
  ParamGroups groups = {{0}};
  Rng rng(3);
  // Mostly norm-2 gradients with a few norm-1000 outliers.
  for (int i = 0; i < 30; ++i) {
    const float v = (i % 10 == 0) ? 250.0f : 0.5f;  // norms 1000 vs 2
    TensorList g = {Tensor::full({16}, v)};
    testing::sanitize_one_example(policy, g, groups, 0, rng);
  }
  EXPECT_NEAR(policy.current_bound(), 2.0, 0.1);
}

TEST(AdaptivePolicy, NoiseScalesWithBound) {
  // With sigma > 0, the injected noise stddev is sigma * bound.
  FedCdpAdaptivePolicy policy(1.0, 1.0);
  ParamGroups groups = {{0}};
  Rng rng(4);
  TensorList g = {Tensor::zeros({4000})};
  testing::sanitize_one_example(policy, g, groups, 0, rng);
  const double norm = g[0].l2_norm();
  // stddev 1 * bound 1 over 4000 coords -> norm ~ sqrt(4000) ~= 63.
  EXPECT_NEAR(norm, std::sqrt(4000.0), 8.0);
}

}  // namespace
}  // namespace fedcl::core
