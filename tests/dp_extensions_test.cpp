#include <gtest/gtest.h>

#include "common/error.h"
#include "dp/accountant.h"
#include "dp/adaptive_clipping.h"

namespace fedcl::dp {
namespace {

TEST(MedianNormEstimator, MedianOfWindow) {
  MedianNormEstimator est(5);
  EXPECT_FALSE(est.ready());
  EXPECT_THROW(est.median(), Error);
  for (double v : {1.0, 9.0, 5.0}) est.observe(v);
  EXPECT_TRUE(est.ready());
  EXPECT_DOUBLE_EQ(est.median(), 5.0);
  est.observe(7.0);  // {1,9,5,7} -> median 6
  EXPECT_DOUBLE_EQ(est.median(), 6.0);
}

TEST(MedianNormEstimator, WindowEvictsOldest) {
  MedianNormEstimator est(3);
  for (double v : {100.0, 1.0, 2.0, 3.0}) est.observe(v);
  // 100 evicted; window {1,2,3}.
  EXPECT_EQ(est.count(), 3u);
  EXPECT_DOUBLE_EQ(est.median(), 2.0);
  EXPECT_THROW(MedianNormEstimator(0), Error);
  EXPECT_THROW(est.observe(-1.0), Error);
}

TEST(RdpConversion, ImprovedNeverWorseThanClassic) {
  for (double q : {0.005, 0.01, 0.02}) {
    MomentsAccountant acc(q, 6.0);
    for (std::int64_t steps : {100, 1000, 10000}) {
      const double classic =
          acc.epsilon(steps, 1e-5, RdpConversion::kClassic);
      const double improved =
          acc.epsilon(steps, 1e-5, RdpConversion::kImproved);
      EXPECT_LE(improved, classic + 1e-12)
          << "q=" << q << " steps=" << steps;
      EXPECT_GE(improved, 0.0);
    }
  }
}

TEST(RdpConversion, ImprovedStillMonotoneInSteps) {
  MomentsAccountant acc(0.01, 6.0);
  double prev = 0.0;
  for (std::int64_t steps : {10, 100, 1000}) {
    const double eps = acc.epsilon(steps, 1e-5, RdpConversion::kImproved);
    EXPECT_GE(eps, prev);
    prev = eps;
  }
}

}  // namespace
}  // namespace fedcl::dp
