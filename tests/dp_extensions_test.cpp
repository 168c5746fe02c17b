#include <gtest/gtest.h>

#include "common/error.h"
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

}  // namespace
}  // namespace fedcl::dp
