#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "dp/accountant.h"
#include "dp/clipping.h"

namespace fedcl::dp {
namespace {

TEST(Clipping, SingleGroupHelper) {
  ParamGroups g = single_group(3);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ClippingSchedule, Constant) {
  auto s = ClippingSchedule::constant(4.0);
  EXPECT_DOUBLE_EQ(s.bound_at(0), 4.0);
  EXPECT_DOUBLE_EQ(s.bound_at(1000), 4.0);
  EXPECT_THROW(ClippingSchedule::constant(0.0), Error);
}

TEST(ClippingSchedule, LinearDecaysToEnd) {
  // The paper's Fed-CDP(decay): C 6 -> 2 over 100 rounds.
  auto s = ClippingSchedule::linear(6.0, 2.0, 100);
  EXPECT_DOUBLE_EQ(s.bound_at(0), 6.0);
  EXPECT_DOUBLE_EQ(s.bound_at(99), 2.0);
  EXPECT_DOUBLE_EQ(s.bound_at(500), 2.0);  // clamps past the horizon
  // Monotone decreasing.
  for (int t = 1; t < 100; ++t) {
    EXPECT_LE(s.bound_at(t), s.bound_at(t - 1));
  }
  EXPECT_NEAR(s.bound_at(49), 6.0 + (2.0 - 6.0) * 49.0 / 99.0, 1e-9);
}

TEST(ClippingSchedule, ExponentialAndStep) {
  auto e = ClippingSchedule::exponential(8.0, 0.5);
  EXPECT_DOUBLE_EQ(e.bound_at(0), 8.0);
  EXPECT_DOUBLE_EQ(e.bound_at(3), 1.0);
  auto st = ClippingSchedule::step(8.0, 0.5, 10);
  EXPECT_DOUBLE_EQ(st.bound_at(9), 8.0);
  EXPECT_DOUBLE_EQ(st.bound_at(10), 4.0);
  EXPECT_DOUBLE_EQ(st.bound_at(25), 2.0);
  EXPECT_THROW(ClippingSchedule::exponential(1.0, 1.5), Error);
  EXPECT_THROW(st.bound_at(-1), Error);
}

// ---- moments accountant ----

TEST(Accountant, NoSamplingNoPrivacyLoss) {
  MomentsAccountant acc(0.0, 6.0);
  EXPECT_DOUBLE_EQ(acc.epsilon(1000, 1e-5), 0.0);
  EXPECT_DOUBLE_EQ(acc.rdp_one_step(8), 0.0);
}

TEST(Accountant, FullSamplingMatchesPlainGaussianRdp) {
  MomentsAccountant acc(1.0, 2.0);
  // RDP(alpha) = alpha / (2 sigma^2).
  EXPECT_NEAR(acc.rdp_one_step(4), 4.0 / 8.0, 1e-12);
  EXPECT_NEAR(acc.rdp_one_step(16), 2.0, 1e-12);
}

TEST(Accountant, RdpIncreasesWithOrder) {
  MomentsAccountant acc(0.01, 6.0);
  double prev = acc.rdp_one_step(2);
  for (int alpha = 3; alpha <= 64; ++alpha) {
    double cur = acc.rdp_one_step(alpha);
    EXPECT_GE(cur, prev - 1e-15) << "alpha " << alpha;
    prev = cur;
  }
}

TEST(Accountant, EpsilonMonotoneInSteps) {
  MomentsAccountant acc(0.01, 6.0);
  double prev = 0.0;
  for (std::int64_t steps : {1, 10, 100, 1000, 10000}) {
    double eps = acc.epsilon(steps, 1e-5);
    EXPECT_GT(eps, prev);
    prev = eps;
  }
}

TEST(Accountant, EpsilonDecreasesWithSigma) {
  double prev = 1e18;
  for (double sigma : {1.0, 2.0, 4.0, 8.0}) {
    MomentsAccountant acc(0.01, sigma);
    double eps = acc.epsilon(1000, 1e-5);
    EXPECT_LT(eps, prev);
    prev = eps;
  }
}

TEST(Accountant, EpsilonIncreasesWithSamplingRate) {
  double prev = 0.0;
  for (double q : {0.001, 0.01, 0.05, 0.2}) {
    MomentsAccountant acc(q, 6.0);
    double eps = acc.epsilon(1000, 1e-5);
    EXPECT_GT(eps, prev) << "q " << q;
    prev = eps;
  }
}

TEST(Accountant, SqrtTScalingInSmallEpsRegime) {
  // In the moments-accountant regime, eps grows ~ sqrt(T): the ratio of
  // eps(100 T) / eps(T) should be near 10, far below the linear 100.
  MomentsAccountant acc(0.01, 6.0);
  const double e1 = acc.epsilon(100, 1e-5);
  const double e2 = acc.epsilon(10000, 1e-5);
  EXPECT_GT(e2 / e1, 5.0);
  EXPECT_LT(e2 / e1, 30.0);
}

TEST(Accountant, SamplingCondition) {
  EXPECT_TRUE(MomentsAccountant(0.01, 6.0).sampling_condition_ok());
  EXPECT_FALSE(MomentsAccountant(0.02, 6.0).sampling_condition_ok());
}

TEST(Accountant, MatchesKnownDpSgdValue) {
  // Reference: the TF-Privacy DP-SGD tutorial setting — N=60000,
  // batch=256 (q~=0.004267), sigma=1.1, 60 epochs (~14060 steps),
  // delta=1e-5 — reports eps ~= 3.5. The exact value depends on the
  // order grid and the RDP->DP conversion variant, so assert the
  // ballpark.
  MomentsAccountant acc(256.0 / 60000.0, 1.1);
  const double eps = acc.epsilon(14060, 1e-5);
  EXPECT_GT(eps, 2.6);
  EXPECT_LT(eps, 4.2);
}

TEST(Accountant, TighterThanBasicComposition) {
  const double q = 0.01, sigma = 6.0, delta = 1e-5;
  const std::int64_t steps = 1000;
  MomentsAccountant acc(q, sigma);
  EXPECT_LT(acc.epsilon(steps, delta),
            basic_composition_epsilon(q, sigma, steps, delta));
}

TEST(Accountant, ClosedFormEquation2) {
  // eps = c2 * q * sqrt(T log(1/delta)) / sigma.
  const double eps = abadi_bound_epsilon(0.01, 6.0, 10000, 1e-5, 1.5);
  EXPECT_NEAR(eps, 1.5 * 0.01 * std::sqrt(10000 * std::log(1e5)) / 6.0,
              1e-9);
  // Paper Table VI: MNIST L=100 -> 10000 steps -> eps ~= 0.8227.
  EXPECT_NEAR(eps, 0.8227, 0.05);
  // L=1 -> 100 steps -> eps ~= 0.0845.
  EXPECT_NEAR(abadi_bound_epsilon(0.01, 6.0, 100, 1e-5, 1.5), 0.0845, 0.006);
}

TEST(Accountant, AmplificationBySubsampling) {
  auto [eps, delta] = amplify_by_subsampling(1.0, 1e-5, 0.1);
  EXPECT_NEAR(eps, std::log(1.0 + 0.1 * (std::exp(1.0) - 1.0)), 1e-12);
  EXPECT_NEAR(delta, 1e-6, 1e-15);
  // q=1 is a no-op on epsilon.
  auto [eps1, delta1] = amplify_by_subsampling(1.0, 1e-5, 1.0);
  EXPECT_NEAR(eps1, 1.0, 1e-12);
  EXPECT_NEAR(delta1, 1e-5, 1e-15);
  // Amplified eps is always below the original for q < 1.
  for (double q : {0.001, 0.01, 0.1, 0.5}) {
    auto [e, d] = amplify_by_subsampling(2.0, 1e-5, q);
    (void)d;
    EXPECT_LT(e, 2.0);
  }
}

TEST(Accountant, InputValidation) {
  EXPECT_THROW(MomentsAccountant(-0.1, 6.0), Error);
  EXPECT_THROW(MomentsAccountant(0.01, 0.0), Error);
  MomentsAccountant acc(0.01, 6.0);
  EXPECT_THROW(acc.epsilon(10, 0.0), Error);
  EXPECT_THROW(acc.rdp_one_step(1), Error);
  EXPECT_THROW(abadi_bound_epsilon(2.0, 6.0, 10, 1e-5), Error);
}

// The one-pass table the epsilons read is rdp_one_step, bit for bit,
// at every order: the tabulated lgamma and the skipped underflowing
// terms change no rounding. Both special cases (q = 0, q = 1) and the
// two workloads' instance rates (B*Kt/N) are on the grid.
TEST(Accountant, OnePassRdpMatchesReferenceBitwise) {
  for (double q : {0.0, 1e-9, 30.0 / 1098.0, 50.0 / 1500.0, 0.1, 0.5, 1.0}) {
    for (double sigma : {0.25, 0.5, 1.1, 6.0}) {
      SCOPED_TRACE("q=" + std::to_string(q) +
                   " sigma=" + std::to_string(sigma));
      const MomentsAccountant acc(q, sigma);
      const std::vector<double>& table = acc.rdp_by_order();
      ASSERT_EQ(table.size(), 257u);
      for (int alpha = 2; alpha <= 256; ++alpha) {
        ASSERT_EQ(table[static_cast<std::size_t>(alpha)],
                  acc.rdp_one_step(alpha))
            << "alpha " << alpha;
      }
      const std::vector<double> series = acc.epsilon_series(7, 40, 1e-5);
      ASSERT_EQ(series.size(), 40u);
      for (std::int64_t t = 0; t < 40; ++t) {
        ASSERT_EQ(series[static_cast<std::size_t>(t)],
                  acc.epsilon((t + 1) * 7, 1e-5))
            << "unit " << t;
      }
    }
  }
}

class AccountantOrderSweep : public ::testing::TestWithParam<double> {};

TEST_P(AccountantOrderSweep, BestOrderWithinRange) {
  const double q = GetParam();
  MomentsAccountant acc(q, 6.0);
  auto [eps, order] = acc.epsilon_with_order(1000, 1e-5);
  EXPECT_GT(eps, 0.0);
  EXPECT_GE(order, 2);
  EXPECT_LE(order, 256);
}

INSTANTIATE_TEST_SUITE_P(SamplingRates, AccountantOrderSweep,
                         ::testing::Values(0.001, 0.005, 0.01, 0.02, 0.05));

}  // namespace
}  // namespace fedcl::dp
