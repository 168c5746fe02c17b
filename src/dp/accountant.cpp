#include "dp/accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace fedcl::dp {

namespace {

// log(n choose k) via lgamma.
double log_binom(int n, int k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

// Term k of the order-alpha moment of the sampled Gaussian, in log
// space: log C(alpha,k) + (alpha-k) log(1-q) + k log q + k(k-1)/(2 sigma^2).
double moment_term(double log_binom_ak, int alpha, int k, double log_1mq,
                   double log_q, double sigma) {
  return log_binom_ak + (alpha - k) * log_1mq + k * log_q +
         k * (k - 1) / (2.0 * sigma * sigma);
}

// exp(x) is exactly 0.0 for every double x below this: the smallest
// subnormal is e^-744.4, and e^-746 rounds to zero.
constexpr double kExpUnderflow = -746.0;

// log(sum of exp(xs[0..n))), leaving out every term more than
// `skip_below` under the largest. At or below kExpUnderflow that leaves
// out only terms whose exp() adds 0.0, so it changes no bit.
double logsumexp(const std::vector<double>& xs, std::size_t n,
                 double skip_below) {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, xs[i]);
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] - m < skip_below) continue;
    s += std::exp(xs[i] - m);
  }
  return m + std::log(s);
}

}  // namespace

MomentsAccountant::MomentsAccountant(double sampling_rate, double noise_scale,
                                     int max_order)
    : q_(sampling_rate), sigma_(noise_scale), max_order_(max_order) {
  FEDCL_CHECK(q_ >= 0.0 && q_ <= 1.0) << "q " << q_;
  FEDCL_CHECK_GT(sigma_, 0.0);
  FEDCL_CHECK_GE(max_order_, 2);
  rdp_.assign(static_cast<std::size_t>(max_order_) + 1, 0.0);
  // rdp_one_step for every order in one pass, with the same arithmetic
  // in the same order: lgamma(n + 1) is tabulated instead of called
  // three times per term, and terms exp() flushes to 0.0 are skipped.
  std::vector<double> log_factorial(rdp_.size());
  for (std::size_t n = 0; n < log_factorial.size(); ++n) {
    log_factorial[n] = std::lgamma(static_cast<int>(n) + 1.0);
  }
  const double log_q = std::log(q_);
  const double log_1mq = std::log1p(-q_);
  std::vector<double> terms(rdp_.size());
  for (int alpha = 2; alpha <= max_order_; ++alpha) {
    if (q_ == 0.0 || q_ == 1.0) {
      rdp_[alpha] = rdp_one_step(alpha);  // the closed-form cases
      continue;
    }
    for (int k = 0; k <= alpha; ++k) {
      terms[k] = moment_term(log_factorial[alpha] - log_factorial[k] -
                                 log_factorial[alpha - k],
                             alpha, k, log_1mq, log_q, sigma_);
    }
    rdp_[alpha] = std::max(
        0.0, logsumexp(terms, alpha + 1, kExpUnderflow) / (alpha - 1));
  }
}

bool MomentsAccountant::sampling_condition_ok() const {
  return q_ < 1.0 / (16.0 * sigma_);
}

double MomentsAccountant::rdp_one_step(int alpha) const {
  FEDCL_CHECK_GE(alpha, 2);
  if (q_ == 0.0) return 0.0;
  if (q_ == 1.0) {
    // Plain Gaussian mechanism: RDP(alpha) = alpha / (2 sigma^2).
    return alpha / (2.0 * sigma_ * sigma_);
  }
  // Mironov et al. (2019) integer-order upper bound for sampled
  // Gaussian:  (1/(alpha-1)) * log sum_{k=0..alpha} C(alpha,k)
  //            (1-q)^{alpha-k} q^k exp(k(k-1)/(2 sigma^2)).
  std::vector<double> terms;
  terms.reserve(alpha + 1);
  const double log_q = std::log(q_);
  const double log_1mq = std::log1p(-q_);
  for (int k = 0; k <= alpha; ++k) {
    terms.push_back(
        moment_term(log_binom(alpha, k), alpha, k, log_1mq, log_q, sigma_));
  }
  const double log_moment = logsumexp(
      terms, terms.size(), -std::numeric_limits<double>::infinity());
  return std::max(0.0, log_moment / (alpha - 1));
}

std::pair<double, int> MomentsAccountant::epsilon_with_order(
    std::int64_t steps, double delta) const {
  FEDCL_CHECK_GE(steps, 0);
  FEDCL_CHECK(delta > 0.0 && delta < 1.0) << "delta " << delta;
  if (steps == 0 || q_ == 0.0) return {0.0, 2};
  double best_eps = std::numeric_limits<double>::infinity();
  int best_order = 2;
  const double log_inv_delta = std::log(1.0 / delta);
  for (int alpha = 2; alpha <= max_order_; ++alpha) {
    const double rdp =
        rdp_[static_cast<std::size_t>(alpha)] * static_cast<double>(steps);
    const double eps = rdp + log_inv_delta / (alpha - 1);
    if (eps < best_eps) {
      best_eps = eps;
      best_order = alpha;
    }
  }
  return {std::max(0.0, best_eps), best_order};
}

double MomentsAccountant::epsilon(std::int64_t steps, double delta) const {
  return epsilon_with_order(steps, delta).first;
}

std::vector<double> MomentsAccountant::epsilon_series(
    std::int64_t steps_per_unit, std::int64_t units, double delta) const {
  FEDCL_CHECK_GE(steps_per_unit, 0);
  FEDCL_CHECK_GE(units, 0);
  FEDCL_CHECK(delta > 0.0 && delta < 1.0) << "delta " << delta;
  std::vector<double> series;
  series.reserve(static_cast<std::size_t>(units));
  for (std::int64_t t = 0; t < units; ++t) {
    series.push_back(epsilon((t + 1) * steps_per_unit, delta));
  }
  return series;
}

double abadi_bound_epsilon(double q, double sigma, std::int64_t steps,
                           double delta, double c2) {
  FEDCL_CHECK(q >= 0.0 && q <= 1.0);
  FEDCL_CHECK_GT(sigma, 0.0);
  FEDCL_CHECK_GE(steps, 0);
  FEDCL_CHECK(delta > 0.0 && delta < 1.0);
  FEDCL_CHECK_GT(c2, 0.0);
  return c2 * q *
         std::sqrt(static_cast<double>(steps) * std::log(1.0 / delta)) /
         sigma;
}

double basic_composition_epsilon(double q, double sigma, std::int64_t steps,
                                 double delta) {
  FEDCL_CHECK_GT(steps, 0);
  FEDCL_CHECK(delta > 0.0 && delta < 1.0);
  // Budget half of delta to the per-step mechanisms, half to slack.
  const double per_step_delta = delta / (2.0 * static_cast<double>(steps));
  // Lemma 1 inverted: eps' = sqrt(2 log(1.25/delta')) / sigma.
  const double eps_step =
      std::sqrt(2.0 * std::log(1.25 / per_step_delta)) / sigma;
  auto [amplified_eps, amplified_delta] =
      amplify_by_subsampling(eps_step, per_step_delta, q);
  (void)amplified_delta;
  return amplified_eps * static_cast<double>(steps);
}

std::pair<double, double> amplify_by_subsampling(double epsilon, double delta,
                                                 double q) {
  FEDCL_CHECK(q >= 0.0 && q <= 1.0);
  FEDCL_CHECK_GE(epsilon, 0.0);
  // Definition 3: (log(1 + q(e^eps - 1)), q delta).
  return {std::log1p(q * (std::exp(epsilon) - 1.0)), q * delta};
}

}  // namespace fedcl::dp
