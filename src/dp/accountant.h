// Privacy accounting for the subsampled Gaussian mechanism.
//
// Three accountants are provided:
//  1. MomentsAccountant — Renyi-DP of the subsampled Gaussian at
//     integer orders (the Mironov et al. upper bound, the same
//     computation behind TF-Privacy's compute_dp_sgd_privacy that the
//     paper cites for Definition 5), converted to (epsilon, delta).
//  2. abadi_bound_epsilon — the closed form of the paper's Equation 2,
//     epsilon = c2 * q * sqrt(T log(1/delta)) / sigma. The paper's
//     Table VI values match this form with c2 ~= 1.5 (see
//     EXPERIMENTS.md).
//  3. basic_composition_epsilon — naive per-step Gaussian mechanism +
//     linear composition (Definitions 2 and 4), as a baseline showing
//     why the moments accountant matters.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace fedcl::dp {

class MomentsAccountant {
 public:
  // q: sampling rate (Definition 5: B*Kt/N at instance level, Kt/K at
  // client level). sigma: noise scale. max_order: largest Renyi order
  // examined for the epsilon conversion. Tabulates the one-step RDP
  // of every order once; every epsilon below reads the table.
  MomentsAccountant(double sampling_rate, double noise_scale,
                    int max_order = 256);

  double sampling_rate() const { return q_; }
  double noise_scale() const { return sigma_; }

  // Definition 5's applicability condition q < 1/(16 sigma).
  bool sampling_condition_ok() const;

  // Renyi-DP of one subsampled Gaussian step at integer order alpha
  // (alpha >= 2), computed from scratch: the reference the table is
  // pinned to.
  double rdp_one_step(int alpha) const;
  // The table: entry alpha is bitwise rdp_one_step(alpha) for alpha in
  // [2, max_order]; entries 0 and 1 are unused.
  const std::vector<double>& rdp_by_order() const { return rdp_; }

  // (epsilon, best order) after `steps` compositions at this delta,
  // by the classic conversion eps = rdp(alpha) + log(1/delta)/(alpha-1)
  // minimized over orders.
  std::pair<double, int> epsilon_with_order(std::int64_t steps,
                                            double delta) const;
  double epsilon(std::int64_t steps, double delta) const;

  // Cumulative epsilon after 1..units composition units of
  // `steps_per_unit` steps each: element t is
  // epsilon((t+1) * steps_per_unit, delta). This is the per-round
  // privacy-budget series the round engine's telemetry records (RDP is
  // linear in steps, so one table serves every unit).
  std::vector<double> epsilon_series(std::int64_t steps_per_unit,
                                     std::int64_t units, double delta) const;

 private:
  double q_;
  double sigma_;
  int max_order_;
  std::vector<double> rdp_;  // one-step RDP by order
};

// Paper Equation 2 closed form. c2 defaults to 1.5, the constant that
// reproduces the paper's reported Table VI budgets (see EXPERIMENTS.md).
double abadi_bound_epsilon(double q, double sigma, std::int64_t steps,
                           double delta, double c2 = 1.5);

// Naive baseline: per-step (eps', delta/steps) Gaussian mechanism
// composed linearly, with subsampling amplification applied per step.
double basic_composition_epsilon(double q, double sigma, std::int64_t steps,
                                 double delta);

// Definition 3: privacy amplification by subsampling applied to a
// single mechanism's (epsilon, delta).
std::pair<double, double> amplify_by_subsampling(double epsilon, double delta,
                                                 double q);

}  // namespace fedcl::dp
