// Bridges federated-learning parameters to the privacy accountant —
// the computation behind the paper's Table VI and Section V analysis.
//
// Instance level (Fed-CDP): by Proposition 1, the per-round local
// sampling across Kt clients behaves as one global sample of size
// B*Kt, so q = B*Kt/N and one accounting step is charged per local
// iteration (steps = T * L).
// Client level (Fed-SDP): q = Kt/K with one step per round
// (steps = T); the number of local iterations L does not change the
// accounting. Fed-CDP inherits its client-level guarantee from the
// instance level via the Billboard lemma (joint DP).
#pragma once

#include <cstdint>
#include <vector>

namespace fedcl::core {

struct FlPrivacySetup {
  std::int64_t total_examples = 0;    // N, across all clients
  std::int64_t batch_size = 1;        // B
  std::int64_t clients_per_round = 1; // Kt
  std::int64_t total_clients = 1;     // K
  std::int64_t local_iterations = 1;  // L
  std::int64_t rounds = 1;            // T
  double noise_scale = 6.0;           // sigma
  double delta = 1e-5;
};

struct PrivacyReport {
  // Sampling rates.
  double instance_q = 0.0;  // B*Kt/N
  double client_q = 0.0;    // Kt/K
  // Accounting steps.
  std::int64_t instance_steps = 0;  // T*L
  std::int64_t client_steps = 0;    // T
  // Moments-accountant budgets.
  double fed_cdp_instance_epsilon = 0.0;
  double fed_cdp_client_epsilon = 0.0;  // == instance (Billboard lemma)
  double fed_sdp_client_epsilon = 0.0;
  // Paper Equation 2 closed-form counterparts (c2 = 1.5).
  double fed_cdp_instance_epsilon_closed_form = 0.0;
  double fed_sdp_client_epsilon_closed_form = 0.0;
  // Definition 5 applicability q < 1/(16 sigma) at instance level.
  bool sampling_condition_ok = false;
  // Fed-SDP offers no instance-level guarantee ("not supported" in
  // Table VI); kept explicit for the bench output.
  static constexpr bool fed_sdp_supports_instance_level = false;
};

// True when B*Kt <= N, so the instance-level sampling rate q = B*Kt/N
// lies in the accountant's domain. A run with B*Kt > N accounts no
// budget: account_privacy and epsilon_round_series refuse it.
bool instance_rate_accountable(const FlPrivacySetup& setup);

PrivacyReport account_privacy(const FlPrivacySetup& setup);

// Cumulative privacy budget round by round: element t is the budget
// spent after rounds 1..t+1. The values are bitwise identical to
// calling account_privacy with rounds = t+1 (the accountant's RDP is
// linear in steps), but computed in one pass — this is what the
// trainer's dp.epsilon telemetry series records each round.
struct PrivacyRoundSeries {
  std::vector<double> instance_epsilon;  // Fed-CDP, q = B*Kt/N, L steps/round
  std::vector<double> client_epsilon;    // Fed-SDP, q = Kt/K, 1 step/round
};

PrivacyRoundSeries epsilon_round_series(const FlPrivacySetup& setup);

}  // namespace fedcl::core
