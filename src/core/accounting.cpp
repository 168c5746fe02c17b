#include "core/accounting.h"

#include "common/error.h"
#include "dp/accountant.h"

namespace fedcl::core {

namespace {

// The two accountants a valid setup defines: instance level
// (q = B*Kt/N) and client level (q = Kt/K).
struct Accountants {
  dp::MomentsAccountant instance;
  dp::MomentsAccountant client;
};

Accountants accountants_of(const FlPrivacySetup& setup) {
  FEDCL_CHECK_GT(setup.total_examples, 0);
  FEDCL_CHECK_GT(setup.batch_size, 0);
  FEDCL_CHECK_GT(setup.clients_per_round, 0);
  FEDCL_CHECK_GE(setup.total_clients, setup.clients_per_round);
  FEDCL_CHECK_GT(setup.local_iterations, 0);
  FEDCL_CHECK_GT(setup.rounds, 0);
  FEDCL_CHECK_GT(setup.noise_scale, 0.0);
  const double instance_q =
      static_cast<double>(setup.batch_size * setup.clients_per_round) /
      static_cast<double>(setup.total_examples);
  const double client_q = static_cast<double>(setup.clients_per_round) /
                          static_cast<double>(setup.total_clients);
  FEDCL_CHECK_LE(instance_q, 1.0) << "B*Kt exceeds the global dataset size";
  return {dp::MomentsAccountant(instance_q, setup.noise_scale),
          dp::MomentsAccountant(client_q, setup.noise_scale)};
}

}  // namespace

bool instance_rate_accountable(const FlPrivacySetup& setup) {
  return setup.batch_size * setup.clients_per_round <= setup.total_examples;
}

PrivacyReport account_privacy(const FlPrivacySetup& setup) {
  const Accountants acc = accountants_of(setup);
  PrivacyReport report;
  report.instance_q = acc.instance.sampling_rate();
  report.client_q = acc.client.sampling_rate();
  report.instance_steps = setup.rounds * setup.local_iterations;
  report.client_steps = setup.rounds;
  report.sampling_condition_ok = acc.instance.sampling_condition_ok();

  report.fed_cdp_instance_epsilon =
      acc.instance.epsilon(report.instance_steps, setup.delta);
  // Billboard lemma: the client-level joint-DP budget equals the
  // instance-level budget of the released global model.
  report.fed_cdp_client_epsilon = report.fed_cdp_instance_epsilon;
  report.fed_sdp_client_epsilon =
      acc.client.epsilon(report.client_steps, setup.delta);

  report.fed_cdp_instance_epsilon_closed_form = dp::abadi_bound_epsilon(
      report.instance_q, setup.noise_scale, report.instance_steps,
      setup.delta);
  report.fed_sdp_client_epsilon_closed_form = dp::abadi_bound_epsilon(
      report.client_q, setup.noise_scale, report.client_steps, setup.delta);
  return report;
}

PrivacyRoundSeries epsilon_round_series(const FlPrivacySetup& setup) {
  const Accountants acc = accountants_of(setup);
  PrivacyRoundSeries series;
  series.instance_epsilon = acc.instance.epsilon_series(
      setup.local_iterations, setup.rounds, setup.delta);
  series.client_epsilon =
      acc.client.epsilon_series(1, setup.rounds, setup.delta);
  return series;
}

}  // namespace fedcl::core
