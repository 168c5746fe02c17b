// The "privacy:" line fl_simulator and fedcl_server print after a run:
// the moments-accountant budgets of the run's privacy setup, or a note
// that the policy adds no noise, or that B*Kt exceeds the N training
// examples (q > 1, outside the accountant's domain). One definition, so
// the serving demo (tools/run_serving_demo.py) can compare the two
// processes' lines verbatim.
#pragma once

#include <cstdio>

#include "core/accounting.h"
#include "core/policy.h"

namespace fedcl {

inline void print_privacy_line(const core::PrivacyPolicy& policy,
                               const core::FlPrivacySetup& setup) {
  if (policy.noise_scale() <= 0.0) {
    std::printf("privacy: %s adds no noise, so no budget is accounted\n",
                policy.name().c_str());
    return;
  }
  if (!core::instance_rate_accountable(setup)) {
    std::printf("privacy: B*Kt=%lld exceeds the %lld training examples, "
                "so no budget is accounted\n",
                static_cast<long long>(setup.batch_size *
                                       setup.clients_per_round),
                static_cast<long long>(setup.total_examples));
    return;
  }
  const core::PrivacyReport report = core::account_privacy(setup);
  std::printf("privacy: instance eps=%.4f, client eps (Fed-CDP joint "
              "DP)=%.4f, client eps (Fed-SDP accounting)=%.4f @ "
              "delta=1e-5\n",
              report.fed_cdp_instance_epsilon, report.fed_cdp_client_epsilon,
              report.fed_sdp_client_epsilon);
}

}  // namespace fedcl
