// Distributed Selective SGD (Shokri & Shmatikov, CCS'15) — the
// selective parameter-sharing baseline the paper compares against in
// Figure 4. Each client shares only the largest-magnitude fraction of
// its round update; no noise is added, which is why the paper shows it
// vulnerable to all three leakage types.
#pragma once

#include <string>

#include "core/policy.h"

namespace fedcl::fl {

class DssgdPolicy final : public core::PrivacyPolicy {
 public:
  // share_fraction theta in (0, 1]: fraction of coordinates uploaded.
  explicit DssgdPolicy(double share_fraction = 0.1);

  std::string name() const override { return "DSSGD"; }

  void sanitize_client_update(core::TensorList& update,
                              const core::ParamGroups& groups,
                              std::int64_t round, Rng& rng) const override;

 private:
  double share_fraction_;
};

}  // namespace fedcl::fl
