// Server-side validation of client updates before aggregation.
//
// Updates arrive from unreliable clients over a hostile channel, so the
// server screens every one — structural check against the global weight
// shapes, finite-value check, L2-norm outlier rejection, stale-round
// rejection — and aggregates only the survivors, in the spirit of the
// adversarial-update screening that "Securing Distributed SGD against
// Gradient Leakage Threats" (Wei et al., 2023) layers on top of
// Fed-CDP-style sanitization. A rejected update is a per-client event
// counted per reason, never a process-wide abort.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fl/protocol.h"
#include "tensor/shape.h"

namespace fedcl::fl {

enum class RejectReason {
  kShapeMismatch,  // wrong tensor count, rank, or dims
  kNonFinite,      // NaN/Inf anywhere in the delta
  kNormOutlier,    // L2 norm out of band
  kStaleRound,     // update.round != current round
};

const char* reject_reason_name(RejectReason reason);

struct ScreeningConfig {
  // Reject updates whose L2 norm exceeds `norm_outlier_factor` times
  // the median norm of the round's structurally valid updates
  // (0 disables). Needs >= 3 candidates to be meaningful; below that
  // the relative check is skipped.
  double norm_outlier_factor = 0.0;
  // Absolute cap on the update L2 norm (0 disables).
  double max_update_norm = 0.0;
  // Structural / finite / stale checks are always on: an update that
  // fails them cannot be aggregated at all.
};

// Verdict for a single streamed update (the async path screens updates
// one at a time as they arrive, so staleness becomes a *measurement*
// the caller can weight by instead of a bare reject).
struct ScreenVerdict {
  // Reject reason, or nullopt when the update is acceptable.
  std::optional<RejectReason> reject;
  // Rounds behind the current round (current_round - update.round).
  // Valid whenever the round tag parsed sanely; 0 for a fresh update.
  std::int64_t staleness = 0;

  bool accepted() const { return !reject.has_value(); }
};

// Per-reason rejection counts for one screening pass.
struct ScreeningReport {
  std::int64_t accepted = 0;
  std::int64_t rejected_shape = 0;
  std::int64_t rejected_non_finite = 0;
  std::int64_t rejected_norm_outlier = 0;
  std::int64_t rejected_stale = 0;

  std::int64_t rejected_total() const {
    return rejected_shape + rejected_non_finite + rejected_norm_outlier +
           rejected_stale;
  }
  void count(RejectReason reason);
};

class UpdateScreener {
 public:
  explicit UpdateScreener(ScreeningConfig config = {});

  // Validates `updates` against the expected parameter shapes and the
  // current round, returning the accepted subset (order preserved).
  std::vector<ClientUpdate> screen(std::vector<ClientUpdate> updates,
                                   const std::vector<tensor::Shape>& expected,
                                   std::int64_t current_round,
                                   ScreeningReport& report) const;

  // Streaming form: screens one update as it arrives and returns the
  // verdict *with* the computed staleness, so the caller can weight a
  // late update instead of dropping it. `max_staleness` is the oldest
  // round tag still acceptable (0 reproduces the synchronous
  // semantics: any round mismatch rejects); updates tagged with a
  // future round always reject as kStaleRound. The median-relative
  // norm band needs a population and therefore does not apply here —
  // only the absolute max_update_norm cap does.
  ScreenVerdict screen_one(const ClientUpdate& update,
                           const std::vector<tensor::Shape>& expected,
                           std::int64_t current_round,
                           std::int64_t max_staleness,
                           ScreeningReport& report) const;

  const ScreeningConfig& config() const { return config_; }

 private:
  ScreeningConfig config_;
};

}  // namespace fedcl::fl
