// Server-side validation of client updates before aggregation.
//
// Updates arrive from unreliable clients over a hostile channel, so the
// server screens every one as it lands — stale-round rejection,
// structural check against the global weight shapes, finite-value
// check, absolute L2-norm cap — and aggregates only the survivors, in
// the spirit of the adversarial-update screening that "Securing
// Distributed SGD against Gradient Leakage Threats" (Wei et al., 2023)
// layers on top of Fed-CDP-style sanitization. A rejected update is a
// per-client event counted per reason, never a process-wide abort.
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
  kNormOutlier,    // L2 norm above the cap
  kStaleRound,     // update.round != current round
};

const char* reject_reason_name(RejectReason reason);

struct ScreeningConfig {
  // Absolute cap on the update L2 norm (0 disables).
  double max_update_norm = 0.0;
  // Structural / finite / stale checks are always on: an update that
  // fails them cannot be aggregated at all.
};

// Verdict for one update. Staleness is a *measurement*: the async
// engine weights a late update by it instead of a bare reject.
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

  // Screens one update as it arrives, against the expected parameter
  // shapes and the current round, and returns the verdict *with* the
  // computed staleness, so the caller can weight a late update instead
  // of dropping it. `max_staleness` is the oldest round tag still
  // acceptable (0, the sync engine's setting: any round mismatch
  // rejects); updates tagged with a future round always reject as
  // kStaleRound. An update that fails several checks counts against
  // the first: stale, shape, non-finite, then the norm cap.
  ScreenVerdict screen_one(const ClientUpdate& update,
                           const std::vector<tensor::Shape>& expected,
                           std::int64_t current_round,
                           std::int64_t max_staleness,
                           ScreeningReport& report) const;

 private:
  ScreeningConfig config_;
};

}  // namespace fedcl::fl
