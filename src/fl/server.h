// Federated server: client sampling, update screening, and FedSGD
// aggregation with graceful degradation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "fl/protocol.h"
#include "fl/retry_policy.h"
#include "fl/tree_aggregation.h"
#include "fl/update_screening.h"

namespace fedcl {
class Rng;
}

namespace fedcl::fl {

struct AggregationOptions {
  // Server-side momentum on the aggregated delta (0 = plain FedSGD;
  // the momentum-accelerated FL the paper cites as [32]).
  double server_momentum = 0.0;
  // Validation applied to every received update before it is summed.
  ScreeningConfig screening{};
  // Minimum number of accepted updates required to apply the round;
  // below it aggregate() leaves the model untouched and the caller
  // falls back to skip_round().
  std::int64_t min_reporting = 1;
  // Graceful-degradation floor: when the full quorum is missed but at
  // least this many updates survive screening, the round is applied
  // anyway under the reduced-quorum tier, with the noise-widening
  // factor surfaced in the outcome. 0 (default) disables the tier and
  // keeps the historical binary apply-or-skip behavior.
  std::int64_t reduced_min_reporting = 0;
  // Staleness horizon: the oldest round tag screen_and_push accepts, in
  // rounds behind its `now`. 0 (default, the sync engine's setting):
  // any round mismatch rejects. The async engine sets its
  // max_staleness.
  std::int64_t max_staleness = 0;
  // Staleness-decay exponent: an update s rounds behind enters the sum
  // with weight (1 + s)^-alpha. Read only when max_staleness > 0.
  double staleness_alpha = 0.5;
};

// What aggregate() did with the round's updates. `noise_widening` is
// min_reporting / accepted when the reduced-quorum tier fired: the DP
// noise was calibrated for a min_reporting-sized mean, so averaging
// over fewer updates leaves proportionally *more* noise per update —
// the privacy guarantee is untouched, utility pays instead, and the
// factor quantifies by how much.
struct AggregateOutcome {
  ScreeningReport screening;
  DegradationTier tier = DegradationTier::kSkipRound;
  bool applied = false;
  double noise_widening = 1.0;
};

class Server {
 public:
  explicit Server(TensorList initial_weights,
                  AggregationOptions options = {});

  // The one global model of either engine.
  const TensorList& weights() const { return weights_; }
  // Rounds applied or skipped so far. The async engine never skips, so
  // there it counts applies: the model version.
  std::int64_t round() const { return round_; }

  // Selects Kt distinct clients out of K for this round (the paper's
  // random per-round subset; q = Kt/K drives client-level accounting).
  std::vector<std::size_t> sample_clients(std::size_t total_clients,
                                          std::size_t clients_per_round,
                                          Rng& rng) const;

  // The one fold step of both engines: screens `update` against round
  // `now` under the staleness horizon (update_screening.h) and pushes
  // an accepted delta into `reducer`, which sums in its storage, with
  // weight (1 + s)^-alpha for staleness s. A fresh update (s = 0) enters
  // with weight exactly 1.0, unscaled. Counts the verdict in `report`
  // and returns it. The sync engine passes round() under horizon 0:
  // run_sync's units (fl/round_engine.cpp) run it concurrently on the
  // pool, each into its own reducer, and aggregate() runs it serially.
  // run_async passes its round clock and sums into its buffer.
  ScreenVerdict screen_and_push(ClientUpdate update, std::int64_t now,
                                StreamingReducer& reducer,
                                ScreeningReport& report) const;

  // FedSGD: W(t+1) = W(t) + (1/Kt) * sum_k delta_k, where Kt counts the
  // accepted updates. Each update goes through screen_and_push at
  // round(), in order, so the sum is the pinned-order tree over the
  // accepted deltas and the mean is finalize_mean's
  // (fl/tree_aggregation.h): the same bits run_sync computes for the
  // same cohort. A rejected update is dropped and counted in the
  // returned report rather than aborting the round.
  // When fewer than min_reporting updates survive, nothing is applied,
  // the round does not advance, and the report shows the quorum miss —
  // the caller decides (normally skip_round()). Every client holds the
  // same number of examples, and every delta is relative to the same
  // W(t), so this uniform mean is also exactly FedAveraging (Section IV
  // notes the two are mathematically equivalent).
  AggregateOutcome aggregate(std::vector<ClientUpdate> updates);
  // The same; the policy, groups and stream go unused. perfbench still
  // calls this form.
  AggregateOutcome aggregate(std::vector<ClientUpdate> updates,
                             const core::PrivacyPolicy&,
                             const dp::ParamGroups&, Rng&) {
    return aggregate(std::move(updates));
  }

  // The degradation tier (and noise widening) `accepted` screened
  // updates earn under this server's quorum options — the decision
  // aggregate() makes, exposed for run_sync, which screens and reduces
  // updates itself. `applied` is left false.
  AggregateOutcome quorum(std::int64_t accepted) const;

  // Applies a reduced mean delta: run_sync's, run_async's, or
  // aggregate()'s, which ends in it. Momentum tail and round advance;
  // the caller decides when to apply (quorum()) and keeps the screening
  // accounting. Adds `accepted` to fl.server.updates_accepted_total.
  void apply_mean(const TensorList& mean_delta, std::int64_t accepted);

  // Advances the round without an update (e.g. every sampled client
  // dropped out — the unstable-availability case of [2]).
  void skip_round();

 private:
  TensorList weights_;
  std::vector<tensor::Shape> shapes_;  // of weights_, which never reshape
  AggregationOptions options_;
  UpdateScreener screener_;
  TensorList velocity_;  // lazily sized when momentum is enabled
  std::int64_t round_ = 0;
};

}  // namespace fedcl::fl
