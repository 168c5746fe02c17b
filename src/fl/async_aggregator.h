// Asynchronous, buffered FedSGD aggregation (FedBuff-style).
//
// The synchronous engine holds every round's surviving updates in
// memory, screens them as a batch, and applies one mean per round. This
// aggregator instead *streams*: each arriving update is screened,
// staleness-weighted, and folded into a single running accumulator —
// bounded memory (one TensorList plus one weight sum) no matter how
// many updates are buffered — and the aggregate is applied as soon as
// `min_to_apply` updates have been folded in, without waiting for the
// rest of the sampled cohort. Late updates from earlier rounds are not
// rejected: an update `s` rounds behind enters the mean with weight
// 1 / (1 + s)^alpha, the standard staleness-decay of the
// asynchronous federated-optimization literature, and only updates
// older than `max_staleness` rounds (or tagged with a future round)
// are screened out.
//
// Offers come from one thread, the async round loop's (run_async in
// fl/round_engine.h), in an order the loop fixes, so the fold order —
// and therefore float rounding — does not depend on the schedule. The
// methods stay thread-safe: the lock costs one uncontended acquire per
// call.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "fl/protocol.h"
#include "fl/update_screening.h"
#include "tensor/shape.h"

namespace fedcl::fl {

struct AsyncAggregatorConfig {
  // M: buffered updates that trigger an apply; 0 leaves it to
  // resolve_async_config's max(1, clients_per_round / 2).
  std::int64_t min_to_apply = 0;
  // Staleness-decay exponent: weight = 1 / (1 + staleness)^alpha.
  // 0 treats stale updates like fresh ones.
  double staleness_alpha = 0.5;
  // Oldest acceptable round tag, in rounds behind the current round.
  std::int64_t max_staleness = 8;
};

// `config` with an unset min_to_apply (<= 0) resolved to the engines'
// default, max(1, clients_per_round / 2).
AsyncAggregatorConfig resolve_async_config(AsyncAggregatorConfig config,
                                           std::int64_t clients_per_round);

class AsyncAggregator {
 public:
  // What happened to one offered update. `applied` reports whether this
  // offer tripped the min_to_apply threshold and advanced the model.
  struct OfferResult {
    bool accepted = false;
    bool applied = false;
    std::int64_t staleness = 0;           // valid when accepted
    std::optional<RejectReason> reject;   // set when !accepted
  };

  // Every offer is screened under `screening` (stale / structural /
  // finite / absolute-norm cap, UpdateScreener::screen_one).
  AsyncAggregator(TensorList initial_weights, AsyncAggregatorConfig config,
                  ScreeningConfig screening = {});

  // Screens, weights, and folds `update` into the accumulator;
  // `now_round` is the engine's current round clock (staleness =
  // now_round - update.round), and the update's weight is its
  // staleness decay alone.
  OfferResult offer(ClientUpdate update, std::int64_t now_round);

  // Applies whatever is buffered regardless of the threshold (the
  // end-of-round degradation flush and the end-of-run drain). Returns
  // true when something was applied.
  bool flush();

  // Deep copy of the current global weights (what a newly dispatched
  // client trains against).
  TensorList weights_snapshot() const;

  // Number of aggregate applications so far (the model version).
  std::int64_t applies() const;
  // Updates folded in since the last application.
  std::int64_t buffered() const;
  // The resolved apply threshold M: offers that trigger an apply.
  std::int64_t min_to_apply() const { return config_.min_to_apply; }

 private:
  // Applies accumulator_ / weight_sum_ to weights_. Caller holds mutex_.
  void apply_locked(const char* trigger);

  AsyncAggregatorConfig config_;
  UpdateScreener screener_;

  mutable std::mutex mutex_;
  TensorList weights_;
  std::vector<tensor::Shape> expected_shapes_;
  TensorList accumulator_;   // sum of w_i * delta_i since the last apply
  double weight_sum_ = 0.0;  // sum of w_i since the last apply
  std::int64_t buffered_ = 0;
  std::int64_t applies_ = 0;
  ScreeningReport screening_totals_;
};

}  // namespace fedcl::fl
