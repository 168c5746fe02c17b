// Deadline / retry / backoff policy for client dispatch, and the
// graceful-degradation tier ladder that replaces the binary
// apply-or-skip round decision.
//
// The round engine treats a client report as one or more *dispatch
// attempts*. An attempt can fail transiently (the client crashed before
// reporting, its payload arrived corrupted, the wire bytes were
// damaged) — those are worth re-dispatching with exponential backoff
// plus jitter, up to a bounded attempt budget. A straggler is different:
// it has not failed, it is merely late. Its fate is decided by a
// per-client soft deadline over a *virtual* latency clock (simulated
// milliseconds, deterministic per seed): in the synchronous engine a
// missed deadline costs the round the update, in the asynchronous
// engine (run_async, fl/round_engine.h) the update arrives
// `rounds_late` rounds later and is folded in with a staleness-decay
// weight.
//
// When a round still comes up short, it degrades through explicit
// tiers instead of flipping straight to skip:
//   full quorum    — accepted >= min_reporting, the normal apply;
//   reduced quorum — accepted in [reduced_min_reporting, min_reporting),
//                    the aggregate is applied anyway and the shortfall
//                    is surfaced as a noise-widening factor
//                    (min_reporting / accepted >= 1): noise calibrated
//                    for the planned quorum is averaged over
//                    fewer updates, so the effective noise in the
//                    applied mean is wider by exactly that factor — the
//                    DP guarantee is untouched, the utility accounting
//                    must know;
//   skip           — below every quorum, the model is left alone
//                    (the legacy behavior).
#pragma once

#include <cstdint>

#include "fl/fault_injection.h"

namespace fedcl {
class Rng;
}

namespace fedcl::fl {

// Outcome ladder for one round's aggregate (see header comment).
enum class DegradationTier {
  kFullQuorum = 0,
  kReducedQuorum,
  kSkipRound,
};

const char* degradation_tier_name(DegradationTier tier);

struct RetryPolicyConfig {
  // Total dispatch attempts per client per round. 1 = no retries; the
  // resample-retry pass in the trainer is independent of this budget.
  int max_attempts = 1;
  // Exponential backoff before re-dispatch: attempt a (2-based) waits
  // base_backoff_ms * multiplier^(a-2), scaled by a uniform jitter in
  // [1 - jitter_frac, 1 + jitter_frac] to de-synchronize retries.
  double base_backoff_ms = 8.0;
  double backoff_multiplier = 2.0;
  double jitter_frac = 0.25;
  // Per-client soft deadline on the virtual latency clock. One round of
  // the async engine spans exactly this many virtual milliseconds, so
  // an attempt landing at latency L is floor(L / soft_deadline_ms)
  // rounds late.
  double soft_deadline_ms = 100.0;
  // Mean virtual latency of a healthy dispatch (drawn uniformly in
  // [0.5, 1.5] * base_latency_ms — well inside the deadline).
  double base_latency_ms = 5.0;
  // Extra virtual delay a straggler adds (same +/-50% spread) — the
  // quantity that drives it past the soft deadline.
  double straggler_delay_ms = 400.0;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyConfig config = {});

  // Transient failures are worth re-dispatching: a crashed client can
  // restart, a corrupted payload can be regenerated, damaged wire
  // bytes can be resent. A straggler is not transient — it is still
  // running — and a natural dropout means the client is offline.
  bool transient(FaultType fault) const;

  // Virtual backoff before dispatch attempt `attempt` (1-based; attempt
  // 1 starts immediately and returns 0).
  double backoff_ms(int attempt, Rng& rng) const;

  // Virtual end-to-end latency of one dispatch attempt under `fault`.
  double latency_ms(FaultType fault, Rng& rng) const;

  // How many rounds past its dispatch round an attempt arriving at
  // `elapsed_ms` on the virtual clock lands (0 = within the deadline).
  std::int64_t rounds_late(double elapsed_ms) const;

 private:
  RetryPolicyConfig config_;
};

}  // namespace fedcl::fl
