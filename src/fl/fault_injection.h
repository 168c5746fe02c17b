// Fault injection for the federated round engine.
//
// The paper's threat model (Section III) assumes clients are unreliable
// and updates traverse a hostile channel; this module makes those
// failure modes injectable so the server's screening and degradation
// paths can be exercised deterministically. A FaultPlan is a seeded
// schedule: the same (seed, round, client) always draws the same fault,
// independent of query order, so experiments stay bit-reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/tensor_list.h"

namespace fedcl {
class Rng;
}

namespace fedcl::fl {

using tensor::list::TensorList;

// The injectable fault taxonomy (DESIGN.md "Fault model" maps each to
// its handling path and stats field).
enum class FaultType {
  kNone = 0,
  kCrash,         // client dies before reporting (transient)
  kStraggler,     // client misses the round deadline (transient)
  kCorruptDelta,  // NaN/Inf poisoning + garbage scaling of the delta
  kBitFlip,       // bits flipped in the sealed wire bytes
  kStaleRound,    // replay of an update from an earlier round
};
inline constexpr std::size_t kFaultTypeCount = 6;

struct FaultInjectionConfig {
  // Per (round, client) probability that some fault fires.
  double fault_rate = 0.0;
  // Relative mix of the fault types when one fires; need not sum to 1.
  // A zero weight disables that type.
  double crash_weight = 1.0;
  double straggler_weight = 1.0;
  double corrupt_weight = 1.0;
  double bit_flip_weight = 1.0;
  double stale_round_weight = 1.0;

  bool enabled() const { return fault_rate > 0.0; }
};

// Seeded per-round/per-client fault schedule.
class FaultPlan {
 public:
  // `seed` is folded with (round, client) per draw; pass the experiment
  // seed so the plan is reproducible yet decorrelated from the
  // sampling/noise streams.
  FaultPlan(FaultInjectionConfig config, std::uint64_t seed);

  // The fault (or kNone) scheduled for this client at this round.
  FaultType fault_for(std::int64_t round, std::int64_t client_id) const;

  // The fault drawn for dispatch attempt `attempt` (0-based) of this
  // (round, client). Attempt 0 is identical to fault_for(round, client);
  // retries draw from an independent stream so a re-dispatched client
  // faces the same fault *rate*, not the same fault.
  FaultType fault_for_attempt(std::int64_t round, std::int64_t client_id,
                              int attempt) const;

 private:
  FaultInjectionConfig config_;
  std::uint64_t seed_;
  // Cumulative mix weights over the five non-kNone types.
  std::array<double, kFaultTypeCount - 1> cumulative_{};
  double total_weight_ = 0.0;
};

// Realizes kCorruptDelta: poisons a handful of entries with NaN/Inf and
// rescales the rest to garbage magnitude. The result always contains at
// least one non-finite value, so finite-value screening is guaranteed
// to catch it.
void corrupt_delta(TensorList& delta, Rng& rng);

// Realizes kBitFlip: flips `flips` random bits in the serialized (or
// sealed) bytes, exercising the channel's integrity tag.
void flip_random_bits(std::vector<std::uint8_t>& bytes, Rng& rng,
                      int flips = 3);

struct ScreeningReport;

// Per-round failure accounting, aggregated across the run in
// FlRunResult. Every injected fault instance resolves to exactly one
// disposition (expired, screened, retried, accepted-stale), so
// faults_resolved_total() == injected_total() in every engine, with or
// without retries, dropout, or norm screening.
struct RoundFailureStats {
  // Injected faults by type.
  std::int64_t injected_crash = 0;
  std::int64_t injected_straggler = 0;
  std::int64_t injected_corrupt = 0;
  std::int64_t injected_bit_flip = 0;
  std::int64_t injected_stale = 0;
  // Natural Bernoulli dropouts (distinct from injected crashes).
  std::int64_t dropouts = 0;
  // Updates rejected by screening, by reason.
  std::int64_t rejected_decode = 0;        // channel open / deserialize
  std::int64_t rejected_shape = 0;         // structural mismatch
  std::int64_t rejected_non_finite = 0;    // NaN/Inf in the delta
  std::int64_t rejected_norm_outlier = 0;  // L2 norm above the cap
  std::int64_t rejected_stale = 0;         // wrong-round update
  // Recovery.
  std::int64_t retried_clients = 0;  // replacement clients sampled
  std::int64_t quorum_missed = 0;    // rounds skipped below min_reporting

  // Per-fault *disposition*: every injected fault instance resolves to
  // exactly one of these four, so with natural dropout excluded
  // injected_total() == faults_resolved_total() — the soak-test
  // invariant. (A retried dispatch that faults again is a new injected
  // instance with its own disposition.)
  std::int64_t fault_expired = 0;   // never delivered (no budget/run left)
  std::int64_t fault_screened = 0;  // delivered faulty, screened out, final
  std::int64_t fault_retried = 0;   // superseded by a fresh dispatch attempt
  std::int64_t fault_accepted_stale = 0;  // delivered late, decay-weighted in
  // Total re-dispatch attempts issued by the retry policy.
  std::int64_t retry_attempts = 0;
  // Rounds applied under the reduced-quorum degradation tier.
  std::int64_t reduced_quorum_rounds = 0;

  std::int64_t injected_total() const {
    return injected_crash + injected_straggler + injected_corrupt +
           injected_bit_flip + injected_stale;
  }
  std::int64_t rejected_total() const {
    return rejected_decode + rejected_shape + rejected_non_finite +
           rejected_norm_outlier + rejected_stale;
  }
  // Disposition total — equals injected_total() (see above).
  std::int64_t faults_resolved_total() const {
    return fault_expired + fault_screened + fault_retried +
           fault_accepted_stale;
  }

  // Counts one drawn fault instance as injected (kNone counts nothing).
  // Engines call it once per instance, at draw time, so the disposition
  // bijection above can be checked against injected_total().
  void count_injected(FaultType fault);
  // Adds a screening pass's per-reason rejections.
  void count_screening(const ScreeningReport& report);
  void accumulate(const RoundFailureStats& other);
};

}  // namespace fedcl::fl
