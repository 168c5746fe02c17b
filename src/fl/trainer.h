// End-to-end federated experiment runner: builds the synthetic
// benchmark, partitions it across clients, runs T rounds of FedSGD
// under a privacy policy, and records the metrics the paper's tables
// report (validation accuracy, ms per local iteration, gradient-norm
// series, privacy-accounting inputs).
//
// The round engine is fault-tolerant: every update travels through the
// serialize/seal/open/deserialize transport path, injected faults
// (fault_injection.h) and natural dropout are survived per client, the
// server screens each update as it lands (update_screening.h), and a
// min_reporting quorum with one resample-retry pass governs when a
// round is applied versus skipped. The run itself is fl/round_engine.h's
// run_federation, which the serving server calls too: run_sync, or
// run_async for async_mode.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/telemetry.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/fault_injection.h"
#include "fl/retry_policy.h"
#include "fl/update_screening.h"

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

struct FlExperimentConfig {
  data::BenchmarkConfig bench;
  std::int64_t total_clients = 100;     // K
  std::int64_t clients_per_round = 10;  // Kt
  // Overrides bench.rounds when > 0.
  std::int64_t rounds = 0;
  // Overrides bench.local_iterations when > 0.
  std::int64_t local_iterations = 0;
  // Gradient compression prune ratio for communication-efficient FL
  // (Figure 5); 0 disables.
  double prune_ratio = 0.0;
  // Evaluate every n rounds (n <= 0: final round only).
  std::int64_t eval_every = 0;
  std::uint64_t seed = 42;
  // The sigma privacy_setup and the dp.epsilon series are accounted
  // at. run_federation refuses a noising policy whose noise_scale()
  // differs; a policy that adds no noise records no budget.
  double noise_scale = 6.0;
  double delta = 1e-5;
  // Probability that a selected client fails to report its update
  // this round (the unstable-availability setting of McMahan et al.).
  double client_dropout = 0.0;
  // Server-side momentum on the aggregated delta (0 = plain FedSGD).
  // Sync engine only: validate_config refuses it with async_mode, as it
  // does every sync-only knob below.
  double server_momentum = 0.0;
  // Injected faults (crash/straggler/corrupt/bit-flip/stale); the plan
  // is seeded from `seed` so runs stay reproducible.
  FaultInjectionConfig faults;
  // Server-side screening of each received update, in both engines.
  ScreeningConfig screening;
  // Minimum accepted updates for a round to be applied; below it the
  // round is skipped (weights untouched, counted in dropped_rounds and
  // quorum_missed). Sync engine only.
  std::int64_t min_reporting = 1;
  // When accepted updates fall below min_reporting, sample replacement
  // clients (one retry pass) for the transiently failed ones before
  // giving up on the round. Sync engine only.
  bool retry_failed_clients = true;
  // Run the selected clients' local training concurrently on the shared
  // compute pool. The round is phase-split so every shared RNG stream
  // is consumed serially in client order, and each client trains from
  // its own (round, client)-forked stream on a private scratch model —
  // results are bitwise identical to the serial schedule for any
  // FEDCL_THREADS.
  bool parallel_clients = true;
  // Asynchronous (FedBuff-style) round engine: each update is screened
  // as it lands and summed into a pinned-order buffer
  // (Server::screen_and_push), and the model advances as soon as
  // `async.min_to_apply` updates are buffered; stragglers arrive
  // `rounds_late` rounds later and are folded in with a
  // 1/(1+staleness)^alpha weight instead of being rejected. Clients
  // train on the pool, but the loop folds their updates in a fixed
  // order (late arrivals, then the round's own in cohort order), so the
  // engine is bitwise identical across schedules and thread counts
  // (DESIGN.md §5).
  bool async_mode = false;
  // Async engine knobs. min_to_apply <= 0 defaults to
  // max(1, clients_per_round / 2) (resolve_async_config); updates are
  // screened under `screening` above.
  AsyncAggregatorConfig async;
  // Deadline / retry / backoff for client dispatch, in both engines.
  // The default (max_attempts = 1) disables re-dispatch.
  RetryPolicyConfig retry;
  // Graceful-degradation floor for the sync engine (see
  // AggregationOptions::reduced_min_reporting); 0 keeps the binary
  // apply-or-skip behavior. In the async engine the analogous tier is
  // the end-of-round partial flush, which is always on.
  std::int64_t reduced_min_reporting = 0;
  // The sync engine screens each update as it lands and folds it into
  // an O(log K) binary-counter accumulator, unit by unit: no K-sized
  // update buffer. This flag sets only how many clients a unit (an
  // edge aggregator feeding the root reducer) holds: `tree_fan_out`
  // when set, one when not. The reduction order is pinned, so every
  // power-of-two unit size computes bitwise-identical results on
  // fault-free rounds (DESIGN.md §7). Mutually exclusive with
  // async_mode.
  bool streaming_aggregation = false;
  // Clients per unit under streaming_aggregation; must be a power of
  // two >= 2. Values >= clients_per_round degenerate to one flat
  // streaming accumulator.
  std::int64_t tree_fan_out = 64;

  std::int64_t effective_rounds() const {
    return rounds > 0 ? rounds : bench.rounds;
  }
  std::int64_t effective_local_iterations() const {
    return local_iterations > 0 ? local_iterations : bench.local_iterations;
  }
};

struct RoundRecord {
  std::int64_t round = 0;
  double accuracy = 0.0;          // NaN when not evaluated this round
  double mean_grad_norm = 0.0;    // mean first-iteration batch-grad L2
  double mean_client_ms = 0.0;    // mean local-training wall time
  double wall_ms = 0.0;           // the round's wall time, start to epilogue
  // Injection/rejection/recovery accounting for this round.
  RoundFailureStats failures;
};

struct FlRunResult {
  double final_accuracy = 0.0;
  // Mean wall-clock per local iteration per client, the paper's
  // Table III metric.
  double ms_per_local_iteration = 0.0;
  std::vector<RoundRecord> history;
  // Inputs for core::account_privacy on this run.
  core::FlPrivacySetup privacy_setup;
  // Rounds where no aggregate was applied (all clients failed, or the
  // min_reporting quorum was missed).
  std::int64_t dropped_rounds = 0;
  // Rounds where an aggregate was applied (= rounds - dropped_rounds).
  std::int64_t completed_rounds = 0;
  // Updates the engine took in, over every round and the async engine's
  // end-of-run drain.
  std::int64_t updates_accepted = 0;
  // Async engine: total aggregate applications (the final model
  // version); a round can apply more than once.
  std::int64_t async_applies = 0;
  // High-water binary-counter occupancy across every reducer the run
  // created, in either engine — the bounded-memory witness
  // (fl/tree_aggregation.h). Sync: bounded by floor(log2(units)) + 1
  // regardless of K. Async: its one buffer applies at min_to_apply = M
  // updates, so it is bounded by floor(log2 M) + 1.
  std::int64_t max_stream_levels = 0;
  // Rounds applied under the reduced-quorum degradation tier (sync:
  // below min_reporting but at or above reduced_min_reporting; async:
  // end-of-round partial flush).
  std::int64_t reduced_quorum_rounds = 0;
  // Largest noise-widening factor any degraded round incurred (1.0 when
  // every applied round met its full quorum).
  double max_noise_widening = 1.0;
  // Sum of the per-round failure stats.
  RoundFailureStats total_failures;
  // The trained global model parameters (deep copy) — load into a
  // model built from the same ModelSpec via Sequential::set_weights.
  core::TensorList final_weights;
  // Everything the run recorded into the global telemetry registry:
  // round/phase spans, clip fractions, screening counters, the
  // cumulative per-round (epsilon, delta) series. Tests assert on this
  // instead of scraping logs.
  telemetry::TelemetrySnapshot telemetry;
};

// The one definition of a runnable config (run_federation, serving).
Result<FlExperimentConfig> validate_config(FlExperimentConfig config);

// Resets the telemetry registry, builds the federation `config` defines
// and runs it in this process (fl/round_engine.h's run_federation).
FlRunResult run_experiment(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy);

}  // namespace fedcl::fl
