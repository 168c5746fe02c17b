// The asynchronous round engine and its supporting layers: the
// deadline/retry/backoff policy, the streaming screen_one verdict, the
// async fold (Server::screen_and_push into a pinned-order buffer, with
// staleness-decay weighting), the reduced-quorum degradation tier, and
// the async trainer mode — including its determinism contract across
// schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/protocol.h"
#include "fl/retry_policy.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl/tree_aggregation.h"
#include "fl/update_screening.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;

// ---- retry policy ----

TEST(RetryPolicy, TransientSetIsExactlyTheRedispatchableFaults) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.transient(FaultType::kCrash));
  EXPECT_TRUE(policy.transient(FaultType::kCorruptDelta));
  EXPECT_TRUE(policy.transient(FaultType::kBitFlip));
  EXPECT_FALSE(policy.transient(FaultType::kNone));
  EXPECT_FALSE(policy.transient(FaultType::kStraggler));
  EXPECT_FALSE(policy.transient(FaultType::kStaleRound));
}

TEST(RetryPolicy, BackoffIsExponentialWithBoundedJitter) {
  RetryPolicyConfig cfg;
  cfg.max_attempts = 5;
  cfg.base_backoff_ms = 10.0;
  cfg.backoff_multiplier = 2.0;
  cfg.jitter_frac = 0.25;
  RetryPolicy policy(cfg);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(1, rng), 0.0);  // first dispatch
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const double nominal = 10.0 * std::pow(2.0, attempt - 2);
    for (int rep = 0; rep < 50; ++rep) {
      const double b = policy.backoff_ms(attempt, rng);
      EXPECT_GE(b, nominal * 0.75);
      EXPECT_LE(b, nominal * 1.25);
    }
  }
}

TEST(RetryPolicy, StragglerLatencyBlowsThroughTheDeadline) {
  RetryPolicyConfig cfg;
  cfg.soft_deadline_ms = 100.0;
  cfg.base_latency_ms = 5.0;
  cfg.straggler_delay_ms = 400.0;
  RetryPolicy policy(cfg);
  Rng rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    const double healthy = policy.latency_ms(FaultType::kNone, rng);
    const double late = policy.latency_ms(FaultType::kStraggler, rng);
    EXPECT_LT(healthy, cfg.soft_deadline_ms);
    EXPECT_GT(late, cfg.soft_deadline_ms);
    EXPECT_GE(policy.rounds_late(late), 1);
  }
  EXPECT_EQ(policy.rounds_late(99.0), 0);
  EXPECT_EQ(policy.rounds_late(100.0), 0);
  EXPECT_EQ(policy.rounds_late(250.0), 2);
}

TEST(RetryPolicy, ConfigValidation) {
  RetryPolicyConfig bad;
  bad.max_attempts = 0;
  EXPECT_THROW(RetryPolicy{bad}, Error);
  bad = {};
  bad.soft_deadline_ms = 0.0;
  EXPECT_THROW(RetryPolicy{bad}, Error);
  bad = {};
  bad.jitter_frac = 1.0;
  EXPECT_THROW(RetryPolicy{bad}, Error);
}

TEST(FaultPlan, AttemptZeroMatchesLegacyStreamAndRetriesRedraw) {
  FaultInjectionConfig cfg;
  cfg.fault_rate = 0.7;
  FaultPlan plan(cfg, 99);
  bool any_differs = false;
  for (std::int64_t t = 0; t < 10; ++t) {
    for (std::int64_t c = 0; c < 10; ++c) {
      EXPECT_EQ(plan.fault_for_attempt(t, c, 0), plan.fault_for(t, c));
      // Retry draws are deterministic per attempt index...
      EXPECT_EQ(plan.fault_for_attempt(t, c, 1),
                plan.fault_for_attempt(t, c, 1));
      if (plan.fault_for_attempt(t, c, 1) != plan.fault_for_attempt(t, c, 0))
        any_differs = true;
    }
  }
  // ...but independent of the first-attempt stream.
  EXPECT_TRUE(any_differs);
}

// ---- streaming screen_one ----

std::vector<tensor::Shape> unit_shapes() { return {tensor::Shape({2})}; }

TEST(ScreenOne, ReturnsStalenessInsteadOfBareReject) {
  UpdateScreener screener;
  ScreeningReport report;
  ClientUpdate u{0, /*round=*/3, {Tensor::ones({2})}};
  ScreenVerdict v =
      screener.screen_one(u, unit_shapes(), /*current_round=*/5,
                          /*max_staleness=*/8, report);
  EXPECT_TRUE(v.accepted());
  EXPECT_EQ(v.staleness, 2);
  EXPECT_EQ(report.accepted, 1);
}

TEST(ScreenOne, MaxStalenessZeroReproducesSyncSemantics) {
  UpdateScreener screener;
  ScreeningReport report;
  ClientUpdate fresh{0, 5, {Tensor::ones({2})}};
  ClientUpdate stale{0, 4, {Tensor::ones({2})}};
  EXPECT_TRUE(
      screener.screen_one(fresh, unit_shapes(), 5, 0, report).accepted());
  ScreenVerdict v = screener.screen_one(stale, unit_shapes(), 5, 0, report);
  ASSERT_FALSE(v.accepted());
  EXPECT_EQ(*v.reject, RejectReason::kStaleRound);
  EXPECT_EQ(report.rejected_stale, 1);
}

TEST(ScreenOne, FutureRoundTagAlwaysRejects) {
  UpdateScreener screener;
  ScreeningReport report;
  ClientUpdate future{0, 9, {Tensor::ones({2})}};
  ScreenVerdict v = screener.screen_one(future, unit_shapes(), 5, 8, report);
  ASSERT_FALSE(v.accepted());
  EXPECT_EQ(*v.reject, RejectReason::kStaleRound);
  EXPECT_EQ(v.staleness, -4);
}

TEST(ScreenOne, StructuralAndFiniteChecksStillApply) {
  UpdateScreener screener;
  ScreeningReport report;
  ClientUpdate wrong_shape{0, 5, {Tensor::ones({3})}};
  EXPECT_EQ(*screener.screen_one(wrong_shape, unit_shapes(), 5, 8, report)
                 .reject,
            RejectReason::kShapeMismatch);
  ClientUpdate poisoned{0, 5, {Tensor::ones({2})}};
  poisoned.delta[0].data()[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(*screener.screen_one(poisoned, unit_shapes(), 5, 8, report)
                 .reject,
            RejectReason::kNonFinite);
  ScreeningConfig capped;
  capped.max_update_norm = 0.5;
  UpdateScreener strict(capped);
  ClientUpdate big{0, 5, {Tensor::ones({2})}};
  EXPECT_EQ(*strict.screen_one(big, unit_shapes(), 5, 8, report).reject,
            RejectReason::kNormOutlier);
}

TEST(KernelCheck, FiniteTestRejectsEveryNonFiniteAnywhere) {
  // Quiet, signalling and negative NaN and both infinities, at the
  // first, middle and last element and at the first element of the
  // tail past the last 4-wide step, in the second of two tensors; the
  // extremes of the finite floats pass.
  const float kNonFinite[] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::signaling_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  const float kFinite[] = {0.0f, -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::lowest()};
  UpdateScreener screener;
  ScreeningReport report;
  for (const std::int64_t n : {1, 6, 8, 13, 37}) {
    const std::vector<tensor::Shape> shapes = {tensor::Shape({3}),
                                               tensor::Shape({n})};
    for (const std::int64_t at : {std::int64_t{0}, n / 2, n - 1, n - n % 4}) {
      if (at >= n) continue;
      for (const float v : kNonFinite) {
        ClientUpdate u{0, 5, {Tensor::ones({3}), Tensor::ones({n})}};
        u.delta[1].at(at) = v;
        const ScreenVerdict verdict =
            screener.screen_one(u, shapes, 5, 0, report);
        ASSERT_FALSE(verdict.accepted()) << "n=" << n << " at " << at;
        EXPECT_EQ(*verdict.reject, RejectReason::kNonFinite)
            << "n=" << n << " at " << at << " value " << v;
      }
      for (const float v : kFinite) {
        ClientUpdate u{0, 5, {Tensor::ones({3}), Tensor::ones({n})}};
        u.delta[1].at(at) = v;
        EXPECT_TRUE(screener.screen_one(u, shapes, 5, 0, report).accepted())
            << "n=" << n << " at " << at << " value " << v;
      }
    }
  }
}

// ---- the async fold ----

ClientUpdate delta_update(std::int64_t round, float v0, float v1) {
  return {0, round, {Tensor::from_vector({2}, {v0, v1})}};
}

TEST(AsyncFold, StaleByOneEntersAtHalfWeight) {
  // alpha = 1: staleness 1 -> weight 1/2.
  Server server({Tensor::zeros({2})},
                {.max_staleness = 8, .staleness_alpha = 1.0});
  StreamingReducer buffer;
  ScreeningReport report;
  const ScreenVerdict fresh = server.screen_and_push(
      delta_update(3, 6.0f, 0.0f), /*now=*/3, buffer, report);
  EXPECT_TRUE(fresh.accepted());
  EXPECT_EQ(fresh.staleness, 0);
  const ScreenVerdict stale = server.screen_and_push(
      delta_update(2, 12.0f, 3.0f), /*now=*/3, buffer, report);
  EXPECT_TRUE(stale.accepted());
  EXPECT_EQ(stale.staleness, 1);
  EXPECT_EQ(report.accepted, 2);
  server.apply_mean(finalize_mean(buffer.finalize()), 2);

  TensorList expected = {Tensor::zeros({2})};
  tensor::list::add_(expected,
                     finalize_mean(reduce_buffered(
                         {delta_update(3, 6.0f, 0.0f).delta,
                          delta_update(2, 12.0f, 3.0f).delta},
                         {1.0, 0.5})),
                     1.0f);
  EXPECT_EQ(serialize_tensor_list(server.weights()),
            serialize_tensor_list(expected));
  // (1*6 + 0.5*12) / 1.5 = 8 ; (1*0 + 0.5*3) / 1.5 = 1.
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 8.0f);
  EXPECT_FLOAT_EQ(server.weights()[0].at(1), 1.0f);
}

TEST(AsyncFold, PastHorizonOrFutureRejectsAndPushesNothing) {
  Server server({Tensor::zeros({2})},
                {.max_staleness = 2, .staleness_alpha = 0.5});
  StreamingReducer buffer;
  ScreeningReport report;
  for (const std::int64_t round : {2, 6}) {  // 3 behind now, 1 ahead
    const ScreenVerdict v = server.screen_and_push(
        delta_update(round, 1.0f, 1.0f), /*now=*/5, buffer, report);
    ASSERT_FALSE(v.accepted()) << "round " << round;
    EXPECT_EQ(*v.reject, RejectReason::kStaleRound);
  }
  EXPECT_EQ(report.rejected_stale, 2);
  EXPECT_EQ(buffer.max_occupancy(), 0);
  EXPECT_TRUE(buffer.finalize().empty());
  // The horizon itself is inside.
  EXPECT_TRUE(server
                  .screen_and_push(delta_update(3, 1.0f, 1.0f), 5, buffer,
                                   report)
                  .accepted());
  EXPECT_EQ(buffer.finalize().leaves, 1);
}

TEST(AsyncFold, FreshUpdateIsPushedUnscaled) {
  // The sync setting (horizon 0): whatever alpha says, a fresh update
  // enters with weight exactly 1 and its bytes untouched.
  Rng rng(9);
  Server server({Tensor::zeros({3, 4}), Tensor::zeros({5})},
                {.staleness_alpha = 1.0});
  StreamingReducer folded;
  StreamingReducer pushed;
  ScreeningReport report;
  for (int i = 0; i < 5; ++i) {
    const TensorList delta = {Tensor::randn({3, 4}, rng),
                              Tensor::randn({5}, rng)};
    ASSERT_TRUE(server
                    .screen_and_push({i, server.round(),
                                      tensor::list::clone(delta)},
                                     server.round(), folded, report)
                    .accepted());
    pushed.push(tensor::list::clone(delta), 1.0);
  }
  const ReduceNode a = folded.finalize();
  const ReduceNode b = pushed.finalize();
  EXPECT_EQ(a.weight, 5.0);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(serialize_tensor_list(a.sum), serialize_tensor_list(b.sum));
}

// ---- reduced-quorum degradation tier (sync server) ----

TEST(Server, ReducedQuorumAppliesWithNoiseWideningSurfaced) {
  Server server({Tensor::zeros({2})},
                {.min_reporting = 3, .reduced_min_reporting = 1});
  std::vector<ClientUpdate> updates(1);
  updates[0] = {0, 0, {Tensor::from_vector({2}, {3.0f, 9.0f})}};
  AggregateOutcome outcome =
      server.aggregate(std::move(updates));
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.tier, DegradationTier::kReducedQuorum);
  EXPECT_DOUBLE_EQ(outcome.noise_widening, 3.0);
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 3.0f);
  EXPECT_EQ(server.round(), 1);
}

TEST(Server, BelowReducedQuorumStillSkips) {
  Server server({Tensor::ones({1})},
                {.min_reporting = 3, .reduced_min_reporting = 2});
  std::vector<ClientUpdate> updates(1);
  updates[0] = {0, 0, {Tensor::ones({1})}};
  AggregateOutcome outcome =
      server.aggregate(std::move(updates));
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(outcome.tier, DegradationTier::kSkipRound);
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 1.0f);
  EXPECT_EQ(server.round(), 0);
}

TEST(Server, ReducedQuorumAboveFullQuorumRejected) {
  EXPECT_THROW(Server({Tensor::ones({1})},
                      {.min_reporting = 2, .reduced_min_reporting = 3}),
               Error);
}

// ---- async trainer mode ----

FlExperimentConfig async_config() {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.seed = 77;
  config.async_mode = true;
  return config;
}

// End to end: with M = 3 and four fault-free clients a round, the 24
// accepted updates of six rounds trip eight quorum applies, each at the
// third buffered update, with the leftovers carried into the next
// round. Every round applies, so none flushes.
TEST(AsyncFold, AppliesAtTheMthAcceptedUpdate) {
  FlExperimentConfig config = async_config();
  config.async.min_to_apply = 3;
  core::NonPrivatePolicy policy;
  const FlRunResult result = run_experiment(config, policy);
  const telemetry::TelemetrySnapshot& snap = result.telemetry;
  EXPECT_EQ(result.updates_accepted, 24);
  EXPECT_EQ(snap.counter_value("fl.async.applied_total",
                               {{"trigger", "quorum"}}),
            8);
  EXPECT_EQ(snap.counter_value("fl.async.applied_total",
                               {{"trigger", "flush"}}),
            0);
  EXPECT_EQ(result.async_applies, 8);
  EXPECT_EQ(result.reduced_quorum_rounds, 0);
  // Counted at apply, so every accepted update, once.
  EXPECT_EQ(snap.counter_value("fl.server.updates_accepted_total"), 24);
  // The buffer never holds more than M = 3 leaves: floor(log2 3) + 1.
  EXPECT_GT(result.max_stream_levels, 0);
  EXPECT_LE(result.max_stream_levels, 2);
}

// With M = 5 above the four clients a round, no round trips the
// threshold: each flushes its four updates at its end under the
// reduced-quorum tier, widening M / buffered = 5/4.
TEST(AsyncFold, FlushesAPartialBufferAtRoundEnd) {
  FlExperimentConfig config = async_config();
  config.rounds = 3;
  config.async.min_to_apply = 5;
  core::NonPrivatePolicy policy;
  const FlRunResult result = run_experiment(config, policy);
  const telemetry::TelemetrySnapshot& snap = result.telemetry;
  EXPECT_EQ(snap.counter_value("fl.async.applied_total",
                               {{"trigger", "flush"}}),
            3);
  EXPECT_EQ(snap.counter_value("fl.async.applied_total",
                               {{"trigger", "quorum"}}),
            0);
  EXPECT_EQ(result.completed_rounds, 3);
  EXPECT_EQ(result.reduced_quorum_rounds, 3);
  EXPECT_EQ(snap.counter_value("fl.round.degraded_total",
                               {{"tier", "reduced-quorum"}}),
            3);
  EXPECT_DOUBLE_EQ(result.max_noise_widening, 1.25);
  for (const telemetry::SeriesPoint& p :
       snap.series_points("fl.round.noise_widening")) {
    EXPECT_DOUBLE_EQ(p.value, 1.25);
  }
}

// Under stragglers: every accepted update's staleness is observed, the
// ones above zero are the stale accepts, and the last apply leaves the
// buffer empty.
TEST(AsyncFold, RecordsStalenessAndEmptiesTheBuffer) {
  FlExperimentConfig config = async_config();
  config.rounds = 8;
  config.faults.fault_rate = 0.5;
  config.faults.crash_weight = 0.0;
  config.faults.corrupt_weight = 0.0;
  config.faults.bit_flip_weight = 0.0;
  config.faults.stale_round_weight = 0.0;
  core::NonPrivatePolicy policy;
  const FlRunResult result = run_experiment(config, policy);
  const telemetry::TelemetrySnapshot& snap = result.telemetry;
  const telemetry::HistogramSample* staleness =
      snap.find_histogram("fl.async.staleness");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count, result.updates_accepted);
  const std::int64_t stale =
      snap.counter_value("fl.async.stale_accepted_total");
  EXPECT_GT(stale, 0);
  EXPECT_EQ(staleness->count - staleness->counts[0], stale);
  EXPECT_EQ(snap.gauge_value("fl.async.buffer_occupancy"), 0.0);
}

TEST(AsyncTrainer, FaultFreeRunAppliesEveryRound) {
  FlExperimentConfig config = async_config();
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.history.size(), 6u);
  EXPECT_EQ(result.dropped_rounds, 0);
  EXPECT_GE(result.async_applies, 6);
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
  for (const auto& t : result.final_weights) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p[i]));
    }
  }
}

TEST(AsyncTrainer, StragglersAreAbsorbedStaleNotDropped) {
  FlExperimentConfig config = async_config();
  config.rounds = 8;
  config.faults.fault_rate = 0.5;
  config.faults.crash_weight = 0.0;
  config.faults.straggler_weight = 1.0;
  config.faults.corrupt_weight = 0.0;
  config.faults.bit_flip_weight = 0.0;
  config.faults.stale_round_weight = 0.0;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.dropped_rounds, 0);
  EXPECT_GT(result.total_failures.injected_straggler, 0);
  // At least one straggler landed inside the horizon and was folded in
  // with a decay weight rather than rejected.
  EXPECT_GT(result.total_failures.fault_accepted_stale, 0);
  EXPECT_GT(
      result.telemetry.counter_value("fl.async.stale_accepted_total"), 0);
  EXPECT_EQ(result.total_failures.injected_total(),
            result.total_failures.faults_resolved_total());
}

TEST(AsyncTrainer, RetryBudgetRecoversCrashes) {
  FlExperimentConfig config = async_config();
  config.rounds = 8;
  config.retry.max_attempts = 3;
  config.faults.fault_rate = 0.6;
  config.faults.crash_weight = 1.0;
  config.faults.straggler_weight = 0.0;
  config.faults.corrupt_weight = 0.0;
  config.faults.bit_flip_weight = 0.0;
  config.faults.stale_round_weight = 0.0;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_GT(result.total_failures.retry_attempts, 0);
  EXPECT_GT(result.total_failures.fault_retried, 0);
  EXPECT_EQ(result.total_failures.injected_total(),
            result.total_failures.faults_resolved_total());
  EXPECT_GT(result.telemetry.counter_value("fl.retry.attempts_total"), 0);
}

// Every ledger field, in one comparable list.
std::vector<std::int64_t> ledger_fields(const RoundFailureStats& f) {
  return {f.injected_crash,        f.injected_straggler,
          f.injected_corrupt,      f.injected_bit_flip,
          f.injected_stale,        f.dropouts,
          f.rejected_decode,       f.rejected_shape,
          f.rejected_non_finite,   f.rejected_norm_outlier,
          f.rejected_stale,        f.retried_clients,
          f.quorum_missed,         f.fault_expired,
          f.fault_screened,        f.fault_retried,
          f.fault_accepted_stale,  f.retry_attempts,
          f.reduced_quorum_rounds};
}

// The determinism contract: the async engine trains a round's clients
// on the pool but folds their updates on the loop thread, in cohort
// order, so the serial and the parallel schedule fold the same updates
// in the same order and end bitwise equal — under faults, retries and
// late arrivals, and with Fed-SDP noising each update at the client
// from its own (round, client) stream.
TEST(AsyncTrainer, SerializedExecutorIsBitwiseReproducible) {
  FlExperimentConfig config = async_config();
  config.total_clients = 64;
  config.clients_per_round = 32;
  config.rounds = 10;
  config.seed = 5;
  config.retry.max_attempts = 3;
  config.faults.fault_rate = 0.4;
  config.noise_scale = 0.25;
  const std::unique_ptr<core::PrivacyPolicy> policies[] = {
      core::make_non_private(), core::make_fed_sdp(4.0, 0.25)};
  for (const auto& policy : policies) {
    SCOPED_TRACE(policy->name());
    config.parallel_clients = false;
    const FlRunResult serial = run_experiment(config, *policy);
    config.parallel_clients = true;
    const FlRunResult parallel = run_experiment(config, *policy);
    ASSERT_EQ(serial.final_weights.size(), parallel.final_weights.size());
    for (std::size_t i = 0; i < serial.final_weights.size(); ++i) {
      const Tensor& ta = serial.final_weights[i];
      const Tensor& tb = parallel.final_weights[i];
      ASSERT_EQ(ta.numel(), tb.numel());
      for (std::int64_t j = 0; j < ta.numel(); ++j) {
        ASSERT_EQ(ta.data()[j], tb.data()[j])
            << "weights diverged at tensor " << i << " element " << j;
      }
    }
    EXPECT_EQ(ledger_fields(serial.total_failures),
              ledger_fields(parallel.total_failures));
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t r = 0; r < serial.history.size(); ++r) {
      EXPECT_EQ(ledger_fields(serial.history[r].failures),
                ledger_fields(parallel.history[r].failures))
          << "round " << r;
    }
    EXPECT_EQ(serial.final_accuracy, parallel.final_accuracy);
    EXPECT_EQ(serial.async_applies, parallel.async_applies);
    // Not vacuous: retries ran and late arrivals folded in stale.
    EXPECT_GT(serial.total_failures.fault_retried, 0);
    EXPECT_GT(serial.total_failures.fault_accepted_stale, 0);
  }
}

TEST(SyncTrainer, DefaultsAreBitwiseIdenticalToLegacyEngine) {
  // The retry/degradation layers default off; a default-config sync run
  // must produce exactly the same weights as before this feature — this
  // guards the config plumbing (an accidentally-on retry path would
  // change RNG consumption and show up here as a weight diff).
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 4;
  config.seed = 31;
  config.faults.fault_rate = 0.3;
  core::NonPrivatePolicy policy;
  FlRunResult a = run_experiment(config, policy);
  config.retry.max_attempts = 1;  // explicit default
  config.reduced_min_reporting = 0;
  FlRunResult b = run_experiment(config, policy);
  for (std::size_t i = 0; i < a.final_weights.size(); ++i) {
    for (std::int64_t j = 0; j < a.final_weights[i].numel(); ++j) {
      ASSERT_EQ(a.final_weights[i].data()[j], b.final_weights[i].data()[j]);
    }
  }
}

}  // namespace
}  // namespace fedcl::fl
