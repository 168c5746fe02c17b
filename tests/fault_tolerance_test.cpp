// Fault injection, update screening, and graceful degradation of the
// round engine: a faulty or malicious client costs the round at most
// its own update; the experiment always completes every round.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/fault_injection.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl/update_screening.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;

// ---- fault plan ----

TEST(FaultPlan, DeterministicAndOrderIndependent) {
  FaultInjectionConfig cfg;
  cfg.fault_rate = 0.5;
  FaultPlan plan(cfg, 42);
  // Same (round, client) always draws the same fault, in any order.
  const FaultType a = plan.fault_for(3, 7);
  EXPECT_EQ(plan.fault_for(9, 1), plan.fault_for(9, 1));
  EXPECT_EQ(plan.fault_for(3, 7), a);
  FaultPlan same(cfg, 42);
  EXPECT_EQ(same.fault_for(3, 7), a);
}

TEST(FaultPlan, ZeroRateNeverFires) {
  FaultPlan plan({}, 1);
  for (std::int64_t t = 0; t < 20; ++t) {
    for (std::int64_t c = 0; c < 20; ++c) {
      EXPECT_EQ(plan.fault_for(t, c), FaultType::kNone);
    }
  }
}

TEST(FaultPlan, FullRateAlwaysFires) {
  FaultInjectionConfig cfg;
  cfg.fault_rate = 1.0;
  FaultPlan plan(cfg, 7);
  for (std::int64_t t = 0; t < 10; ++t) {
    for (std::int64_t c = 0; c < 10; ++c) {
      EXPECT_NE(plan.fault_for(t, c), FaultType::kNone);
    }
  }
}

TEST(FaultPlan, MixWeightsSelectTypes) {
  FaultInjectionConfig cfg;
  cfg.fault_rate = 1.0;
  cfg.crash_weight = 1.0;
  cfg.straggler_weight = 0.0;
  cfg.corrupt_weight = 0.0;
  cfg.bit_flip_weight = 0.0;
  cfg.stale_round_weight = 0.0;
  FaultPlan plan(cfg, 13);
  for (std::int64_t c = 0; c < 50; ++c) {
    EXPECT_EQ(plan.fault_for(0, c), FaultType::kCrash);
  }
}

TEST(FaultPlan, RateApproximatelyRespected) {
  FaultInjectionConfig cfg;
  cfg.fault_rate = 0.2;
  FaultPlan plan(cfg, 99);
  int fired = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (plan.fault_for(i / 100, i % 100) != FaultType::kNone) ++fired;
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.2, 0.03);
}

TEST(FaultPlan, Validation) {
  FaultInjectionConfig bad;
  bad.fault_rate = 1.5;
  EXPECT_THROW(FaultPlan(bad, 0), Error);
  bad.fault_rate = 0.5;
  bad.crash_weight = bad.straggler_weight = bad.corrupt_weight =
      bad.bit_flip_weight = bad.stale_round_weight = 0.0;
  EXPECT_THROW(FaultPlan(bad, 0), Error);
}

// ---- fault mutators ----

TEST(FaultMutators, CorruptDeltaAlwaysPoisons) {
  Rng rng(5);
  TensorList delta = {Tensor::ones({16}), Tensor::ones({4, 4})};
  corrupt_delta(delta, rng);
  bool non_finite = false;
  for (const auto& t : delta) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(t.data()[i])) non_finite = true;
    }
  }
  EXPECT_TRUE(non_finite);
}

TEST(FaultMutators, FlipRandomBitsChangesBuffer) {
  Rng rng(6);
  std::vector<std::uint8_t> bytes(64, 0xAA);
  const auto original = bytes;
  flip_random_bits(bytes, rng, 3);
  EXPECT_NE(bytes, original);
  EXPECT_EQ(bytes.size(), original.size());
}

// ---- update screening ----

std::vector<tensor::Shape> expected_shapes() { return {{2}, {3}}; }

ClientUpdate good_update(std::int64_t id, std::int64_t round,
                         float scale = 1.0f) {
  ClientUpdate u;
  u.client_id = id;
  u.round = round;
  u.delta = {Tensor::full({2}, scale), Tensor::full({3}, scale)};
  return u;
}

TEST(UpdateScreening, AcceptsValidRejectsEachReason) {
  UpdateScreener screener;
  std::vector<ClientUpdate> updates;
  updates.push_back(good_update(0, 5));
  updates.push_back(good_update(1, 4));  // stale
  ClientUpdate wrong_shape = good_update(2, 5);
  wrong_shape.delta.pop_back();
  updates.push_back(std::move(wrong_shape));
  ClientUpdate poisoned = good_update(3, 5);
  poisoned.delta[0].data()[1] = std::numeric_limits<float>::quiet_NaN();
  updates.push_back(std::move(poisoned));

  ScreeningReport report;
  std::vector<std::optional<RejectReason>> verdicts;
  for (const ClientUpdate& u : updates) {
    verdicts.push_back(
        screener.screen_one(u, expected_shapes(), 5, 0, report).reject);
  }
  const std::vector<std::optional<RejectReason>> expected = {
      std::nullopt, RejectReason::kStaleRound, RejectReason::kShapeMismatch,
      RejectReason::kNonFinite};
  EXPECT_EQ(verdicts, expected);
  EXPECT_EQ(report.accepted, 1);
  EXPECT_EQ(report.rejected_stale, 1);
  EXPECT_EQ(report.rejected_shape, 1);
  EXPECT_EQ(report.rejected_non_finite, 1);
  EXPECT_EQ(report.rejected_total(), 3);
}

TEST(UpdateScreening, AbsoluteNormCap) {
  UpdateScreener screener({.max_update_norm = 1.0});
  ScreeningReport report;
  EXPECT_TRUE(screener
                  .screen_one(good_update(0, 0, 0.1f), expected_shapes(), 0,
                              0, report)
                  .accepted());
  EXPECT_EQ(screener
                .screen_one(good_update(1, 0, 50.0f), expected_shapes(), 0, 0,
                            report)
                .reject,
            RejectReason::kNormOutlier);
  EXPECT_EQ(report.accepted, 1);
  EXPECT_EQ(report.rejected_norm_outlier, 1);
}

// ---- server graceful degradation ----

TEST(Server, AggregateScreensMixedBatch) {
  Server server({Tensor::zeros({2})});
  std::vector<ClientUpdate> updates(3);
  updates[0] = {0, 0, {Tensor::from_vector({2}, {2, 4})}};
  updates[1] = {1, 7, {Tensor::from_vector({2}, {100, 100})}};  // stale
  updates[2] = {2, 0, {Tensor::from_vector({2}, {4, 0})}};
  ScreeningReport report =
      server.aggregate(std::move(updates)).screening;
  EXPECT_EQ(report.accepted, 2);
  EXPECT_EQ(report.rejected_stale, 1);
  // Mean of the two valid updates only.
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 3.0f);
  EXPECT_FLOAT_EQ(server.weights()[0].at(1), 2.0f);
  EXPECT_EQ(server.round(), 1);
}

TEST(Server, QuorumMissLeavesModelUntouched) {
  Server server({Tensor::ones({2})}, {.min_reporting = 2});
  std::vector<ClientUpdate> updates(2);
  updates[0] = {0, 0, {Tensor::full({2}, 5.0f)}};
  ClientUpdate bad = {1, 0, {Tensor::full({2}, 9.0f)}};
  bad.delta[0].data()[0] = std::numeric_limits<float>::infinity();
  updates[1] = std::move(bad);
  ScreeningReport report =
      server.aggregate(std::move(updates)).screening;
  EXPECT_EQ(report.accepted, 1);
  EXPECT_EQ(report.rejected_non_finite, 1);
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 1.0f);  // untouched
  EXPECT_EQ(server.round(), 0);                      // not advanced
}

TEST(Server, EmptyBatchIsAQuorumMissNotAnAbort) {
  Server server({Tensor::ones({1})});
  ScreeningReport report =
      server.aggregate({}).screening;
  EXPECT_EQ(report.accepted, 0);
  EXPECT_EQ(server.round(), 0);
}

// ---- trainer under injected faults ----

FlExperimentConfig faulty_config() {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.seed = 31;
  return config;
}

TEST(TrainerFaults, MixedFaultsCompleteAllRoundsWithExactAccounting) {
  FlExperimentConfig config = faulty_config();
  config.faults.fault_rate = 0.3;  // all five types in the mix
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);

  ASSERT_EQ(result.history.size(), 6u);
  EXPECT_EQ(result.completed_rounds + result.dropped_rounds, 6);
  EXPECT_GE(result.final_accuracy, 0.0);

  const RoundFailureStats& f = result.total_failures;
  EXPECT_GT(f.injected_total(), 0);  // rate 0.3 over 24+ draws
  // Every injected fault resolves to exactly one disposition, and with
  // norm screening off no update is rejected as an outlier.
  EXPECT_EQ(f.faults_resolved_total(), f.injected_total());
  EXPECT_EQ(f.rejected_norm_outlier, 0);
  // Bit flips surface as decode rejections, corruption as non-finite,
  // replays as stale.
  EXPECT_EQ(f.rejected_decode, f.injected_bit_flip);
  EXPECT_EQ(f.rejected_non_finite, f.injected_corrupt);
  EXPECT_EQ(f.rejected_stale, f.injected_stale);
  EXPECT_EQ(f.rejected_shape, 0);

  // The aggregate equals the sum of the per-round records.
  RoundFailureStats per_round_sum;
  for (const auto& r : result.history) {
    per_round_sum.accumulate(r.failures);
  }
  EXPECT_EQ(per_round_sum.injected_total(), f.injected_total());
  EXPECT_EQ(per_round_sum.rejected_total(), f.rejected_total());
  EXPECT_EQ(per_round_sum.quorum_missed, result.dropped_rounds);
}

TEST(TrainerFaults, DeterministicForSeedUnderFaults) {
  FlExperimentConfig config = faulty_config();
  config.faults.fault_rate = 0.25;
  core::NonPrivatePolicy policy;
  FlRunResult a = run_experiment(config, policy);
  FlRunResult b = run_experiment(config, policy);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_failures.injected_total(),
            b.total_failures.injected_total());
  EXPECT_EQ(a.total_failures.rejected_total(),
            b.total_failures.rejected_total());
  EXPECT_EQ(a.dropped_rounds, b.dropped_rounds);
}

TEST(TrainerFaults, AllClientsCrashingSkipsEveryRoundGracefully) {
  FlExperimentConfig config = faulty_config();
  config.faults.fault_rate = 1.0;
  config.faults.straggler_weight = 0.0;
  config.faults.corrupt_weight = 0.0;
  config.faults.bit_flip_weight = 0.0;
  config.faults.stale_round_weight = 0.0;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);

  // Nothing aggregates, yet every round is recorded and the run ends
  // with a usable (initial) model.
  EXPECT_EQ(result.history.size(), 6u);
  EXPECT_EQ(result.dropped_rounds, 6);
  EXPECT_EQ(result.completed_rounds, 0);
  EXPECT_EQ(result.total_failures.quorum_missed, 6);
  EXPECT_FALSE(std::isnan(result.final_accuracy));
  EXPECT_GE(result.final_accuracy, 0.0);
  // Retry sampled replacements each round (4 transient failures, 4
  // spare clients), which also crashed.
  EXPECT_EQ(result.total_failures.retried_clients, 6 * 4);
  EXPECT_EQ(result.total_failures.injected_crash, 6 * 8);
  for (const auto& r : result.history) {
    EXPECT_TRUE(std::isnan(r.accuracy));
    EXPECT_EQ(r.failures.quorum_missed, 1);
  }
}

TEST(TrainerFaults, RetryDisabledLeavesPoolUntouched) {
  FlExperimentConfig config = faulty_config();
  config.faults.fault_rate = 1.0;
  config.faults.straggler_weight = 0.0;
  config.faults.corrupt_weight = 0.0;
  config.faults.bit_flip_weight = 0.0;
  config.faults.stale_round_weight = 0.0;
  config.retry_failed_clients = false;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.total_failures.retried_clients, 0);
  EXPECT_EQ(result.total_failures.injected_crash, 6 * 4);
  EXPECT_EQ(result.dropped_rounds, 6);
}

TEST(TrainerFaults, QuorumAboveDeliveryDropsRounds) {
  FlExperimentConfig config = faulty_config();
  config.min_reporting = config.clients_per_round + 1;  // unreachable
  config.retry_failed_clients = false;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.dropped_rounds, 6);
  EXPECT_EQ(result.total_failures.quorum_missed, 6);
  EXPECT_FALSE(std::isnan(result.final_accuracy));
}

TEST(TrainerFaults, DropoutAndQuorumAccountingStayConsistent) {
  // Heavy natural dropout + crash faults: dropped_rounds, per-round
  // quorum stats, and history length must stay mutually consistent.
  FlExperimentConfig config = faulty_config();
  config.client_dropout = 0.6;
  config.faults.fault_rate = 0.3;
  config.eval_every = 1;  // applied rounds always record an accuracy
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);

  ASSERT_EQ(result.history.size(), 6u);
  std::int64_t skipped = 0;
  for (const auto& r : result.history) {
    if (std::isnan(r.accuracy) || r.failures.quorum_missed > 0) {
      EXPECT_EQ(r.failures.quorum_missed, std::isnan(r.accuracy) ? 1 : 0);
    }
    skipped += r.failures.quorum_missed;
  }
  EXPECT_EQ(skipped, result.dropped_rounds);
  EXPECT_EQ(result.completed_rounds + result.dropped_rounds, 6);
  EXPECT_GT(result.total_failures.dropouts, 0);
  EXPECT_FALSE(std::isnan(result.final_accuracy));
}

TEST(TrainerFaults, NormScreeningSurvivesTraining) {
  // A norm cap far above an honest update's norm: nothing should be
  // rejected, accuracy unaffected.
  FlExperimentConfig config = faulty_config();
  config.screening.max_update_norm = 1e3;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.total_failures.rejected_total(), 0);
  EXPECT_EQ(result.dropped_rounds, 0);
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(TrainerFaults, RoundWithEveryUpdateScreenedOutRunsTheRetryPass) {
  // The retry trigger counts accepted updates, not deliveries: a cap
  // below every honest update's norm screens out whatever a round
  // delivers, so a round that also lost a client to dropout draws
  // replacements though some of its clients delivered.
  FlExperimentConfig config = faulty_config();
  config.client_dropout = 0.5;
  config.screening.max_update_norm = 1e-12;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);

  EXPECT_EQ(result.updates_accepted, 0);
  EXPECT_EQ(result.dropped_rounds, 6);
  std::int64_t screened_and_dropped = 0;
  for (const RoundRecord& r : result.history) {
    const std::int64_t delivered = r.failures.rejected_norm_outlier;
    EXPECT_EQ(r.failures.retried_clients > 0, r.failures.dropouts > 0)
        << "round " << r.round;
    if (r.failures.dropouts > 0 &&
        delivered > r.failures.retried_clients) {
      ++screened_and_dropped;  // a primary client delivered, and retried
    }
  }
  EXPECT_GT(screened_and_dropped, 0);
}

TEST(TrainerFaults, ValidatesMinReporting) {
  FlExperimentConfig config = faulty_config();
  config.min_reporting = 0;
  core::NonPrivatePolicy policy;
  EXPECT_THROW(run_experiment(config, policy), Error);
}

}  // namespace
}  // namespace fedcl::fl
