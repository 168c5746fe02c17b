// Chaos soak: every fault type at aggressive rates for 50+ rounds,
// through both round engines, with and without the retry budget. The
// point is not accuracy — it is that the engines survive sustained
// abuse without crashing, without poisoning the model with non-finite
// weights, and without losing track of a single fault: the disposition
// ledger (expired / screened / retried / accepted-stale) must balance
// against the injection counters exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"

namespace fedcl::fl {
namespace {

FlExperimentConfig soak_config(bool async_mode, int max_attempts,
                               std::uint64_t seed) {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 50;
  config.min_reporting = 1;
  config.seed = seed;
  config.async_mode = async_mode;
  config.retry.max_attempts = max_attempts;
  // All five fault types, half of all dispatches faulty.
  config.faults.fault_rate = 0.5;
  config.faults.crash_weight = 1.0;
  config.faults.straggler_weight = 1.0;
  config.faults.corrupt_weight = 1.0;
  config.faults.bit_flip_weight = 1.0;
  config.faults.stale_round_weight = 1.0;
  return config;
}

void assert_survived(const FlRunResult& result,
                     const FlExperimentConfig& config) {
  // The run completed: one history record per round, and every round is
  // accounted as either applied or dropped.
  ASSERT_EQ(result.history.size(),
            static_cast<std::size_t>(config.effective_rounds()));
  EXPECT_EQ(result.completed_rounds + result.dropped_rounds,
            config.effective_rounds());

  // The model never absorbed a poisoned update: every weight finite.
  for (const auto& t : result.final_weights) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p[i])) << "non-finite weight at " << i;
    }
  }

  // Under this much injection some faults must actually have fired.
  EXPECT_GT(result.total_failures.injected_total(), 0);

  // The disposition ledger balances exactly: every injected fault
  // instance resolved to expired, screened, retried, or accepted-stale
  // — regardless of dropout, retries, or which engine ran.
  EXPECT_EQ(result.total_failures.injected_total(),
            result.total_failures.faults_resolved_total())
      << "expired=" << result.total_failures.fault_expired
      << " screened=" << result.total_failures.fault_screened
      << " retried=" << result.total_failures.fault_retried
      << " accepted_stale=" << result.total_failures.fault_accepted_stale;

  // Per-round stats sum to the run totals (accumulate() drift check).
  // One sanctioned exception: in async mode, arrivals still pending
  // when the run ends are expired by the end-of-run drain — those
  // resolutions happen after the last round, so they appear in the run
  // totals but in no round record.
  RoundFailureStats summed;
  for (const auto& record : result.history) {
    summed.accumulate(record.failures);
  }
  EXPECT_EQ(summed.injected_total(), result.total_failures.injected_total());
  EXPECT_EQ(summed.rejected_total(), result.total_failures.rejected_total());
  EXPECT_EQ(summed.retry_attempts, result.total_failures.retry_attempts);
  const std::int64_t drained_expired =
      result.total_failures.fault_expired - summed.fault_expired;
  EXPECT_GE(drained_expired, 0);
  EXPECT_EQ(summed.faults_resolved_total() + drained_expired,
            result.total_failures.faults_resolved_total())
      << "disposition drift beyond the end-of-run drain";
  EXPECT_EQ(summed.fault_screened, result.total_failures.fault_screened);
  EXPECT_EQ(summed.fault_retried, result.total_failures.fault_retried);
  EXPECT_EQ(summed.fault_accepted_stale,
            result.total_failures.fault_accepted_stale);
}

// floor(log2 n) + 1: the binary-counter levels n pushed leaves can fill.
std::int64_t level_bound(std::int64_t n) {
  std::int64_t bound = 1;
  for (std::int64_t v = n; v > 1; v >>= 1) ++bound;
  return bound;
}

// The async buffer applies at M = min_to_apply updates, so it never
// holds more than M leaves: 0 < occupancy <= floor(log2 M) + 1.
void assert_async_buffer_bounded(const FlRunResult& result,
                                 const FlExperimentConfig& config) {
  const std::int64_t m =
      resolve_async_config(config.async, config.clients_per_round)
          .min_to_apply;
  EXPECT_GT(result.max_stream_levels, 0);
  EXPECT_LE(result.max_stream_levels, level_bound(m));
}

TEST(ChaosSoak, SyncEngineNoRetries) {
  FlExperimentConfig config = soak_config(/*async=*/false,
                                          /*max_attempts=*/1, 1301);
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  EXPECT_EQ(result.total_failures.retry_attempts, 0);
  EXPECT_EQ(result.total_failures.fault_retried, 0);
}

TEST(ChaosSoak, SyncEngineWithRetriesAndDegradation) {
  FlExperimentConfig config = soak_config(/*async=*/false,
                                          /*max_attempts=*/3, 1302);
  config.min_reporting = 2;
  config.reduced_min_reporting = 1;
  config.client_dropout = 0.1;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  EXPECT_GT(result.total_failures.retry_attempts, 0);
  // The reduced-quorum tier saved at least one round from a skip, and
  // its widening factor was surfaced.
  if (result.reduced_quorum_rounds > 0) {
    EXPECT_GE(result.max_noise_widening, 1.0);
    EXPECT_EQ(result.total_failures.reduced_quorum_rounds,
              result.reduced_quorum_rounds);
  }
}

TEST(ChaosSoak, AsyncEngineNoRetries) {
  FlExperimentConfig config = soak_config(/*async=*/true,
                                          /*max_attempts=*/1, 1303);
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  assert_async_buffer_bounded(result, config);
  EXPECT_GT(result.async_applies, 0);
}

TEST(ChaosSoak, AsyncEngineWithRetriesAndDropout) {
  FlExperimentConfig config = soak_config(/*async=*/true,
                                          /*max_attempts=*/3, 1304);
  config.client_dropout = 0.1;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  assert_async_buffer_bounded(result, config);
  EXPECT_GT(result.async_applies, 0);
  EXPECT_GT(result.total_failures.retry_attempts, 0);
  // Stragglers under sustained load must have been folded in late
  // rather than silently dropped.
  EXPECT_GT(result.total_failures.fault_accepted_stale, 0);
}

TEST(ChaosSoak, AsyncEngineWeighsStaleUpdatesInItsBuffer) {
  // The legs above run Kt = 3, so M = 1 and every apply is the mean of
  // one update. At Kt = 8, M = 4: buffers sum several updates and the
  // stragglers among them enter with weight (1 + s)^-alpha, so alpha
  // changes where the run ends.
  std::vector<core::TensorList> final_weights;
  for (const double alpha : {0.0, 1.0}) {
    FlExperimentConfig config = soak_config(/*async=*/true,
                                            /*max_attempts=*/3, 1306);
    config.total_clients = 16;
    config.clients_per_round = 8;
    config.async.staleness_alpha = alpha;
    ASSERT_EQ(resolve_async_config(config.async, config.clients_per_round)
                  .min_to_apply,
              4);
    core::NonPrivatePolicy policy;
    FlRunResult result = run_experiment(config, policy);
    assert_survived(result, config);
    assert_async_buffer_bounded(result, config);
    // Three updates in one buffer fill two levels.
    EXPECT_GE(result.max_stream_levels, 2);
    EXPECT_GT(result.total_failures.retry_attempts, 0);
    EXPECT_GT(result.telemetry.counter_value("fl.async.stale_accepted_total"),
              0);
    final_weights.push_back(std::move(result.final_weights));
  }
  ASSERT_EQ(final_weights[0].size(), final_weights[1].size());
  float max_diff = 0.0f;
  for (std::size_t t = 0; t < final_weights[0].size(); ++t) {
    const tensor::Tensor& a = final_weights[0][t];
    const tensor::Tensor& b = final_weights[1][t];
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t i = 0; i < a.numel(); ++i)
      max_diff = std::max(max_diff, std::abs(a.data()[i] - b.data()[i]));
  }
  // Far beyond the 3e-8 that rounding alone moved the M = 1 runs by.
  EXPECT_GT(max_diff, 1e-4f);
}

TEST(ChaosSoak, StreamingEngineVirtualizedFederation) {
  // The virtualized scale path: a federation three orders of magnitude
  // larger than the cohort (clients materialized on demand, never
  // stored), updates folded into the O(log K) accumulator as they
  // arrive, with retries on. Survival means the same disposition
  // ledger balance as the other engines PLUS bounded accumulator
  // occupancy — the round never regrows the K-sized buffer it
  // replaced.
  FlExperimentConfig config = soak_config(/*async=*/false,
                                          /*max_attempts=*/3, 1306);
  config.total_clients = 10000;
  config.clients_per_round = 40;
  config.min_reporting = 2;
  config.reduced_min_reporting = 1;
  config.client_dropout = 0.1;
  config.streaming_aggregation = true;
  config.tree_fan_out = 8;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  EXPECT_GT(result.total_failures.retry_attempts, 0);
  // Occupancy bound: every reducer (edge over <= fan_out leaves, root
  // over the round's blocks) stays within floor(log2(units)) + 1 for
  // the worst-case unit count of a round (every dispatch retried).
  const std::int64_t worst_units =
      config.clients_per_round * config.retry.max_attempts;
  EXPECT_GT(result.max_stream_levels, 0);
  EXPECT_LE(result.max_stream_levels, level_bound(worst_units));
}

TEST(ChaosSoak, StreamingEngineUnderDpPolicySurvives) {
  // Fed-SDP clips and noises every update at the client, so the
  // streaming fold screens and reduces noised deltas under faults and
  // retries — soak it with real noise, which the no-op policy cannot
  // give.
  FlExperimentConfig config = soak_config(/*async=*/false,
                                          /*max_attempts=*/2, 1307);
  config.total_clients = 10000;
  config.clients_per_round = 40;
  config.streaming_aggregation = true;
  config.tree_fan_out = 8;
  config.noise_scale = 0.5;
  core::FedSdpPolicy policy(/*clip=*/4.0, /*noise_scale=*/0.5);
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
}

TEST(ChaosSoak, AsyncUnderDpPolicySurvives) {
  // The async fold sums noised Fed-SDP updates, late ones with their
  // staleness weight, under faults and retries — soak it with real
  // noise, which the no-op policy cannot give.
  FlExperimentConfig config = soak_config(/*async=*/true,
                                          /*max_attempts=*/2, 1305);
  config.rounds = 50;
  config.noise_scale = 0.5;
  core::FedSdpPolicy policy(/*clip=*/4.0, /*noise_scale=*/0.5);
  FlRunResult result = run_experiment(config, policy);
  assert_survived(result, config);
  assert_async_buffer_bounded(result, config);
}

}  // namespace
}  // namespace fedcl::fl
