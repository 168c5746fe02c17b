#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "dp/accountant.h"
#include "fl/trainer.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"

namespace fedcl {
namespace {

TEST(TrainerApi, FinalWeightsLoadableAndMatchFinalAccuracy) {
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 3;
  config.seed = 21;
  core::NonPrivatePolicy policy;
  fl::FlRunResult result = fl::run_experiment(config, policy);
  ASSERT_FALSE(result.final_weights.empty());

  // Rebuild the validation pipeline and confirm the returned weights
  // reproduce the reported final accuracy exactly.
  Rng root(config.seed);
  Rng vrng = root.fork("val-data");
  data::Dataset val =
      data::generate_synthetic(config.bench.val_spec, vrng);
  Rng mrng = root.fork("model");
  auto model = nn::build_model(config.bench.model, mrng);
  model->set_weights(result.final_weights);
  EXPECT_DOUBLE_EQ(
      nn::evaluate_accuracy(*model, val.features(), val.labels()),
      result.final_accuracy);
}

TEST(TrainerApi, FinalWeightsAreACopy) {
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 2;
  config.clients_per_round = 2;
  config.rounds = 1;
  core::NonPrivatePolicy policy;
  fl::FlRunResult result = fl::run_experiment(config, policy);
  // Mutating the returned weights cannot affect a later identical run.
  result.final_weights[0].fill_(123.0f);
  fl::FlRunResult again = fl::run_experiment(config, policy);
  EXPECT_NE(again.final_weights[0].at(0), 123.0f);
}

fl::FlExperimentConfig smoke_config() {
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 3;
  config.eval_every = 1;
  config.seed = 21;
  return config;
}

// The dp.epsilon series the trainer records must match calling the
// moments accountant directly for every prefix of rounds — the RDP is
// linear in steps, so the incremental series is lossless, and the test
// demands bitwise equality, not tolerance.
TEST(TrainerTelemetry, EpsilonSeriesMatchesAccountantExactly) {
  fl::FlExperimentConfig config = smoke_config();
  config.noise_scale = 6.0;
  auto policy = core::make_fed_cdp(data::kDefaultClippingBound, 6.0);
  fl::FlRunResult result = fl::run_experiment(config, *policy);

  const core::FlPrivacySetup& setup = result.privacy_setup;
  const double instance_q =
      static_cast<double>(setup.batch_size * setup.clients_per_round) /
      static_cast<double>(setup.total_examples);
  const double client_q = static_cast<double>(setup.clients_per_round) /
                          static_cast<double>(setup.total_clients);
  dp::MomentsAccountant instance_acc(instance_q, setup.noise_scale);
  dp::MomentsAccountant client_acc(client_q, setup.noise_scale);

  const std::vector<telemetry::SeriesPoint> instance_eps =
      result.telemetry.series_points("dp.epsilon", {{"level", "instance"}});
  const std::vector<telemetry::SeriesPoint> client_eps =
      result.telemetry.series_points("dp.epsilon", {{"level", "client"}});
  ASSERT_EQ(instance_eps.size(), static_cast<std::size_t>(config.rounds));
  ASSERT_EQ(client_eps.size(), static_cast<std::size_t>(config.rounds));
  for (std::int64_t t = 0; t < config.rounds; ++t) {
    EXPECT_EQ(instance_eps[t].step, t);
    EXPECT_EQ(instance_eps[t].value,
              instance_acc.epsilon((t + 1) * setup.local_iterations,
                                   setup.delta));
    EXPECT_EQ(client_eps[t].value, client_acc.epsilon(t + 1, setup.delta));
  }

  // The gauges hold the latest (final-round) budget; delta is constant.
  EXPECT_EQ(result.telemetry.gauge_value("dp.epsilon",
                                         {{"level", "instance"}}),
            instance_eps.back().value);
  EXPECT_DOUBLE_EQ(result.telemetry.gauge_value("dp.delta"), config.delta);

  // And the full run agrees with the one-shot accounting report.
  core::PrivacyReport report = core::account_privacy(setup);
  EXPECT_EQ(instance_eps.back().value, report.fed_cdp_instance_epsilon);
  EXPECT_EQ(client_eps.back().value, report.fed_sdp_client_epsilon);
}

// The budget is accounted at config.noise_scale, so a noising policy at
// another sigma is refused, and the error names both values.
TEST(TrainerTelemetry, RejectsPolicySigmaThatDiffersFromConfig) {
  fl::FlExperimentConfig config = smoke_config();  // noise_scale 6
  auto policy = core::make_fed_cdp(data::kDefaultClippingBound, 0.25);
  try {
    (void)fl::run_experiment(config, *policy);
    FAIL() << "a Fed-CDP run at sigma=0.25 was accounted at sigma=6";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sigma=0.25"), std::string::npos) << what;
    EXPECT_NE(what.find("noise_scale=6"), std::string::npos) << what;
  }
  config.noise_scale = 0.25;
  EXPECT_NO_THROW((void)fl::run_experiment(config, *policy));
}

// A policy that adds no noise spends no budget: its run records neither
// dp.epsilon nor dp.delta, whatever config.noise_scale says.
TEST(TrainerTelemetry, NonPrivateRunRecordsNoPrivacyBudget) {
  const fl::FlExperimentConfig config = smoke_config();
  core::NonPrivatePolicy policy;
  const fl::FlRunResult result = fl::run_experiment(config, policy);
  EXPECT_TRUE(result.telemetry.series_points("dp.epsilon").empty());
  for (const auto& g : result.telemetry.gauges) {
    EXPECT_NE(g.name, "dp.epsilon");
    EXPECT_NE(g.name, "dp.delta");
  }
}

// Knobs the selected engine never reads, and knobs out of range under
// any engine, fail validation; each message names the knob.
TEST(TrainerApi, ValidateConfigRefusesKnobsTheEngineIgnores) {
  const fl::FlExperimentConfig base = smoke_config();
  ASSERT_TRUE(fl::validate_config(base).ok());
  fl::FlExperimentConfig async = base;
  async.async_mode = true;
  ASSERT_TRUE(fl::validate_config(async).ok());
  fl::FlExperimentConfig streamed = base;
  streamed.streaming_aggregation = true;
  ASSERT_TRUE(fl::validate_config(streamed).ok());
  // Each engine takes its own knobs in range.
  fl::FlExperimentConfig tuned_async = async;
  tuned_async.async.min_to_apply = 3;
  tuned_async.async.staleness_alpha = 1.0;
  tuned_async.async.max_staleness = 2;
  tuned_async.retry.base_backoff_ms = 1.0;
  tuned_async.retry.soft_deadline_ms = 50.0;
  ASSERT_TRUE(fl::validate_config(tuned_async).ok());
  fl::FlExperimentConfig tuned_streamed = streamed;
  tuned_streamed.tree_fan_out = 8;
  ASSERT_TRUE(fl::validate_config(tuned_streamed).ok());
  // The staleness weight acts only where an apply can mean two
  // updates: the resolved M = max(1, Kt / 2) is 1 at Kt = 3 and 2 at 4.
  fl::FlExperimentConfig one_update = async;
  one_update.total_clients = 6;
  one_update.clients_per_round = 3;
  ASSERT_TRUE(fl::validate_config(one_update).ok());
  fl::FlExperimentConfig two_updates = one_update;
  two_updates.clients_per_round = 4;
  two_updates.async.staleness_alpha = 4.0;
  ASSERT_TRUE(fl::validate_config(two_updates).ok());

  std::vector<std::pair<fl::FlExperimentConfig, const char*>> cases(
      4, {async, ""});
  cases[0].first.server_momentum = 0.9;
  cases[0].second = "--staleness-alpha";
  cases[1].first.min_reporting = 2;
  cases[1].second = "--async-min-apply";
  cases[2].first.reduced_min_reporting = 1;
  cases[2].second = "--async-min-apply";
  cases[3].first.retry_failed_clients = false;
  cases[3].second = "--retry-attempts";
  // Knobs only the unselected engine reads keep their defaults.
  const auto add = [&](fl::FlExperimentConfig config, const char* knob) {
    cases.emplace_back(std::move(config), knob);
  };
  fl::FlExperimentConfig c = one_update;
  c.async.staleness_alpha = 4.0;
  add(c, "set --async-min-apply to 2 or more");
  c = base;
  c.tree_fan_out = 8;
  add(c, "set --streaming");
  c = base;
  c.async.min_to_apply = 3;
  add(c, "set --async");
  c = base;
  c.async.staleness_alpha = 1.0;
  add(c, "set --async");
  c = base;
  c.async.max_staleness = 2;
  add(c, "set --async");
  c = base;
  c.retry.base_backoff_ms = 1.0;
  add(c, "set --async");
  c = base;
  c.retry.soft_deadline_ms = 50.0;
  add(c, "set --async");
  // Ranges hold whatever the engine.
  for (const fl::FlExperimentConfig& engine : {base, async, streamed}) {
    c = engine;
    c.retry.max_attempts = 0;
    add(c, "--retry-attempts must be >= 1");
    c = engine;
    c.retry.base_backoff_ms = -1.0;
    add(c, "--retry-backoff-ms must be >= 0");
    c = engine;
    c.retry.soft_deadline_ms = -5.0;
    add(c, "--soft-deadline-ms must be > 0");
    c = engine;
    c.async.staleness_alpha = -1.0;
    add(c, "--staleness-alpha");
    c = engine;
    c.async.max_staleness = -2;
    add(c, "--max-staleness");
    c = engine;
    c.async.min_to_apply = -4;
    add(c, "--async-min-apply must be >= 0");
    c = engine;
    c.tree_fan_out = 3;
    add(c, "--tree-fan-out must be a power of two >= 2");
  }
  for (const auto& [config, knob] : cases) {
    SCOPED_TRACE(knob);
    const Result<fl::FlExperimentConfig> r = fl::validate_config(config);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find(knob), std::string::npos) << r.error();
  }
}

// Under the decaying clipping schedule the bound shrinks toward ~0, so
// the fraction of clipped gradient groups must rise across the run.
// The fraction never reaches 1 even at C ~ 0: per-example gradients of
// confidently classified examples vanish, and a zero-norm group is
// never clipped.
TEST(TrainerTelemetry, ClipFractionRisesAsBoundDecays) {
  fl::FlExperimentConfig config = smoke_config();
  // sigma = 0 isolates the clipping signal: the Gaussian noise is
  // scaled by C, so a generous starting bound would otherwise inject
  // noise large enough to blow up later gradient norms.
  config.noise_scale = 0.0;
  auto policy = core::make_fed_cdp_decay(config.rounds, /*start=*/1e4,
                                         /*end=*/1e-6, /*sigma=*/0.0);
  fl::FlRunResult result = fl::run_experiment(config, *policy);

  const std::vector<telemetry::SeriesPoint> fraction =
      result.telemetry.series_points("fl.round.clip_fraction",
                                     {{"policy", policy->name()}});
  ASSERT_EQ(fraction.size(), static_cast<std::size_t>(config.rounds));
  for (const telemetry::SeriesPoint& p : fraction) {
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 1.0);
  }
  // Generous bound (C=1e4) clips nothing; at a near-zero bound every
  // group with a non-vanishing gradient clips.
  EXPECT_LT(fraction.front().value, 0.05);
  EXPECT_GT(fraction.back().value, 0.25);
  EXPECT_LT(fraction.front().value, fraction.back().value);
}

TEST(TrainerTelemetry, SnapshotCarriesRoundSpansAndScreeningCounters) {
  fl::FlExperimentConfig config = smoke_config();
  // An absurdly tight absolute norm cap rejects every update as a
  // norm outlier, so every round misses quorum.
  config.screening.max_update_norm = 1e-9;
  core::NonPrivatePolicy policy;
  fl::FlRunResult result = fl::run_experiment(config, policy);

  const telemetry::TelemetrySnapshot& snap = result.telemetry;
  const telemetry::HistogramSample* rounds =
      snap.find_histogram("fl.round.duration_ms");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->count, config.rounds);
  const telemetry::HistogramSample* local_train = snap.find_histogram(
      "fl.phase.duration_ms", {{"phase", "local_train"}});
  ASSERT_NE(local_train, nullptr);
  EXPECT_EQ(local_train->count, config.rounds);

  EXPECT_EQ(snap.counter_value("fl.screening.rejected_total",
                               {{"reason", "norm-outlier"}}),
            result.total_failures.rejected_norm_outlier);
  EXPECT_GT(result.total_failures.rejected_norm_outlier, 0);
  EXPECT_EQ(snap.counter_value("fl.round.quorum_missed_total"),
            result.dropped_rounds);
  EXPECT_EQ(result.completed_rounds, 0);
}

TEST(TrainerTelemetry, RegistryResetsBetweenRuns) {
  fl::FlExperimentConfig config = smoke_config();
  core::NonPrivatePolicy policy;
  fl::FlRunResult first = fl::run_experiment(config, policy);
  fl::FlRunResult second = fl::run_experiment(config, policy);
  // Counters restart from zero each run instead of accumulating.
  EXPECT_EQ(first.telemetry.counter_value("fl.server.updates_accepted_total"),
            second.telemetry.counter_value("fl.server.updates_accepted_total"));
  const telemetry::HistogramSample* h =
      second.telemetry.find_histogram("fl.round.duration_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, config.rounds);
}

}  // namespace
}  // namespace fedcl
