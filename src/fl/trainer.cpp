#include "fl/trainer.h"

#include <memory>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fl/round_engine.h"
#include "fl/server.h"
#include "fl/tree_aggregation.h"

namespace fedcl::fl {

Result<FlExperimentConfig> validate_config(FlExperimentConfig config) {
  const FlExperimentConfig& c = config;
  const std::pair<bool, const char*> rules[] = {
      {c.clients_per_round > 0 && c.clients_per_round <= c.total_clients,
       "clients_per_round must be in [1, total_clients]"},
      {c.effective_rounds() > 0, "the round budget must be positive"},
      {c.client_dropout >= 0.0 && c.client_dropout < 1.0,
       "client dropout must be in [0, 1)"},
      {c.min_reporting >= 1 && c.reduced_min_reporting >= 0 &&
           c.reduced_min_reporting <= c.min_reporting,
       "min_reporting must be >= 1 and reduced_min_reporting in "
       "[0, min_reporting]"},
      {c.server_momentum >= 0.0 && c.server_momentum < 1.0,
       "server momentum must be in [0, 1)"},
      {c.screening.norm_outlier_factor >= 0.0 &&
           c.screening.max_update_norm >= 0.0,
       "screening bounds must be non-negative"},
      {!c.streaming_aggregation ||
           (!c.async_mode && is_power_of_two(c.tree_fan_out) &&
            c.tree_fan_out >= 2),
       "streaming_aggregation needs the sync engine and a power-of-two "
       "tree_fan_out >= 2"},
      {!c.async_mode ||
           (c.async.staleness_alpha >= 0.0 && c.async.max_staleness >= 0),
       "async staleness alpha and horizon must be non-negative"},
      // Knobs the chosen engine never reads: refused, not ignored.
      {!c.async_mode || c.server_momentum == 0.0,
       "async_mode ignores server_momentum; it weights updates by "
       "staleness (--staleness-alpha)"},
      {!c.async_mode || c.min_reporting == 1,
       "async_mode ignores min_reporting; set --async-min-apply"},
      {!c.async_mode || c.reduced_min_reporting == 0,
       "async_mode ignores reduced_min_reporting; set --async-min-apply"},
      {!c.async_mode || c.screening.norm_outlier_factor == 0.0,
       "async_mode ignores the norm outlier band, which needs the "
       "buffered sync round; use --screen-max-norm"},
      {!c.streaming_aggregation || c.screening.norm_outlier_factor == 0.0,
       "streaming_aggregation ignores the norm outlier band, which needs "
       "the buffered sync round; use --screen-max-norm"},
  };
  for (const auto& [ok, message] : rules) {
    if (!ok) return Result<FlExperimentConfig>::failure(message);
  }
  return config;
}

FlRunResult run_experiment(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy) {
  const Result<FlExperimentConfig> valid = validate_config(config);
  FEDCL_CHECK(valid.ok()) << valid.error();
  // The budget is accounted at config.noise_scale: a noising policy
  // must add exactly that sigma.
  const bool noising = policy.noise_scale() > 0.0;
  FEDCL_CHECK(!noising || policy.noise_scale() == config.noise_scale)
      << policy.name() << " adds noise at sigma=" << policy.noise_scale()
      << " but config.noise_scale=" << config.noise_scale
      << " would account its budget at another sigma";
  const std::int64_t rounds = config.effective_rounds();
  const std::int64_t local_iterations = config.effective_local_iterations();

  const Federation fed(config.bench, config.total_clients, local_iterations,
                       config.faults, config.seed);
  const data::Dataset val = fed.validation_set();
  const dp::ParamGroups groups = to_param_groups(fed.model->layer_groups());
  ClientRunner runner(fed, policy, config.parallel_clients,
                      config.clients_per_round);
  Server server(fed.model->weights(),
                {.server_momentum = config.server_momentum,
                 .screening = config.screening,
                 .min_reporting = config.min_reporting,
                 .reduced_min_reporting = config.reduced_min_reporting});
  std::unique_ptr<AsyncAggregator> agg;  // the async engine's global model

  // One run owns the process-global registry: zero the aggregates so
  // the snapshot this run returns describes this run only (attached
  // sinks and outstanding instrument references survive the reset).
  telemetry::Registry& registry = telemetry::global_registry();
  registry.reset();

  const core::FlPrivacySetup privacy_setup = {
      .total_examples = fed.train->size(),
      .batch_size = config.bench.batch_size,
      .clients_per_round = config.clients_per_round,
      .total_clients = config.total_clients,
      .local_iterations = local_iterations,
      .rounds = rounds,
      .noise_scale = config.noise_scale,
      .delta = config.delta,
  };
  // Cumulative per-round privacy budget, precomputed in one accountant
  // pass (bitwise identical to calling epsilon() after every round).
  // Skipped for a policy that adds no noise, and when the setup falls
  // outside the accountant's domain (B*Kt exceeding the dataset).
  core::PrivacyRoundSeries eps_series;
  const double instance_q =
      static_cast<double>(config.bench.batch_size * config.clients_per_round) /
      static_cast<double>(fed.train->size());
  if (noising && instance_q <= 1.0) {
    eps_series = core::epsilon_round_series(privacy_setup);
    registry.gauge("dp.delta").set(config.delta);
  }

  std::string engine_label;
  if (config.async_mode) engine_label = " async";
  if (config.streaming_aggregation) engine_label = " streaming";
  RoundLedger ledger({
      .rounds = rounds,
      .eval_every = config.eval_every,
      .local_iterations = local_iterations,
      .epsilon = std::move(eps_series),
      .clip_policy = &policy,
      .eval_model = fed.model.get(),
      .val = &val,
      .weights = [&]() -> TensorList {
        return agg ? agg->weights_snapshot() : server.weights();
      },
      .log_prefix = config.bench.name + " " + policy.name() + engine_label,
  });
  ledger.result().privacy_setup = privacy_setup;

  const RunState run{config, policy, fed, groups, runner, server, ledger};
  InProcessExecutor executor(runner);
  if (!config.async_mode) return run_sync(run, executor);
  agg = make_async_aggregator(run);
  return run_async(run, *agg, executor);
}

}  // namespace fedcl::fl
