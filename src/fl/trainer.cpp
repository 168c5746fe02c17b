#include "fl/trainer.h"

#include <algorithm>
#include <utility>

#include "common/telemetry.h"
#include "fl/round_engine.h"
#include "fl/tree_aggregation.h"

namespace fedcl::fl {

AsyncAggregatorConfig resolve_async_config(AsyncAggregatorConfig config,
                                           std::int64_t clients_per_round) {
  if (config.min_to_apply <= 0) {
    config.min_to_apply = std::max<std::int64_t>(1, clients_per_round / 2);
  }
  return config;
}

Result<FlExperimentConfig> validate_config(FlExperimentConfig config) {
  const FlExperimentConfig& c = config;
  // A knob only the unselected engine reads must keep its default.
  const FlExperimentConfig d{};
  const bool async_knobs_default =
      c.async.min_to_apply == d.async.min_to_apply &&
      c.async.staleness_alpha == d.async.staleness_alpha &&
      c.async.max_staleness == d.async.max_staleness;
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
      {c.screening.max_update_norm >= 0.0,
       "--screen-max-norm must be >= 0"},
      // Ranges hold whatever the engine.
      {c.retry.max_attempts >= 1, "--retry-attempts must be >= 1"},
      {c.retry.base_backoff_ms >= 0.0, "--retry-backoff-ms must be >= 0"},
      {c.retry.soft_deadline_ms > 0.0, "--soft-deadline-ms must be > 0"},
      {c.async.staleness_alpha >= 0.0 && c.async.max_staleness >= 0,
       "async staleness alpha and horizon must be non-negative "
       "(--staleness-alpha, --max-staleness)"},
      {c.async.min_to_apply >= 0, "--async-min-apply must be >= 0"},
      {is_power_of_two(c.tree_fan_out) && c.tree_fan_out >= 2,
       "--tree-fan-out must be a power of two >= 2"},
      {!c.streaming_aggregation || !c.async_mode,
       "streaming_aggregation needs the sync engine"},
      // Knobs the chosen engine never reads: refused, not ignored.
      {c.streaming_aggregation || c.tree_fan_out == d.tree_fan_out,
       "--tree-fan-out sizes the fold's units only under --streaming; "
       "set --streaming"},
      {c.async_mode || async_knobs_default,
       "only the async engine reads --async-min-apply, --staleness-alpha "
       "and --max-staleness; set --async"},
      {c.async_mode || (c.retry.base_backoff_ms == d.retry.base_backoff_ms &&
                        c.retry.soft_deadline_ms == d.retry.soft_deadline_ms),
       "only the async engine reads --retry-backoff-ms and "
       "--soft-deadline-ms; set --async"},
      {!c.async_mode || c.server_momentum == 0.0,
       "async_mode ignores server_momentum; it weights updates by "
       "staleness (--staleness-alpha)"},
      {!c.async_mode || c.min_reporting == 1,
       "async_mode ignores min_reporting; set --async-min-apply"},
      {!c.async_mode || c.reduced_min_reporting == 0,
       "async_mode ignores reduced_min_reporting; set --async-min-apply"},
      {!c.async_mode || c.retry_failed_clients,
       "async_mode ignores the resample-retry pass (--no-retry); its "
       "re-dispatch budget is --retry-attempts"},
      // At M = 1 every apply is the mean of one update, whose staleness
      // weight cancels.
      {!c.async_mode ||
           resolve_async_config(c.async, c.clients_per_round).min_to_apply >
               1 ||
           c.async.staleness_alpha == d.async.staleness_alpha,
       "--staleness-alpha cannot act when each apply is the mean of one "
       "update; set --async-min-apply to 2 or more (it defaults to "
       "clients per round / 2)"},
  };
  for (const auto& [ok, message] : rules) {
    if (!ok) return Result<FlExperimentConfig>::failure(message);
  }
  return config;
}

FlRunResult run_experiment(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy) {
  // One run owns the process-global registry: zero the aggregates so
  // the snapshot this run returns describes this run only (attached
  // sinks and outstanding instrument references survive the reset).
  telemetry::global_registry().reset();
  const Federation fed(config.bench, config.total_clients,
                       config.effective_local_iterations(), config.faults,
                       config.seed);
  return run_federation(config, policy, fed);
}

}  // namespace fedcl::fl
