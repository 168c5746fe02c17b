#include "fl/trainer.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fl/round_engine.h"
#include "fl/server.h"
#include "fl/tree_aggregation.h"

namespace fedcl::fl {

namespace {

// The asynchronous (FedBuff) engine. One round is one soft_deadline_ms
// window on the virtual latency clock: deliver the late arrivals due
// now, sample a cohort, resolve every client's dispatch-attempt chain
// (faults, latency, backoff) serially on the virtual clock, train and
// deliver the survivors on the pool, and stream their updates into the
// shared accumulator, which applies itself as soon as min_to_apply
// updates are buffered. A round ending below the threshold flushes its
// partial buffer (reduced-quorum tier) instead of dropping the work.
FlRunResult run_async(const RunState& run, AsyncAggregator& agg) {
  const FlExperimentConfig& config = run.config;
  const Rng& round_rng = run.fed.round_rng;
  const FaultPlan& plan = run.fed.provider.fault_plan();
  const RetryPolicy rpolicy(config.retry);
  telemetry::Registry& registry = telemetry::global_registry();

  struct Pending {
    std::int64_t due_round = 0;
    std::int64_t dispatch_round = 0;
    std::size_t ci = 0;
    FaultType fault = FaultType::kNone;  // straggler/etc. that delayed it
    ClientUpdate update;
    double weight = 1.0;
  };
  std::vector<Pending> pending;

  for (std::int64_t t = 0; t < config.effective_rounds(); ++t) {
    telemetry::TraceScope trace(telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    run.ledger.open_round();
    RoundTally tally;
    const std::int64_t applies_before = agg.applies();

    // Disposition of one offer: the injected instance (if any) behind an
    // accepted delivery was absorbed stale; behind a rejected one it was
    // screened out.
    auto tally_offer = [&](const AsyncAggregator::OfferResult& res,
                           FaultType fault) {
      const bool faulty = fault != FaultType::kNone;
      if (res.accepted) {
        ++tally.accepted;
        if (faulty) ++tally.stats.fault_accepted_stale;
        return;
      }
      tally.stats.count_rejected(*res.reject);
      if (faulty) ++tally.stats.fault_screened;
    };

    // Late arrivals due this round, in (due, dispatch, client) order.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) {
                       return std::tie(a.due_round, a.dispatch_round, a.ci) <
                              std::tie(b.due_round, b.dispatch_round, b.ci);
                     });
    std::vector<Pending> still_pending;
    for (Pending& p : pending) {
      if (p.due_round > t) {
        still_pending.push_back(std::move(p));
        continue;
      }
      tally_offer(agg.offer(std::move(p.update), t, p.weight), p.fault);
    }
    pending = std::move(still_pending);

    // Plan (serial): each client's dispatch-attempt chain on the virtual
    // clock. Every fault, latency, and backoff draw happens here, in
    // cohort order, so the post-train re-dispatch has nothing left to do.
    const std::vector<std::size_t> chosen = run.sample(t);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    std::vector<Dispatch> runnable;
    std::vector<std::int64_t> rounds_late;
    for (std::size_t ci : chosen) {
      if (run.drops_out(drop_rng, tally.stats)) continue;
      const auto id = static_cast<std::int64_t>(ci);
      Rng lat_rng = round_rng.fork(
          "latency", static_cast<std::uint64_t>(t * 1000003 + id));
      double elapsed_ms = 0.0;
      for (int attempt = 0;; ++attempt) {
        const FaultType f = plan.fault_for_attempt(t, id, attempt);
        tally.stats.count_injected(f);
        const double lat = rpolicy.latency_ms(f, lat_rng);
        if (rpolicy.transient(f) && attempt + 1 < config.retry.max_attempts) {
          // Re-dispatch: a crash is detected at the soft deadline, a
          // corrupt/damaged payload when the server rejects it.
          ++tally.stats.fault_retried;
          ++tally.stats.retry_attempts;
          elapsed_ms +=
              f == FaultType::kCrash ? config.retry.soft_deadline_ms : lat;
          elapsed_ms += rpolicy.backoff_ms(attempt + 2, lat_rng);
          continue;
        }
        if (f == FaultType::kCrash) {
          ++tally.stats.fault_expired;  // out of budget, never reports
        } else {
          runnable.push_back({.ci = ci, .fault = f, .attempt = attempt,
                              .run = true});
          rounds_late.push_back(rpolicy.rounds_late(elapsed_ms + lat));
        }
        break;
      }
    }

    // Train and deliver the survivors. An on-time update is offered
    // straight from its worker (the shared accumulator is the designed
    // contention point); a late one is stashed for its due round.
    const TensorList weights = agg.weights_snapshot();
    const DeliveryContext ctx = run.delivery(t, weights);
    std::vector<ClientDelivery> deliveries(runnable.size());
    std::vector<std::optional<AsyncAggregator::OfferResult>> offers(
        runnable.size());
    {
      telemetry::SpanTimer train_span(
          registry, "fl.phase", telemetry::Labels{{"phase", "local_train"}},
          t);
      run.runner.run(runnable.size(), [&](std::size_t k,
                                          nn::Sequential& scratch) {
        deliveries[k] = deliver_client(ctx, runnable[k], scratch);
        if (deliveries[k].update.has_value() && rounds_late[k] == 0) {
          offers[k] = agg.offer(std::move(*deliveries[k].update), t,
                                run.weight_of(runnable[k].ci));
        }
      });
    }
    for (std::size_t k = 0; k < runnable.size(); ++k) {
      ClientDelivery& delivery = deliveries[k];
      tally.add(delivery);
      if (offers[k].has_value()) {
        tally_offer(*offers[k], delivery.fault);
      } else if (delivery.update.has_value()) {
        pending.push_back({.due_round = t + rounds_late[k],
                           .dispatch_round = t,
                           .ci = runnable[k].ci,
                           .fault = delivery.fault,
                           .update = std::move(*delivery.update),
                           .weight = run.weight_of(runnable[k].ci)});
      }
    }
    run.ledger.close_round(t, tally, close_async_round(agg, applies_before));
  }

  // End of run: arrivals scheduled past the horizon expire, and the
  // last partial buffer is drained into the model.
  RoundTally drain;
  for (const Pending& p : pending) {
    if (p.fault != FaultType::kNone) ++drain.stats.fault_expired;
  }
  run.ledger.close_run(drain);
  agg.flush();
  FlRunResult& result = run.ledger.result();
  result.async_applies = agg.applies();
  result.final_weights = agg.weights_snapshot();
  result.final_accuracy = run.ledger.evaluate();
  return run.ledger.finish();
}

}  // namespace

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
  std::optional<AsyncAggregator> agg;
  if (config.async_mode) {
    agg.emplace(fed.model->weights(),
                resolve_async_config(config.async, config.clients_per_round),
                policy, groups, fed.root.fork("async-aggregate"),
                config.screening);
  }

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
  // Skipped when the setup falls outside the accountant's domain
  // (sigma <= 0, or B*Kt exceeding the dataset).
  core::PrivacyRoundSeries eps_series;
  const double instance_q =
      static_cast<double>(config.bench.batch_size * config.clients_per_round) /
      static_cast<double>(fed.train->size());
  if (config.noise_scale > 0.0 && instance_q <= 1.0) {
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
        return agg.has_value() ? agg->weights_snapshot() : server.weights();
      },
      .log_prefix = config.bench.name + " " + policy.name() + engine_label,
  });
  ledger.result().privacy_setup = privacy_setup;

  const RunState run{config, policy, fed, groups, runner, server, ledger};
  if (agg.has_value()) return run_async(run, *agg);
  InProcessExecutor executor;
  return run_sync(run, executor);
}

}  // namespace fedcl::fl
