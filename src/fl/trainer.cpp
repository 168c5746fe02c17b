#include "fl/trainer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fl/round_engine.h"
#include "fl/server.h"
#include "fl/tree_aggregation.h"
#include "fl/virtual_client.h"

namespace fedcl::fl {

namespace {

// One run's state, shared by the sync and the async loop.
struct Engine {
  const FlExperimentConfig& config;
  const core::PrivacyPolicy& policy;
  const Federation& fed;
  const dp::ParamGroups& groups;
  ClientRunner& runner;
  Server& server;
  RoundLedger& ledger;

  std::vector<std::size_t> sample(std::int64_t t) const {
    Rng sample_rng =
        fed.round_rng.fork("sample", static_cast<std::uint64_t>(t));
    return server.sample_clients(
        static_cast<std::size_t>(config.total_clients),
        static_cast<std::size_t>(config.clients_per_round), sample_rng);
  }
  // Natural dropout: the client is offline this round, never dispatched.
  bool drops_out(Rng& drop_rng, RoundFailureStats& stats) const {
    if (config.client_dropout <= 0.0 ||
        !drop_rng.bernoulli(config.client_dropout)) {
      return false;
    }
    ++stats.dropouts;
    return true;
  }
  DeliveryContext delivery(std::int64_t t, const TensorList& weights) const {
    return {.provider = fed.provider,
            .round_rng = fed.round_rng,
            .policy = policy,
            .weights = weights,
            .seed = config.seed,
            .round = t,
            .prune_ratio = config.prune_ratio,
            .max_attempts = config.retry.max_attempts};
  }
  double weight_of(std::size_t ci) const {
    return config.weight_by_data_size
               ? static_cast<double>(
                     fed.provider.data_size(static_cast<std::int64_t>(ci)))
               : 1.0;
  }
};

// What one unit of the sync fold produced: a single client (buffered
// fold) or an edge block of tree_fan_out consecutive cohort members
// (streamed fold), run start to finish on one scratch model.
struct FoldUnit {
  RoundTally tally;
  std::vector<ClientUpdate> updates;  // buffered: delivered, unscreened
  std::vector<double> weights;
  ReduceNode partial;  // streamed: the block's screened, sanitized sum
  int max_levels = 0;
};

// The synchronous engine. One round: sample a cohort, plan every
// dispatch serially, train and deliver each client on the pool, fold the
// delivered updates, run one resample-retry pass when the fold holds
// fewer than min_reporting, then apply or skip. Its one fork is the
// fold (streaming_aggregation):
//  - buffered: the delivered updates are held and Server::aggregate
//    screens them as one batch (the median-relative norm band needs the
//    round's population), sanitizes them from the serial "aggregate"
//    stream, and averages them;
//  - streamed: each delivered update is screened, sanitized from its
//    own per-(round, client) stream, and pushed into its edge block's
//    StreamingReducer on the pool. Blocks run in waves so only O(wave)
//    partials are alive, and the root folds them in block order, which
//    keeps the sum bitwise equal to the flat pinned order (DESIGN.md §7).
// Every draw a client makes comes from a per-(round, client) stream, so
// both folds are bitwise identical across schedules and thread counts.
FlRunResult run_sync(Engine& e) {
  const FlExperimentConfig& config = e.config;
  const bool streamed = config.streaming_aggregation;
  const Rng& round_rng = e.fed.round_rng;
  const FaultPlan& plan = e.fed.provider.fault_plan();
  telemetry::Registry& registry = telemetry::global_registry();
  const UpdateScreener screener(config.screening);
  const std::vector<tensor::Shape> expected_shapes =
      tensor::list::shapes_of(e.server.weights());
  const std::size_t unit_size =
      streamed ? static_cast<std::size_t>(config.tree_fan_out) : 1;
  // A wave is the units alive at once: every buffered client (the fold
  // holds their updates anyway), or a few streamed blocks per slot.
  const std::size_t wave_width =
      !streamed             ? static_cast<std::size_t>(config.clients_per_round)
      : e.runner.parallel() ? e.runner.slots() * 4
                            : 1;
  if (streamed) {
    registry.gauge("fl.scale.virtual_clients")
        .set(static_cast<double>(config.total_clients));
  }
  FlRunResult& result = e.ledger.result();

  for (std::int64_t t = 0; t < config.effective_rounds(); ++t) {
    // Same (seed, round) trace id the serving stack derives, so an
    // in-process run and a served run produce comparable traces.
    telemetry::TraceScope trace(telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    e.ledger.open_round();
    const std::vector<std::size_t> chosen = e.sample(t);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    const DeliveryContext ctx = e.delivery(t, e.server.weights());
    RoundTally tally;
    std::vector<ClientUpdate> updates;
    std::vector<double> update_weights;
    StreamingReducer root;
    std::int64_t edge_blocks = 0;
    int max_levels = 0;

    // Plan (serial, cohort order): dropout draws on the round's shared
    // stream and the crash-redraw chain. A crashed dispatch is re-issued
    // while the attempt budget lasts (retry_policy.h); every redraw is a
    // fresh injected instance with its own disposition.
    auto plan_dispatches = [&](const std::vector<std::size_t>& cis) {
      std::vector<Dispatch> dispatches(cis.size());
      for (std::size_t i = 0; i < cis.size(); ++i) {
        Dispatch& d = dispatches[i];
        d.ci = cis[i];
        if (e.drops_out(drop_rng, tally.stats)) continue;
        const auto id = static_cast<std::int64_t>(d.ci);
        d.fault = plan.fault_for(t, id);
        tally.stats.count_injected(d.fault);
        while (d.fault == FaultType::kCrash &&
               d.attempt + 1 < config.retry.max_attempts) {
          ++tally.stats.fault_retried;
          ++tally.stats.retry_attempts;
          ++d.attempt;
          d.fault = plan.fault_for_attempt(t, id, d.attempt);
          tally.stats.count_injected(d.fault);
        }
        // A crash out of budget never reports; a straggler misses the
        // round deadline.
        if (d.fault == FaultType::kCrash || d.fault == FaultType::kStraggler) {
          ++tally.stats.fault_expired;
        } else {
          d.run = true;
        }
      }
      return dispatches;
    };

    // One unit's clients, in cohort order, on one scratch model.
    auto run_unit = [&](const std::vector<Dispatch>& dispatches,
                        std::size_t begin, FoldUnit& unit,
                        nn::Sequential& scratch) {
      StreamingReducer reducer;
      const std::size_t end = std::min(begin + unit_size, dispatches.size());
      for (std::size_t i = begin; i < end; ++i) {
        if (!dispatches[i].run) continue;
        ClientDelivery delivery = deliver_client(ctx, dispatches[i], scratch);
        unit.tally.add(delivery);
        if (!delivery.update.has_value()) continue;
        ClientUpdate& update = *delivery.update;
        const bool faulty = delivery.fault != FaultType::kNone;
        const double weight = e.weight_of(dispatches[i].ci);
        if (!streamed) {
          // Batch screening rejects every faulty delivery: corrupt
          // deltas as non-finite, replays as stale.
          if (faulty) ++unit.tally.stats.fault_screened;
          unit.updates.push_back(std::move(update));
          unit.weights.push_back(weight);
          continue;
        }
        // max_staleness 0: any round mismatch rejects. The median band
        // needs a population, so only the absolute caps apply here.
        ScreeningReport report;
        const ScreenVerdict verdict =
            screener.screen_one(update, expected_shapes, t, 0, report);
        unit.tally.stats.count_screening(report);
        if (!verdict.accepted()) {
          if (faulty) ++unit.tally.stats.fault_screened;
          continue;
        }
        Rng srng = VirtualClientProvider::sanitize_stream(
            round_rng, t, static_cast<std::int64_t>(dispatches[i].ci));
        e.policy.sanitize_at_server(update.delta, e.groups, t, srng);
        reducer.push(std::move(update.delta), weight);
        ++unit.tally.accepted;
      }
      unit.partial = reducer.finalize();
      unit.max_levels = reducer.max_occupancy();
    };

    // Runs the units wave by wave on the pool, then folds each wave's
    // outcomes serially in unit order, so every counter and every float
    // addition lands deterministically.
    auto attempt = [&](const std::vector<std::size_t>& cis) {
      const std::vector<Dispatch> dispatches = plan_dispatches(cis);
      const std::size_t nunits =
          (dispatches.size() + unit_size - 1) / unit_size;
      edge_blocks += static_cast<std::int64_t>(nunits);
      for (std::size_t first = 0; first < nunits; first += wave_width) {
        std::vector<FoldUnit> units(std::min(wave_width, nunits - first));
        e.runner.run(units.size(), [&](std::size_t k, nn::Sequential& scratch) {
          run_unit(dispatches, (first + k) * unit_size, units[k], scratch);
        });
        for (FoldUnit& unit : units) {
          tally.merge(unit.tally);
          std::move(unit.updates.begin(), unit.updates.end(),
                    std::back_inserter(updates));
          update_weights.insert(update_weights.end(), unit.weights.begin(),
                                unit.weights.end());
          if (!unit.partial.empty()) root.push_node(std::move(unit.partial));
          max_levels = std::max(max_levels, unit.max_levels);
        }
      }
    };

    std::optional<telemetry::SpanTimer> local_train_span;
    local_train_span.emplace(registry, "fl.phase",
                             telemetry::Labels{{"phase", "local_train"}}, t);
    attempt(chosen);
    // One resample-retry pass: when the fold holds fewer than the quorum
    // and some failures were transient (crash, straggler, dropout), draw
    // replacement clients from the unsampled pool. They enter as fresh
    // units after the primary cohort's.
    const std::int64_t transient_failed =
        tally.stats.dropouts + tally.stats.fault_expired;
    const std::int64_t held =
        streamed ? tally.accepted : static_cast<std::int64_t>(updates.size());
    if (config.retry_failed_clients && transient_failed > 0 &&
        held < config.min_reporting) {
      std::vector<bool> in_round(static_cast<std::size_t>(config.total_clients),
                                 false);
      for (std::size_t ci : chosen) in_round[ci] = true;
      std::vector<std::size_t> spare;
      for (std::size_t i = 0; i < in_round.size(); ++i) {
        if (!in_round[i]) spare.push_back(i);
      }
      Rng retry_rng = round_rng.fork("retry", static_cast<std::uint64_t>(t));
      retry_rng.shuffle(spare);
      spare.resize(std::min(spare.size(),
                            static_cast<std::size_t>(transient_failed)));
      tally.stats.retried_clients += static_cast<std::int64_t>(spare.size());
      attempt(spare);
    }
    local_train_span.reset();

    AggregateOutcome outcome;
    if (!streamed) {
      outcome = aggregate_round(
          e.server, std::move(updates),
          config.weight_by_data_size ? &update_weights : nullptr, e.policy,
          e.groups, round_rng, t, tally);
    } else {
      telemetry::SpanTimer aggregate_span(registry, "fl.phase",
                                          {{"phase", "aggregate"}}, t);
      outcome = e.server.quorum(tally.accepted);
      if (outcome.tier != DegradationTier::kSkipRound) {
        ReduceNode total = root.finalize();
        max_levels = std::max(max_levels, root.max_occupancy());
        e.server.apply_mean(finalize_mean(std::move(total)), tally.accepted);
        outcome.applied = true;
        registry.counter("fl.scale.streamed_updates_total")
            .add(tally.accepted);
      }
      result.max_stream_levels = std::max(
          result.max_stream_levels, static_cast<std::int64_t>(max_levels));
      registry.record_point("fl.scale.edge_blocks", t,
                            static_cast<double>(edge_blocks));
      registry.gauge("fl.scale.reducer_levels")
          .set(static_cast<double>(result.max_stream_levels));
    }
    if (!outcome.applied) e.server.skip_round();
    e.ledger.close_round(t, tally, outcome);
  }

  result.final_weights = tensor::list::clone(e.server.weights());
  // A skipped last round has no accuracy: evaluate the surviving model.
  result.final_accuracy = result.history.back().accuracy;
  if (std::isnan(result.final_accuracy)) {
    result.final_accuracy = e.ledger.evaluate();
  }
  return e.ledger.finish();
}

// The asynchronous (FedBuff) engine. One round is one soft_deadline_ms
// window on the virtual latency clock: deliver the late arrivals due
// now, sample a cohort, resolve every client's dispatch-attempt chain
// (faults, latency, backoff) serially on the virtual clock, train and
// deliver the survivors on the pool, and stream their updates into the
// shared accumulator, which applies itself as soon as min_to_apply
// updates are buffered. A round ending below the threshold flushes its
// partial buffer (reduced-quorum tier) instead of dropping the work.
FlRunResult run_async(Engine& e, AsyncAggregator& agg) {
  const FlExperimentConfig& config = e.config;
  const Rng& round_rng = e.fed.round_rng;
  const FaultPlan& plan = e.fed.provider.fault_plan();
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
    e.ledger.open_round();
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
    const std::vector<std::size_t> chosen = e.sample(t);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    std::vector<Dispatch> runnable;
    std::vector<std::int64_t> rounds_late;
    for (std::size_t ci : chosen) {
      if (e.drops_out(drop_rng, tally.stats)) continue;
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
    const DeliveryContext ctx = e.delivery(t, weights);
    std::vector<ClientDelivery> deliveries(runnable.size());
    std::vector<std::optional<AsyncAggregator::OfferResult>> offers(
        runnable.size());
    {
      telemetry::SpanTimer train_span(
          registry, "fl.phase", telemetry::Labels{{"phase", "local_train"}},
          t);
      e.runner.run(runnable.size(), [&](std::size_t k,
                                        nn::Sequential& scratch) {
        deliveries[k] = deliver_client(ctx, runnable[k], scratch);
        if (deliveries[k].update.has_value() && rounds_late[k] == 0) {
          offers[k] = agg.offer(std::move(*deliveries[k].update), t,
                                e.weight_of(runnable[k].ci));
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
                           .weight = e.weight_of(runnable[k].ci)});
      }
    }
    e.ledger.close_round(t, tally, close_async_round(agg, applies_before));
  }

  // End of run: arrivals scheduled past the horizon expire, and the
  // last partial buffer is drained into the model.
  RoundTally drain;
  for (const Pending& p : pending) {
    if (p.fault != FaultType::kNone) ++drain.stats.fault_expired;
  }
  e.ledger.close_run(drain);
  agg.flush();
  FlRunResult& result = e.ledger.result();
  result.async_applies = agg.applies();
  result.final_weights = agg.weights_snapshot();
  result.final_accuracy = e.ledger.evaluate();
  return e.ledger.finish();
}

}  // namespace

FlRunResult run_experiment(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy) {
  FEDCL_CHECK_GT(config.total_clients, 0);
  FEDCL_CHECK_GT(config.clients_per_round, 0);
  FEDCL_CHECK_LE(config.clients_per_round, config.total_clients);
  FEDCL_CHECK_GE(config.min_reporting, 1);
  const std::int64_t rounds = config.effective_rounds();
  const std::int64_t local_iterations = config.effective_local_iterations();
  FEDCL_CHECK_GT(rounds, 0);
  FEDCL_CHECK(config.client_dropout >= 0.0 && config.client_dropout < 1.0)
      << "client dropout " << config.client_dropout;
  if (config.streaming_aggregation) {
    FEDCL_CHECK(!config.async_mode)
        << "streaming_aggregation is a synchronous engine; it cannot be "
           "combined with async_mode";
    FEDCL_CHECK(is_power_of_two(config.tree_fan_out) &&
                config.tree_fan_out >= 2)
        << "tree_fan_out must be a power of two >= 2, got "
        << config.tree_fan_out;
  }

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

  Engine engine{config, policy, fed, groups, runner, server, ledger};
  return agg.has_value() ? run_async(engine, *agg) : run_sync(engine);
}

}  // namespace fedcl::fl
