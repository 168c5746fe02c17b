#include "fl/round_engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/compression.h"
#include "fl/tree_aggregation.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"

namespace fedcl::fl {

namespace {

data::PartitionSpec partition_of(const data::BenchmarkConfig& bench,
                                 std::int64_t total_clients) {
  data::PartitionSpec part = bench.partition;
  part.num_clients = total_clients;
  return part;
}

LocalTrainConfig local_of(const data::BenchmarkConfig& bench,
                          std::int64_t local_iterations) {
  return {.local_iterations = local_iterations,
          .batch_size = bench.batch_size,
          .learning_rate = bench.learning_rate,
          .lr_decay_per_round = bench.lr_decay_per_round};
}

// What one unit of the sync fold produced: an edge block of consecutive
// cohort members (tree_fan_out of them under streaming_aggregation,
// else one), run start to finish on one scratch model.
struct FoldUnit {
  RoundTally tally;
  ReduceNode partial;  // the block's screened sum
  int max_levels = 0;
};

}  // namespace

Federation::Federation(const data::BenchmarkConfig& bench_config,
                       std::int64_t total_clients,
                       std::int64_t local_iterations,
                       const FaultInjectionConfig& faults, std::uint64_t seed)
    : bench(bench_config),
      root(seed),
      round_rng(root.fork("rounds")),
      train([&] {
        Rng data_rng = root.fork("train-data");
        return std::make_shared<data::Dataset>(
            data::generate_synthetic(bench.train_spec, data_rng));
      }()),
      // Virtualized client model: shards, fault schedules, and per-round
      // streams are synthesized on demand from (seed, client_id), so
      // setup is O(dataset) and a round touches only the clients it
      // sampled (fl/virtual_client.h).
      provider(train, partition_of(bench, total_clients),
               root.fork("partition"), local_of(bench, local_iterations),
               faults, seed),
      model([&] {
        Rng model_rng = root.fork("model");
        return nn::build_model(bench.model, model_rng);
      }()) {}

data::Dataset Federation::validation_set() const {
  Rng val_rng = root.fork("val-data");
  return data::generate_synthetic(bench.val_spec, val_rng);
}

ClientRunner::ClientRunner(const Federation& federation,
                           bool parallel_clients,
                           std::int64_t clients_per_round)
    : serial_model_(*federation.model) {
  const std::size_t pool_size = compute_pool().size();
  if (!parallel_clients || pool_size <= 1) return;
  const std::size_t slots =
      std::min(pool_size, static_cast<std::size_t>(clients_per_round));
  slot_models_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    Rng scratch_rng = federation.root.fork("scratch-model", s);
    slot_models_.push_back(
        nn::build_model(federation.bench.model, scratch_rng));
  }
}

void ClientRunner::run(
    std::size_t n,
    const std::function<void(std::size_t, nn::Sequential&)>& task) {
  if (!parallel() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i, serial_model_);
    return;
  }
  // Scratch models are interchangeable, so a checkout stack suffices;
  // the concurrency level never exceeds the slot count.
  std::mutex slot_mutex;
  std::vector<nn::Sequential*> free_slots;
  free_slots.reserve(slot_models_.size());
  for (const auto& m : slot_models_) free_slots.push_back(m.get());
  // Pool threads have an empty trace stack; adopt the caller's context
  // so client-side spans parent under the current phase span.
  const telemetry::TraceContext ctx = telemetry::current_trace();
  compute_pool().parallel_for(n, [&](std::size_t i) {
    telemetry::TraceScope adopt(ctx);
    nn::Sequential* scratch = nullptr;
    {
      std::lock_guard<std::mutex> lock(slot_mutex);
      FEDCL_CHECK(!free_slots.empty());
      scratch = free_slots.back();
      free_slots.pop_back();
    }
    task(i, *scratch);
    std::lock_guard<std::mutex> lock(slot_mutex);
    free_slots.push_back(scratch);
  });
}

ClientRoundOutcome train_client(const DeliveryContext& ctx, std::int64_t id,
                                nn::Sequential& scratch) {
  Rng crng = VirtualClientProvider::training_stream(ctx.round_rng, ctx.round,
                                                    id);
  ClientRoundOutcome outcome = ctx.provider.client(id).run_round(
      scratch, ctx.weights, ctx.policy, ctx.round, crng);
  if (ctx.prune_ratio > 0.0) {
    prune_smallest(outcome.update.delta, ctx.prune_ratio);
  }
  return outcome;
}

std::vector<std::uint8_t> seal_update(std::uint64_t seed, std::int64_t id,
                                      const ClientUpdate& update) {
  return SecureChannel(client_channel_key(seed, id))
      .seal(serialize_update(update));
}

Result<ClientUpdate> open_update(std::uint64_t seed, std::int64_t id,
                                 std::vector<std::uint8_t> sealed,
                                 ClientUpdate buffers) {
  Result<std::vector<std::uint8_t>> opened =
      SecureChannel(client_channel_key(seed, id)).open(std::move(sealed));
  if (!opened.ok()) return Result<ClientUpdate>::failure(opened.error());
  return deserialize_update(ByteSpan(opened.value()), std::move(buffers));
}

ClientDelivery deliver_client(const DeliveryContext& ctx, Dispatch d,
                              nn::Sequential& scratch) {
  const auto id = static_cast<std::int64_t>(d.ci);
  ClientRoundOutcome outcome = train_client(ctx, id, scratch);
  ClientDelivery out;
  out.trained = true;
  out.grad_norm = outcome.first_iteration_grad_norm;
  out.train_ms = outcome.local_train_ms;

  // The client resends a corrupt payload or damaged wire bytes while the
  // attempt budget lasts, drawing a fresh fault instance per attempt. A
  // redraw that crashes or straggles expires: the client already spent
  // its round.
  while ((d.fault == FaultType::kCorruptDelta ||
          d.fault == FaultType::kBitFlip) &&
         d.attempt + 1 < ctx.max_attempts) {
    ++out.stats.fault_retried;
    ++out.stats.retry_attempts;
    ++d.attempt;
    d.fault = ctx.provider.fault_plan().fault_for_attempt(ctx.round, id,
                                                          d.attempt);
    out.stats.count_injected(d.fault);
    if (d.fault == FaultType::kCrash || d.fault == FaultType::kStraggler) {
      ++out.stats.fault_expired;
      return out;
    }
  }
  out.fault = d.fault;

  Rng frng = VirtualClientProvider::delivery_fault_stream(ctx.round_rng,
                                                         ctx.round, id);
  if (d.fault == FaultType::kCorruptDelta) {
    corrupt_delta(outcome.update.delta, frng);
  } else if (d.fault == FaultType::kStaleRound) {
    outcome.update.round = ctx.round - 1;  // replay of the prior round
  }
  // Transport over the hostile channel; a decode failure drops this
  // client's update only.
  std::vector<std::uint8_t> wire = seal_update(ctx.seed, id, outcome.update);
  if (d.fault == FaultType::kBitFlip) flip_random_bits(wire, frng);
  Result<ClientUpdate> opened =
      open_update(ctx.seed, id, std::move(wire), std::move(outcome.update));
  if (opened.ok()) {
    out.update = opened.take();
    return out;
  }
  ++out.stats.rejected_decode;
  if (d.fault != FaultType::kNone) ++out.stats.fault_screened;
  return out;
}

void RoundTally::add(const ClientDelivery& delivery) {
  stats.accumulate(delivery.stats);
  if (!delivery.trained) return;
  norm_sum += delivery.grad_norm;
  ms_sum += delivery.train_ms;
  ++trained;
}

void RoundTally::merge(const RoundTally& other) {
  stats.accumulate(other.stats);
  norm_sum += other.norm_sum;
  ms_sum += other.ms_sum;
  trained += other.trained;
  accepted += other.accepted;
}

RoundLedger::RoundLedger(RoundLedgerOptions options)
    : options_(std::move(options)),
      registry_(telemetry::global_registry()),
      policy_labels_({{"policy", options_.policy.name()}}) {}

std::pair<std::int64_t, std::int64_t> RoundLedger::clip_totals() const {
  // Clip-decision totals are counted inside the policies; the delta
  // across one round gives that round's clip fraction without the
  // policies having to know about rounds.
  const std::int64_t total =
      registry_.counter("dp.clip.groups_total", policy_labels_).value() +
      registry_.counter("dp.clip.updates_total", policy_labels_).value();
  const std::int64_t clipped =
      registry_.counter("dp.clip.groups_clipped_total", policy_labels_)
          .value() +
      registry_.counter("dp.clip.updates_clipped_total", policy_labels_)
          .value();
  return {total, clipped};
}

void RoundLedger::open_round() {
  round_start_ms_ = registry_.now_ms();
  clip_before_ = clip_totals();
}

void RoundLedger::count_ledger(const RoundFailureStats& stats) {
  auto add = [this](const char* name, std::int64_t n,
                    const telemetry::Labels& labels = {}) {
    if (n > 0) registry_.counter(name, labels).add(n);
  };
  add("fl.faults.injected_total", stats.injected_crash, {{"type", "crash"}});
  add("fl.faults.injected_total", stats.injected_straggler,
      {{"type", "straggler"}});
  add("fl.faults.injected_total", stats.injected_corrupt,
      {{"type", "corrupt"}});
  add("fl.faults.injected_total", stats.injected_bit_flip,
      {{"type", "bit-flip"}});
  add("fl.faults.injected_total", stats.injected_stale, {{"type", "stale"}});
  add("fl.client.dropouts_total", stats.dropouts);
  add("fl.client.retried_total", stats.retried_clients);
  add("fl.transport.rejected_decode_total", stats.rejected_decode);
  add("fl.retry.attempts_total", stats.retry_attempts);
  add("fl.retry.expired_total", stats.fault_expired);
}

void RoundLedger::close_round(std::int64_t t, const RoundTally& tally,
                              const AggregateOutcome& outcome) {
  RoundRecord record;
  record.round = t;
  record.failures = tally.stats;
  if (outcome.tier == DegradationTier::kReducedQuorum) {
    ++record.failures.reduced_quorum_rounds;
    ++result_.reduced_quorum_rounds;
    result_.max_noise_widening =
        std::max(result_.max_noise_widening, outcome.noise_widening);
    registry_
        .counter("fl.round.degraded_total",
                 {{"tier", degradation_tier_name(outcome.tier)}})
        .add(1);
    registry_.record_point("fl.round.noise_widening", t,
                           outcome.noise_widening);
  }
  if (tally.trained > 0) {
    record.mean_grad_norm = tally.norm_sum / static_cast<double>(tally.trained);
    record.mean_client_ms = tally.ms_sum / static_cast<double>(tally.trained);
    total_ms_ += tally.ms_sum;
    total_local_iters_ += tally.trained * options_.local_iterations;
  }

  // Per-round telemetry, recorded whether or not the round applied.
  const std::pair<std::int64_t, std::int64_t> clip_after = clip_totals();
  const std::int64_t clip_delta = clip_after.first - clip_before_.first;
  if (clip_delta > 0) {
    registry_.record_point(
        "fl.round.clip_fraction", t,
        static_cast<double>(clip_after.second - clip_before_.second) /
            static_cast<double>(clip_delta),
        policy_labels_);
  }
  if (tally.trained > 0) {
    registry_.record_point("fl.round.grad_norm_mean", t,
                           record.mean_grad_norm);
  }
  registry_.record_point("fl.round.accepted", t,
                         static_cast<double>(tally.accepted));
  registry_.record_point("fl.round.rejected", t,
                         static_cast<double>(tally.stats.rejected_total()));
  if (!options_.epsilon.instance_epsilon.empty()) {
    const double inst_eps =
        options_.epsilon.instance_epsilon[static_cast<std::size_t>(t)];
    const double client_eps =
        options_.epsilon.client_epsilon[static_cast<std::size_t>(t)];
    registry_.gauge("dp.epsilon", {{"level", "instance"}}).set(inst_eps);
    registry_.gauge("dp.epsilon", {{"level", "client"}}).set(client_eps);
    registry_.record_point("dp.epsilon", t, inst_eps, {{"level", "instance"}});
    registry_.record_point("dp.epsilon", t, client_eps, {{"level", "client"}});
  }
  count_ledger(tally.stats);

  record.accuracy = std::nan("");
  if (!outcome.applied) {
    // Graceful degradation: the round produced no aggregate — nobody
    // reported or screening left the quorum unmet.
    ++result_.dropped_rounds;
    ++record.failures.quorum_missed;
    registry_.counter("fl.round.quorum_missed_total").add(1);
  } else if ((options_.eval_every > 0 && (t + 1) % options_.eval_every == 0) ||
             t + 1 == options_.rounds) {
    telemetry::SpanTimer eval_span(registry_, "fl.phase", {{"phase", "eval"}},
                                   t);
    record.accuracy = evaluate();
    registry_.record_point("fl.round.accuracy", t, record.accuracy);
    FEDCL_LOG(Debug) << options_.log_prefix << " round " << (t + 1) << "/"
                     << options_.rounds << " acc=" << record.accuracy;
  }
  result_.updates_accepted += tally.accepted;
  result_.total_failures.accumulate(record.failures);
  record.wall_ms = registry_.now_ms() - round_start_ms_;
  result_.history.push_back(std::move(record));
}

void RoundLedger::close_run(const RoundTally& tally) {
  count_ledger(tally.stats);
  result_.updates_accepted += tally.accepted;
  result_.total_failures.accumulate(tally.stats);
}

double RoundLedger::evaluate() {
  options_.eval_model->set_weights(options_.server.weights());
  return nn::evaluate_accuracy(*options_.eval_model, options_.val->features(),
                               options_.val->labels());
}

FlRunResult RoundLedger::finish() {
  result_.ms_per_local_iteration =
      total_local_iters_ > 0
          ? total_ms_ / static_cast<double>(total_local_iters_)
          : 0.0;
  result_.completed_rounds = options_.rounds - result_.dropped_rounds;
  result_.final_weights = tensor::list::clone(options_.server.weights());
  registry_.flush_sinks();
  result_.telemetry = registry_.snapshot();
  return std::move(result_);
}

FlRunResult run_sync(const RunState& run, ClientExecutor& executor) {
  const FlExperimentConfig& config = run.config;
  const Rng& round_rng = run.fed.round_rng;
  const FaultPlan& plan = run.fed.provider.fault_plan();
  telemetry::Registry& registry = telemetry::global_registry();
  // The unit size is an execution detail: the pinned order sums the
  // same bits at every power-of-two size on fault-free rounds.
  const std::size_t unit_size =
      config.streaming_aggregation
          ? static_cast<std::size_t>(config.tree_fan_out)
          : 1;
  // A wave is the units alive at once: a few per slot.
  const std::size_t wave_width =
      run.runner.parallel() ? run.runner.slots() * 4 : 1;
  registry.gauge("fl.scale.virtual_clients")
      .set(static_cast<double>(config.total_clients));
  FlRunResult& result = run.ledger.result();

  for (std::int64_t t = 0; t < config.effective_rounds(); ++t) {
    // Same (seed, round) trace id in every process, so in-process and
    // served runs produce comparable traces and worker spans join in.
    telemetry::TraceScope trace(telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    run.ledger.open_round();
    const std::vector<std::size_t> chosen = run.sample(t);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    const DeliveryContext ctx = run.delivery(t, run.server.weights());
    RoundTally tally;
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
        if (run.drops_out(drop_rng, tally.stats)) continue;
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

    // One unit's clients, in cohort order, on one scratch model: each
    // delivered update is screened as it lands and pushed into the
    // unit's reducer.
    auto run_unit = [&](const std::vector<Dispatch>& dispatches,
                        const ClientExecutor::Deliver& deliver,
                        std::size_t begin, FoldUnit& unit,
                        nn::Sequential& scratch) {
      StreamingReducer reducer;
      ScreeningReport report;
      const std::size_t end = std::min(begin + unit_size, dispatches.size());
      for (std::size_t i = begin; i < end; ++i) {
        if (!dispatches[i].run) continue;
        ClientDelivery delivery = deliver(i, scratch);
        unit.tally.add(delivery);
        if (!delivery.update.has_value()) continue;
        const ScreenVerdict verdict = run.server.screen_and_push(
            std::move(*delivery.update), run.server.round(), reducer, report);
        if (!verdict.accepted() && delivery.fault != FaultType::kNone) {
          ++unit.tally.stats.fault_screened;
        }
      }
      unit.tally.stats.count_screening(report);
      unit.tally.accepted = report.accepted;
      unit.partial = reducer.finalize();
      unit.max_levels = reducer.max_occupancy();
    };

    // Runs the units wave by wave on the pool, then folds each wave's
    // outcomes serially in unit order, so every counter and every float
    // addition lands deterministically.
    auto attempt = [&](const std::vector<std::size_t>& cis) {
      const std::vector<Dispatch> dispatches = plan_dispatches(cis);
      const ClientExecutor::Deliver deliver = executor.start(ctx, dispatches);
      const std::size_t nunits =
          (dispatches.size() + unit_size - 1) / unit_size;
      edge_blocks += static_cast<std::int64_t>(nunits);
      for (std::size_t first = 0; first < nunits; first += wave_width) {
        std::vector<FoldUnit> units(std::min(wave_width, nunits - first));
        run.runner.run(units.size(),
                       [&](std::size_t k, nn::Sequential& scratch) {
                         run_unit(dispatches, deliver, (first + k) * unit_size,
                                  units[k], scratch);
                       });
        for (FoldUnit& unit : units) {
          tally.merge(unit.tally);
          root.push_node(std::move(unit.partial));
          max_levels = std::max(max_levels, unit.max_levels);
        }
      }
    };

    std::optional<telemetry::SpanTimer> local_train_span;
    local_train_span.emplace(registry, "fl.phase",
                             telemetry::Labels{{"phase", "local_train"}}, t);
    attempt(chosen);
    // One resample-retry pass: when the fold accepted fewer than the
    // quorum and some failures were transient (crash, straggler,
    // dropout), draw replacement clients from the unsampled pool. They
    // enter as fresh units after the primary cohort's.
    const std::int64_t transient_failed =
        tally.stats.dropouts + tally.stats.fault_expired;
    if (config.retry_failed_clients && transient_failed > 0 &&
        tally.accepted < config.min_reporting) {
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
    {
      telemetry::SpanTimer aggregate_span(registry, "fl.phase",
                                          {{"phase", "aggregate"}}, t);
      outcome = run.server.quorum(tally.accepted);
      if (outcome.tier != DegradationTier::kSkipRound) {
        ReduceNode total = root.finalize();
        max_levels = std::max(max_levels, root.max_occupancy());
        run.server.apply_mean(finalize_mean(std::move(total)), tally.accepted);
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
    if (!outcome.applied) run.server.skip_round();
    run.ledger.close_round(t, tally, outcome);
  }

  // A skipped last round has no accuracy: evaluate the surviving model.
  result.final_accuracy = result.history.back().accuracy;
  if (std::isnan(result.final_accuracy)) {
    result.final_accuracy = run.ledger.evaluate();
  }
  return run.ledger.finish();
}

namespace {

// Trains and delivers each client in this process (deliver_client). The
// async side trains a round's clients on `runner` and keeps a queue on
// the virtual clock: a late update lands at its due round, after the
// earlier rounds' in (due round, dispatch round, client) order, and an
// on-time one in cohort order at the end of its own round. Updates due
// past the last round never land; a faulty one expires.
class InProcessExecutor final : public ClientExecutor {
 public:
  explicit InProcessExecutor(ClientRunner& runner) : runner_(runner) {}

  Deliver start(const DeliveryContext& ctx,
                const std::vector<Dispatch>& dispatches) override {
    return [&ctx, &dispatches](std::size_t i, nn::Sequential& scratch) {
      return deliver_client(ctx, dispatches[i], scratch);
    };
  }
  std::vector<Arrival> due(std::int64_t t) override;
  std::vector<Arrival> dispatch(
      const DeliveryContext& ctx,
      const std::vector<Dispatch>& runnable) override;
  std::vector<Arrival> drain(std::int64_t t) override;

 private:
  struct Pending {
    std::int64_t due_round = 0;
    std::int64_t dispatch_round = 0;
    Arrival arrival;
  };
  ClientRunner& runner_;
  std::vector<Pending> pending_;
};

}  // namespace

std::vector<Arrival> InProcessExecutor::due(std::int64_t t) {
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& a, const Pending& b) {
                     return std::tie(a.due_round, a.dispatch_round,
                                     a.arrival.ci) <
                            std::tie(b.due_round, b.dispatch_round,
                                     b.arrival.ci);
                   });
  std::vector<Arrival> arrivals;
  auto it = pending_.begin();
  for (; it != pending_.end() && it->due_round <= t; ++it) {
    arrivals.push_back(std::move(it->arrival));
  }
  pending_.erase(pending_.begin(), it);
  return arrivals;
}

std::vector<Arrival> InProcessExecutor::dispatch(
    const DeliveryContext& ctx, const std::vector<Dispatch>& runnable) {
  std::vector<Arrival> arrivals(runnable.size());
  runner_.run(runnable.size(), [&](std::size_t k, nn::Sequential& scratch) {
    arrivals[k] = {runnable[k].ci, deliver_client(ctx, runnable[k], scratch)};
  });
  // A late update leaves the round's arrival (its stats and training
  // time stay with the dispatch round) and waits for its due round.
  for (std::size_t k = 0; k < runnable.size(); ++k) {
    ClientDelivery& delivery = arrivals[k].delivery;
    if (runnable[k].rounds_late == 0 || !delivery.update.has_value()) continue;
    Pending& late = pending_.emplace_back();
    late.due_round = ctx.round + runnable[k].rounds_late;
    late.dispatch_round = ctx.round;
    late.arrival.ci = runnable[k].ci;
    late.arrival.delivery.fault = delivery.fault;
    late.arrival.delivery.update = std::move(delivery.update);
    delivery.update.reset();
  }
  return arrivals;
}

std::vector<Arrival> InProcessExecutor::drain(std::int64_t) {
  std::vector<Arrival> expired;
  for (const Pending& p : pending_) {
    if (p.arrival.delivery.fault == FaultType::kNone) continue;
    expired.emplace_back();
    expired.back().delivery.stats.fault_expired = 1;
  }
  pending_.clear();
  return expired;
}

FlRunResult run_async(const RunState& run, ClientExecutor& executor) {
  const FlExperimentConfig& config = run.config;
  const Rng& round_rng = run.fed.round_rng;
  const FaultPlan& plan = run.fed.provider.fault_plan();
  const RetryPolicy rpolicy(config.retry);
  const std::int64_t min_to_apply =
      resolve_async_config(config.async, config.clients_per_round)
          .min_to_apply;
  Server& server = run.server;
  telemetry::Registry& registry = telemetry::global_registry();

  // The FedBuff buffer: the updates accepted since the last apply,
  // summed in the pinned tree order. It applies at min_to_apply of
  // them, so it holds at most floor(log2 M) + 1 partials.
  StreamingReducer buffer;
  std::int64_t buffered = 0;
  auto apply = [&](const char* trigger) {
    server.apply_mean(finalize_mean(buffer.finalize()), buffered);
    buffered = 0;
    registry.counter("fl.async.applied_total", {{"trigger", trigger}}).add(1);
    registry.gauge("fl.async.buffer_occupancy").set(0.0);
  };

  // Books each arrival into `tally` and folds its update, if any, at
  // round `now`. The injected instance (if any) behind an accepted
  // update was absorbed stale; behind a rejected one it was screened
  // out.
  auto land = [&](std::vector<Arrival> arrivals, std::int64_t now,
                  RoundTally& tally) {
    ScreeningReport report;
    for (Arrival& a : arrivals) {
      tally.add(a.delivery);
      if (!a.delivery.update.has_value()) continue;
      const bool faulty = a.delivery.fault != FaultType::kNone;
      const ScreenVerdict verdict = server.screen_and_push(
          std::move(*a.delivery.update), now, buffer, report);
      if (!verdict.accepted()) {
        if (faulty) ++tally.stats.fault_screened;
        continue;
      }
      if (faulty) ++tally.stats.fault_accepted_stale;
      // Inclusive upper edges in rounds behind, plus an overflow bucket.
      registry.histogram("fl.async.staleness", {0, 1, 2, 4, 8, 16, 32})
          .observe(static_cast<double>(verdict.staleness));
      if (verdict.staleness > 0) {
        registry.counter("fl.async.stale_accepted_total").add(1);
      }
      registry.gauge("fl.async.buffer_occupancy")
          .set(static_cast<double>(++buffered));
      if (buffered == min_to_apply) apply("quorum");
    }
    tally.stats.count_screening(report);
    tally.accepted += report.accepted;
  };

  for (std::int64_t t = 0; t < config.effective_rounds(); ++t) {
    telemetry::TraceScope trace(telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    run.ledger.open_round();
    RoundTally tally;
    const std::int64_t version_before = server.round();
    land(executor.due(t), t, tally);

    // Plan (serial): each client's dispatch-attempt chain on the virtual
    // clock. Every fault, latency, and backoff draw happens here, in
    // cohort order, so the post-train re-dispatch has nothing left to do.
    const std::vector<std::size_t> chosen = run.sample(t);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    std::vector<Dispatch> runnable;
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
          runnable.push_back({.ci = ci,
                              .fault = f,
                              .attempt = attempt,
                              .run = true,
                              .rounds_late =
                                  rpolicy.rounds_late(elapsed_ms + lat)});
        }
        break;
      }
    }

    // Clients train from the server's weights in place: no apply runs
    // while a dispatch reads them. The in-process executor finishes
    // training before dispatch returns, and the socket executor
    // serializes them as it sends.
    std::vector<Arrival> arrivals;
    {
      telemetry::SpanTimer train_span(
          registry, "fl.phase", telemetry::Labels{{"phase", "local_train"}},
          t);
      arrivals = executor.dispatch(run.delivery(t, server.weights()),
                                   runnable);
    }
    land(std::move(arrivals), t, tally);
    // The round's end: applied when an update tripped the threshold;
    // otherwise a non-empty partial buffer is flushed in under the
    // reduced-quorum tier instead of dropping the work.
    AggregateOutcome outcome;
    if (server.round() > version_before) {
      outcome.tier = DegradationTier::kFullQuorum;
    } else if (buffered > 0) {
      outcome.tier = DegradationTier::kReducedQuorum;
      outcome.noise_widening = static_cast<double>(min_to_apply) /
                               static_cast<double>(buffered);
      apply("flush");
    }
    outcome.applied = outcome.tier != DegradationTier::kSkipRound;
    run.ledger.close_round(t, tally, outcome);
  }

  // End of run: what still lands is folded at the last round, the rest
  // expires, and the last partial buffer is drained into the model.
  const std::int64_t last = config.effective_rounds() - 1;
  RoundTally drain;
  land(executor.drain(last), last, drain);
  run.ledger.close_run(drain);
  if (buffered > 0) apply("flush");
  FlRunResult& result = run.ledger.result();
  result.async_applies = server.round();
  result.max_stream_levels = buffer.max_occupancy();
  result.final_accuracy = run.ledger.evaluate();
  return run.ledger.finish();
}

FlRunResult run_federation(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy,
                           const Federation& fed, ClientExecutor* remote) {
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

  const data::Dataset val = fed.validation_set();
  ClientRunner runner(fed, config.parallel_clients, config.clients_per_round);
  // The one global model. Only the async engine accepts late updates.
  Server server(
      fed.model->weights(),
      {.server_momentum = config.server_momentum,
       .screening = config.screening,
       .min_reporting = config.min_reporting,
       .reduced_min_reporting = config.reduced_min_reporting,
       .max_staleness = config.async_mode ? config.async.max_staleness : 0,
       .staleness_alpha = config.async.staleness_alpha});

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
  if (noising && core::instance_rate_accountable(privacy_setup)) {
    eps_series = core::epsilon_round_series(privacy_setup);
    telemetry::global_registry().gauge("dp.delta").set(config.delta);
  }

  std::string engine_label;
  if (config.async_mode) engine_label = " async";
  if (config.streaming_aggregation) engine_label = " streaming";
  RoundLedger ledger({
      .rounds = rounds,
      .eval_every = config.eval_every,
      .local_iterations = local_iterations,
      .epsilon = std::move(eps_series),
      .policy = policy,
      .eval_model = fed.model.get(),
      .val = &val,
      .server = server,
      .log_prefix = config.bench.name + " " + policy.name() + engine_label,
  });
  ledger.result().privacy_setup = privacy_setup;

  const RunState run{config, policy, fed, runner, server, ledger};
  InProcessExecutor in_process(runner);
  ClientExecutor& executor = remote != nullptr ? *remote : in_process;
  return config.async_mode ? run_async(run, executor)
                           : run_sync(run, executor);
}

}  // namespace fedcl::fl
