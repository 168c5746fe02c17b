#include "fl/round_engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/compression.h"
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
                           const core::PrivacyPolicy& policy,
                           bool parallel_clients,
                           std::int64_t clients_per_round)
    : serial_model_(*federation.model) {
  const std::size_t pool_size = compute_pool().size();
  if (!parallel_clients || pool_size <= 1 || policy.order_dependent() ||
      nn::has_stochastic_layer(serial_model_)) {
    return;
  }
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

ClientDelivery deliver_client(const DeliveryContext& ctx, Dispatch d,
                              nn::Sequential& scratch) {
  const auto id = static_cast<std::int64_t>(d.ci);
  Rng crng = VirtualClientProvider::training_stream(ctx.round_rng, ctx.round,
                                                    id);
  ClientRoundOutcome outcome = ctx.provider.client(id).run_round(
      scratch, ctx.weights, ctx.policy, ctx.round, crng);
  ClientDelivery out;
  out.grad_norm = outcome.first_iteration_grad_norm;
  out.train_ms = outcome.local_train_ms;
  if (ctx.prune_ratio > 0.0) {
    prune_smallest(outcome.update.delta, ctx.prune_ratio);
  }

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
  SecureChannel channel(client_channel_key(ctx.seed, id));
  std::vector<std::uint8_t> wire =
      channel.seal(serialize_update(outcome.update));
  if (d.fault == FaultType::kBitFlip) flip_random_bits(wire, frng);
  Result<std::vector<std::uint8_t>> opened = channel.open(std::move(wire));
  if (opened.ok()) {
    Result<ClientUpdate> decoded = deserialize_update(
        ByteSpan(opened.value()), std::move(outcome.update));
    if (decoded.ok()) {
      out.update = decoded.take();
      return out;
    }
  }
  ++out.stats.rejected_decode;
  if (d.fault != FaultType::kNone) ++out.stats.fault_screened;
  return out;
}

void RoundTally::add(const ClientDelivery& delivery) {
  stats.accumulate(delivery.stats);
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

AggregateOutcome aggregate_round(Server& server,
                                 std::vector<ClientUpdate> updates,
                                 const std::vector<double>* update_weights,
                                 const core::PrivacyPolicy& policy,
                                 const dp::ParamGroups& groups,
                                 const Rng& round_rng, std::int64_t round,
                                 RoundTally& tally) {
  if (updates.empty()) return {};
  telemetry::SpanTimer aggregate_span(telemetry::global_registry(),
                                      "fl.phase", {{"phase", "aggregate"}},
                                      round);
  Rng agg_rng = round_rng.fork("aggregate", static_cast<std::uint64_t>(round));
  AggregateOutcome outcome = server.aggregate(std::move(updates), policy,
                                              groups, agg_rng, update_weights);
  tally.stats.count_screening(outcome.screening);
  tally.accepted = outcome.screening.accepted;
  return outcome;
}

AggregateOutcome close_async_round(AsyncAggregator& agg,
                                   std::int64_t applies_before) {
  AggregateOutcome outcome;
  if (agg.applies() > applies_before) {
    outcome.tier = DegradationTier::kFullQuorum;
  } else if (agg.buffered() > 0) {
    outcome.tier = DegradationTier::kReducedQuorum;
    outcome.noise_widening = static_cast<double>(agg.min_to_apply()) /
                             static_cast<double>(agg.buffered());
    agg.flush();
  }
  outcome.applied = outcome.tier != DegradationTier::kSkipRound;
  return outcome;
}

RoundLedger::RoundLedger(RoundLedgerOptions options)
    : options_(std::move(options)),
      registry_(telemetry::global_registry()) {
  if (options_.clip_policy != nullptr) {
    policy_labels_ = {{"policy", options_.clip_policy->name()}};
  }
}

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
  if (options_.clip_policy != nullptr) clip_before_ = clip_totals();
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
  if (options_.clip_policy != nullptr) {
    const std::pair<std::int64_t, std::int64_t> clip_after = clip_totals();
    const std::int64_t clip_delta = clip_after.first - clip_before_.first;
    if (clip_delta > 0) {
      registry_.record_point(
          "fl.round.clip_fraction", t,
          static_cast<double>(clip_after.second - clip_before_.second) /
              static_cast<double>(clip_delta),
          policy_labels_);
    }
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
    detail::LogMessage(options_.log_level)
        << options_.log_prefix << " round " << (t + 1) << "/"
        << options_.rounds << " acc=" << record.accuracy;
  }
  accepted_total_ += tally.accepted;
  result_.total_failures.accumulate(record.failures);
  result_.history.push_back(std::move(record));
}

void RoundLedger::close_run(const RoundTally& tally) {
  count_ledger(tally.stats);
  accepted_total_ += tally.accepted;
  result_.total_failures.accumulate(tally.stats);
}

double RoundLedger::evaluate() {
  options_.eval_model->set_weights(options_.weights());
  return nn::evaluate_accuracy(*options_.eval_model, options_.val->features(),
                               options_.val->labels());
}

FlRunResult RoundLedger::finish() {
  result_.ms_per_local_iteration =
      total_local_iters_ > 0
          ? total_ms_ / static_cast<double>(total_local_iters_)
          : 0.0;
  result_.completed_rounds = options_.rounds - result_.dropped_rounds;
  registry_.flush_sinks();
  result_.telemetry = registry_.snapshot();
  return std::move(result_);
}

}  // namespace fedcl::fl
