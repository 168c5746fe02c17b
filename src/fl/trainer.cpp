#include "fl/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/compression.h"
#include "fl/scale_engine.h"
#include "fl/server.h"
#include "fl/virtual_client.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"

namespace fedcl::fl {

FlRunResult run_experiment(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy) {
  if (config.streaming_aggregation) {
    return run_streaming_experiment(config, policy);
  }
  FEDCL_CHECK_GT(config.total_clients, 0);
  FEDCL_CHECK_GT(config.clients_per_round, 0);
  FEDCL_CHECK_LE(config.clients_per_round, config.total_clients);
  FEDCL_CHECK_GE(config.min_reporting, 1);
  const std::int64_t rounds = config.effective_rounds();
  const std::int64_t local_iterations = config.effective_local_iterations();
  FEDCL_CHECK_GT(rounds, 0);

  Rng root(config.seed);
  Rng data_rng = root.fork("train-data");
  Rng val_rng = root.fork("val-data");
  Rng part_rng = root.fork("partition");
  Rng model_rng = root.fork("model");
  Rng round_rng = root.fork("rounds");

  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(config.bench.train_spec, data_rng));
  data::Dataset val =
      data::generate_synthetic(config.bench.val_spec, val_rng);

  data::PartitionSpec part = config.bench.partition;
  part.num_clients = config.total_clients;
  LocalTrainConfig local{.local_iterations = local_iterations,
                         .batch_size = config.bench.batch_size,
                         .learning_rate = config.bench.learning_rate,
                         .lr_decay_per_round =
                             config.bench.lr_decay_per_round};
  // Virtualized client model: shards, fault schedules, and per-round
  // streams are synthesized on demand from (seed, client_id), so setup
  // is O(dataset) and a round touches only the clients it sampled —
  // never O(total_clients) storage (fl/virtual_client.h; bitwise
  // equality with eager construction is pinned in property_test).
  const VirtualClientProvider provider(train, part, part_rng, local,
                                       config.faults, config.seed);
  const std::size_t total_clients =
      static_cast<std::size_t>(config.total_clients);

  // The main scratch model serves serial training and evaluation; its
  // weights are overwritten from the global model each run_round.
  std::shared_ptr<nn::Sequential> model =
      nn::build_model(config.bench.model, model_rng);
  const dp::ParamGroups groups = to_param_groups(model->layer_groups());

  // Parallel client execution: correct only when clients are
  // independent given their forked RNG streams — which order-dependent
  // policies and in-model RNG state (Dropout) break, so those fall
  // back to the serial schedule.
  ThreadPool& pool = compute_pool();
  const bool parallel_clients = config.parallel_clients && pool.size() > 1 &&
                                !policy.order_dependent() &&
                                !nn::has_stochastic_layer(*model);
  // One private scratch model per concurrent training slot. Their
  // initial weights are irrelevant (run_round installs the global
  // weights first), so each is built from a throwaway fork.
  std::vector<std::shared_ptr<nn::Sequential>> slot_models;
  if (parallel_clients) {
    const std::size_t slots =
        std::min(pool.size(),
                 static_cast<std::size_t>(config.clients_per_round));
    slot_models.reserve(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      Rng scratch_rng = root.fork("scratch-model", s);
      slot_models.push_back(nn::build_model(config.bench.model, scratch_rng));
    }
  }
  FEDCL_CHECK(config.client_dropout >= 0.0 && config.client_dropout < 1.0)
      << "client dropout " << config.client_dropout;
  Server server(model->weights(),
                {.server_momentum = config.server_momentum,
                 .screening = config.screening,
                 .min_reporting = config.min_reporting,
                 .reduced_min_reporting = config.reduced_min_reporting});
  const FaultPlan& plan = provider.fault_plan();
  const RetryPolicy rpolicy(config.retry);
  // Streaming accumulator for the async engine; screening comes from
  // the shared config (one source of truth).
  std::optional<AsyncAggregator> agg;
  if (config.async_mode) {
    AsyncAggregatorConfig async_cfg = config.async;
    if (async_cfg.min_to_apply <= 0) {
      async_cfg.min_to_apply =
          std::max<std::int64_t>(1, config.clients_per_round / 2);
    }
    async_cfg.screening = config.screening;
    agg.emplace(model->weights(), async_cfg, policy, groups,
                root.fork("async-aggregate"));
  }

  // One run owns the process-global registry: zero the aggregates so
  // the snapshot this run returns describes this run only (attached
  // sinks and outstanding instrument references survive the reset).
  telemetry::Registry& registry = telemetry::global_registry();
  registry.reset();

  FlRunResult result;
  result.privacy_setup = {
      .total_examples = train->size(),
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
      static_cast<double>(train->size());
  if (config.noise_scale > 0.0 && instance_q <= 1.0) {
    eps_series = core::epsilon_round_series(result.privacy_setup);
    registry.gauge("dp.delta").set(config.delta);
  }

  double total_ms = 0.0;
  std::int64_t total_local_iters = 0;

  const telemetry::Labels policy_labels{{"policy", policy.name()}};
  // Clip-decision totals are counted inside the policies; the delta
  // across one round gives that round's clip fraction without the
  // policies having to know about rounds.
  auto clip_totals = [&registry, &policy_labels]() {
    const std::int64_t total =
        registry.counter("dp.clip.groups_total", policy_labels).value() +
        registry.counter("dp.clip.updates_total", policy_labels).value();
    const std::int64_t clipped =
        registry.counter("dp.clip.groups_clipped_total", policy_labels)
            .value() +
        registry.counter("dp.clip.updates_clipped_total", policy_labels)
            .value();
    return std::pair<std::int64_t, std::int64_t>(total, clipped);
  };

  if (config.async_mode) {
    // ================ asynchronous (FedBuff) engine ================
    // One round is one soft_deadline_ms window on the virtual latency
    // clock. Each round: deliver the late arrivals due now, sample a
    // cohort, resolve every client's dispatch-attempt chain (faults,
    // latency, backoff) serially on the virtual clock, train the
    // survivors (in parallel when allowed), and stream their updates
    // into the shared accumulator — which applies itself as soon as
    // min_to_apply updates are buffered. A round ending below the
    // threshold flushes its partial buffer (reduced-quorum tier)
    // instead of dropping the work.
    struct PendingArrival {
      std::int64_t due_round = 0;
      std::int64_t dispatch_round = 0;
      std::size_t ci = 0;
      FaultType fault = FaultType::kNone;  // straggler/etc. that delayed it
      ClientUpdate update;
      double weight = 1.0;
    };
    std::vector<PendingArrival> pending;

    for (std::int64_t t = 0; t < rounds; ++t) {
      // Same (seed, round) trace id the serving stack derives, so an
      // in-process run and a served run of one experiment produce
      // directly comparable traces (--trace-out, docs/METRICS.md).
      telemetry::TraceScope trace(
          telemetry::round_trace_root(config.seed, t));
      telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
      const std::pair<std::int64_t, std::int64_t> clip_before = clip_totals();
      RoundRecord record;
      record.round = t;
      RoundFailureStats& stats = record.failures;
      const std::int64_t applies_before = agg->applies();
      std::int64_t round_accepted = 0;
      std::int64_t round_rejected = 0;

      // Serial disposition tally for one offer: the injected instance
      // (if any) behind an accepted delivery was absorbed stale; behind
      // a rejected one it was screened out.
      auto tally_offer = [&](const AsyncAggregator::OfferResult& res,
                             FaultType fault) {
        if (res.accepted) {
          ++round_accepted;
          if (fault != FaultType::kNone) ++stats.fault_accepted_stale;
          return;
        }
        ++round_rejected;
        if (fault != FaultType::kNone) ++stats.fault_screened;
        if (res.reject.has_value()) {
          switch (*res.reject) {
            case RejectReason::kShapeMismatch:
              ++stats.rejected_shape;
              break;
            case RejectReason::kNonFinite:
              ++stats.rejected_non_finite;
              break;
            case RejectReason::kNormOutlier:
              ++stats.rejected_norm_outlier;
              break;
            case RejectReason::kStaleRound:
              ++stats.rejected_stale;
              break;
          }
        }
      };

      // Phase 0 (serial): late arrivals due this round, in a
      // deterministic (due, dispatch, client) order.
      std::stable_sort(pending.begin(), pending.end(),
                       [](const PendingArrival& a, const PendingArrival& b) {
                         return std::tie(a.due_round, a.dispatch_round,
                                         a.ci) < std::tie(b.due_round,
                                                          b.dispatch_round,
                                                          b.ci);
                       });
      std::vector<PendingArrival> still_pending;
      for (PendingArrival& p : pending) {
        if (p.due_round > t) {
          still_pending.push_back(std::move(p));
          continue;
        }
        tally_offer(agg->offer(std::move(p.update), t, p.weight), p.fault);
      }
      pending = std::move(still_pending);

      // Phase 1: cohort sampling — the same stream as the sync engine.
      Rng sample_rng =
          round_rng.fork("sample", static_cast<std::uint64_t>(t));
      std::vector<std::size_t> chosen = server.sample_clients(
          total_clients, static_cast<std::size_t>(config.clients_per_round),
          sample_rng);
      Rng drop_rng =
          round_rng.fork("dropout", static_cast<std::uint64_t>(t));

      // Phase 2 (serial): resolve each client's dispatch-attempt chain
      // on the virtual clock. Every fault draw, latency draw, and
      // backoff happens here, in client order.
      struct AsyncAttempt {
        std::size_t ci = 0;
        FaultType fault = FaultType::kNone;  // final-attempt fault
        bool run = false;
        std::int64_t rounds_late = 0;
        double weight = 1.0;
        ClientRoundOutcome outcome;
        bool decode_failed = false;
        bool offered = false;
        AsyncAggregator::OfferResult offer;
        std::optional<ClientUpdate> late_update;
      };
      std::vector<AsyncAttempt> attempts;
      attempts.reserve(chosen.size());
      for (std::size_t ci : chosen) {
        AsyncAttempt a;
        a.ci = ci;
        if (config.client_dropout > 0.0 &&
            drop_rng.bernoulli(config.client_dropout)) {
          ++stats.dropouts;  // offline: never dispatched
          attempts.push_back(std::move(a));
          continue;
        }
        Rng lat_rng = round_rng.fork(
            "latency", static_cast<std::uint64_t>(
                           t * 1000003 + static_cast<std::int64_t>(ci)));
        double elapsed_ms = 0.0;
        int attempt = 0;
        for (;;) {
          const FaultType f = plan.fault_for_attempt(
              t, static_cast<std::int64_t>(ci), attempt);
          stats.count_injected(f);
          const double lat = rpolicy.latency_ms(f, lat_rng);
          if (rpolicy.transient(f) &&
              attempt + 1 < config.retry.max_attempts) {
            // Re-dispatch: a crash is detected at the soft deadline, a
            // corrupt/damaged payload when the server rejects it.
            ++stats.fault_retried;
            ++stats.retry_attempts;
            elapsed_ms += f == FaultType::kCrash
                              ? config.retry.soft_deadline_ms
                              : lat;
            ++attempt;
            elapsed_ms += rpolicy.backoff_ms(attempt + 1, lat_rng);
            continue;
          }
          if (f == FaultType::kCrash) {
            ++stats.fault_expired;  // out of budget, never reports
            break;
          }
          a.fault = f;
          a.run = true;
          elapsed_ms += lat;
          a.rounds_late = rpolicy.rounds_late(elapsed_ms);
          break;
        }
        attempts.push_back(std::move(a));
      }

      // Phase 3: train the survivors and stream their updates in. An
      // on-time update is offered straight from its worker — the shared
      // accumulator is the designed contention point — while a late one
      // is stashed for its due round.
      const TensorList async_weights = agg->weights_snapshot();
      auto process_one = [&](AsyncAttempt& a, nn::Sequential& scratch) {
        Rng crng = VirtualClientProvider::training_stream(
            round_rng, t, static_cast<std::int64_t>(a.ci));
        const Client client =
            provider.client(static_cast<std::int64_t>(a.ci));
        a.outcome =
            client.run_round(scratch, async_weights, policy, t, crng);
        if (config.prune_ratio > 0.0) {
          prune_smallest(a.outcome.update.delta, config.prune_ratio);
        }
        // Per-(round, client) fault stream: corruption draws stay
        // schedule-independent even with parallel workers.
        Rng frng = VirtualClientProvider::delivery_fault_stream(
            round_rng, t, static_cast<std::int64_t>(a.ci));
        if (a.fault == FaultType::kCorruptDelta) {
          corrupt_delta(a.outcome.update.delta, frng);
        } else if (a.fault == FaultType::kStaleRound) {
          a.outcome.update.round = t - 1;  // replay of the prior round
        }
        SecureChannel channel(
            client_channel_key(config.seed, static_cast<std::int64_t>(a.ci)));
        std::vector<std::uint8_t> wire =
            channel.seal(serialize_update(a.outcome.update));
        if (a.fault == FaultType::kBitFlip) {
          flip_random_bits(wire, frng);
        }
        Result<std::vector<std::uint8_t>> opened =
            channel.open(std::move(wire));
        if (!opened.ok()) {
          a.decode_failed = true;
          return;
        }
        Result<ClientUpdate> decoded = deserialize_update(
            ByteSpan(opened.value()), std::move(a.outcome.update));
        if (!decoded.ok()) {
          a.decode_failed = true;
          return;
        }
        a.weight =
            config.weight_by_data_size
                ? static_cast<double>(
                      provider.data_size(static_cast<std::int64_t>(a.ci)))
                : 1.0;
        if (a.rounds_late == 0) {
          a.offer = agg->offer(decoded.take(), t, a.weight);
          a.offered = true;
        } else {
          a.late_update = decoded.take();
        }
      };

      {
        telemetry::SpanTimer train_span(
            registry, "fl.phase",
            telemetry::Labels{{"phase", "local_train"}}, t);
        std::vector<std::size_t> runnable;
        for (std::size_t i = 0; i < attempts.size(); ++i) {
          if (attempts[i].run) runnable.push_back(i);
        }
        if (!parallel_clients || runnable.size() <= 1) {
          for (std::size_t i : runnable) process_one(attempts[i], *model);
        } else {
          std::mutex slot_mutex;
          std::vector<nn::Sequential*> free_slots;
          free_slots.reserve(slot_models.size());
          for (const auto& m : slot_models) free_slots.push_back(m.get());
          // Pool threads have an empty trace stack; adopt the phase
          // span's context so client-side spans parent under it.
          const telemetry::TraceContext train_ctx =
              telemetry::current_trace();
          pool.parallel_for(runnable.size(), [&](std::size_t k) {
            telemetry::TraceScope adopt(train_ctx);
            nn::Sequential* scratch = nullptr;
            {
              std::lock_guard<std::mutex> lock(slot_mutex);
              FEDCL_CHECK(!free_slots.empty());
              scratch = free_slots.back();
              free_slots.pop_back();
            }
            process_one(attempts[runnable[k]], *scratch);
            std::lock_guard<std::mutex> lock(slot_mutex);
            free_slots.push_back(scratch);
          });
        }
      }

      // Phase 4 (serial, client order): metrics and dispositions.
      double norm_sum = 0.0, ms_sum = 0.0;
      std::size_t trained = 0;
      for (AsyncAttempt& a : attempts) {
        if (!a.run) continue;
        norm_sum += a.outcome.first_iteration_grad_norm;
        ms_sum += a.outcome.local_train_ms;
        ++trained;
        if (a.decode_failed) {
          ++stats.rejected_decode;
          ++round_rejected;
          if (a.fault != FaultType::kNone) ++stats.fault_screened;
          continue;
        }
        if (a.offered) {
          tally_offer(a.offer, a.fault);
        } else if (a.late_update.has_value()) {
          PendingArrival p;
          p.due_round = t + a.rounds_late;
          p.dispatch_round = t;
          p.ci = a.ci;
          p.fault = a.fault;
          p.update = std::move(*a.late_update);
          p.weight = a.weight;
          pending.push_back(std::move(p));
        }
      }

      // End of round: quorum applies happened inside offer(); a round
      // ending below the threshold folds its partial buffer in as the
      // reduced-quorum tier rather than dropping the work.
      bool applied = agg->applies() > applies_before;
      if (!applied && agg->buffered() > 0) {
        const double widening = static_cast<double>(agg->min_to_apply()) /
                                static_cast<double>(agg->buffered());
        agg->flush();
        applied = true;
        ++stats.reduced_quorum_rounds;
        ++result.reduced_quorum_rounds;
        result.max_noise_widening =
            std::max(result.max_noise_widening, widening);
        registry
            .counter("fl.round.degraded_total",
                     {{"tier", degradation_tier_name(
                                   DegradationTier::kReducedQuorum)}})
            .add(1);
        registry.record_point("fl.round.noise_widening", t, widening);
      }

      if (trained > 0) {
        record.mean_grad_norm = norm_sum / static_cast<double>(trained);
        record.mean_client_ms = ms_sum / static_cast<double>(trained);
        total_ms += ms_sum;
        total_local_iters +=
            static_cast<std::int64_t>(trained) * local_iterations;
      }

      // Per-round telemetry, mirroring the sync engine.
      const std::pair<std::int64_t, std::int64_t> clip_after = clip_totals();
      const std::int64_t clip_delta = clip_after.first - clip_before.first;
      if (clip_delta > 0) {
        registry.record_point(
            "fl.round.clip_fraction", t,
            static_cast<double>(clip_after.second - clip_before.second) /
                static_cast<double>(clip_delta),
            policy_labels);
      }
      if (trained > 0) {
        registry.record_point("fl.round.grad_norm_mean", t,
                              record.mean_grad_norm);
      }
      registry.record_point("fl.round.accepted", t,
                            static_cast<double>(round_accepted));
      registry.record_point("fl.round.rejected", t,
                            static_cast<double>(round_rejected));
      if (!eps_series.instance_epsilon.empty()) {
        const double inst_eps =
            eps_series.instance_epsilon[static_cast<std::size_t>(t)];
        const double client_eps =
            eps_series.client_epsilon[static_cast<std::size_t>(t)];
        registry.gauge("dp.epsilon", {{"level", "instance"}}).set(inst_eps);
        registry.gauge("dp.epsilon", {{"level", "client"}}).set(client_eps);
        registry.record_point("dp.epsilon", t, inst_eps,
                              {{"level", "instance"}});
        registry.record_point("dp.epsilon", t, client_eps,
                              {{"level", "client"}});
      }
      auto count_fault = [&registry](const char* type, std::int64_t n) {
        if (n > 0) {
          registry.counter("fl.faults.injected_total", {{"type", type}})
              .add(n);
        }
      };
      count_fault("crash", stats.injected_crash);
      count_fault("straggler", stats.injected_straggler);
      count_fault("corrupt", stats.injected_corrupt);
      count_fault("bit-flip", stats.injected_bit_flip);
      count_fault("stale", stats.injected_stale);
      if (stats.dropouts > 0) {
        registry.counter("fl.client.dropouts_total").add(stats.dropouts);
      }
      if (stats.rejected_decode > 0) {
        registry.counter("fl.transport.rejected_decode_total")
            .add(stats.rejected_decode);
      }
      if (stats.retry_attempts > 0) {
        registry.counter("fl.retry.attempts_total").add(stats.retry_attempts);
      }
      if (stats.fault_expired > 0) {
        registry.counter("fl.retry.expired_total").add(stats.fault_expired);
      }

      if (!applied) {
        // Nothing arrived and nothing was buffered: a genuinely dropped
        // round.
        ++result.dropped_rounds;
        ++stats.quorum_missed;
        registry.counter("fl.round.quorum_missed_total").add(1);
        record.accuracy = std::nan("");
      } else {
        const bool eval_now =
            (config.eval_every > 0 && (t + 1) % config.eval_every == 0) ||
            t + 1 == rounds;
        if (eval_now) {
          telemetry::SpanTimer eval_span(registry, "fl.phase",
                                         {{"phase", "eval"}}, t);
          model->set_weights(agg->weights_snapshot());
          record.accuracy =
              nn::evaluate_accuracy(*model, val.features(), val.labels());
          registry.record_point("fl.round.accuracy", t, record.accuracy);
          FEDCL_LOG(Debug) << config.bench.name << " " << policy.name()
                           << " async round " << (t + 1) << "/" << rounds
                           << " acc=" << record.accuracy;
        } else {
          record.accuracy = std::nan("");
        }
      }
      result.total_failures.accumulate(stats);
      result.history.push_back(record);
    }

    // End of run: arrivals scheduled past the horizon expire, and the
    // last partial buffer is drained into the model.
    RoundFailureStats drain;
    for (const PendingArrival& p : pending) {
      if (p.fault != FaultType::kNone) ++drain.fault_expired;
    }
    if (drain.fault_expired > 0) {
      registry.counter("fl.retry.expired_total").add(drain.fault_expired);
    }
    result.total_failures.accumulate(drain);
    pending.clear();
    agg->flush();

    result.async_applies = agg->applies();
    result.final_weights = agg->weights_snapshot();
    model->set_weights(result.final_weights);
    result.final_accuracy =
        nn::evaluate_accuracy(*model, val.features(), val.labels());
    result.ms_per_local_iteration =
        total_local_iters > 0
            ? total_ms / static_cast<double>(total_local_iters)
            : 0.0;
    result.completed_rounds = rounds - result.dropped_rounds;
    registry.flush_sinks();
    result.telemetry = registry.snapshot();
    return result;
  }

  for (std::int64_t t = 0; t < rounds; ++t) {
    telemetry::TraceScope trace(
        telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    const std::pair<std::int64_t, std::int64_t> clip_before = clip_totals();
    Rng sample_rng = round_rng.fork("sample", static_cast<std::uint64_t>(t));
    std::vector<std::size_t> chosen = server.sample_clients(
        total_clients, static_cast<std::size_t>(config.clients_per_round),
        sample_rng);

    std::vector<ClientUpdate> updates;
    std::vector<double> update_weights;
    updates.reserve(chosen.size());
    RoundRecord record;
    record.round = t;
    RoundFailureStats& stats = record.failures;
    double norm_sum = 0.0, ms_sum = 0.0;
    std::size_t trained = 0;
    std::int64_t transient_failed = 0;
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));
    Rng fault_rng = round_rng.fork("faults", static_cast<std::uint64_t>(t));

    // Each client attempt is phase-split so the round stays bitwise
    // deterministic under any schedule:
    //  1. plan    (serial)   — dropout draws and fault lookups, in
    //                          client order (the shared drop_rng).
    //  2. train   (parallel) — local training from the client's own
    //                          (round, client)-forked stream on a
    //                          private scratch model.
    //  3. deliver (serial)   — metrics, fault corruption (the shared
    //                          fault_rng), transport, in client order.
    struct Attempt {
      std::size_t ci = 0;
      FaultType fault = FaultType::kNone;
      int attempt = 0;   // dispatch attempts already consumed (0-based)
      bool run = false;  // survived dropout / crash / straggler
      ClientRoundOutcome outcome;
    };

    auto plan_attempts = [&](const std::vector<std::size_t>& cis) {
      std::vector<Attempt> attempts;
      attempts.reserve(cis.size());
      for (std::size_t ci : cis) {
        Attempt a;
        a.ci = ci;
        if (config.client_dropout > 0.0 &&
            drop_rng.bernoulli(config.client_dropout)) {
          ++stats.dropouts;  // this client never reports back
          ++transient_failed;
        } else {
          a.fault = plan.fault_for(t, static_cast<std::int64_t>(ci));
          // A crashed dispatch is re-issued while the attempt budget
          // lasts (retry_policy.h); every redraw is a fresh injected
          // instance with its own disposition.
          while (a.fault == FaultType::kCrash &&
                 a.attempt + 1 < config.retry.max_attempts) {
            ++stats.injected_crash;
            ++stats.fault_retried;
            ++stats.retry_attempts;
            ++a.attempt;
            a.fault = plan.fault_for_attempt(
                t, static_cast<std::int64_t>(ci), a.attempt);
          }
          if (a.fault == FaultType::kCrash) {
            ++stats.injected_crash;  // dies before reporting
            ++stats.fault_expired;
            ++transient_failed;
          } else if (a.fault == FaultType::kStraggler) {
            ++stats.injected_straggler;  // misses the round deadline
            ++stats.fault_expired;
            ++transient_failed;
          } else {
            a.run = true;
          }
        }
        attempts.push_back(std::move(a));
      }
      return attempts;
    };

    auto train_attempts = [&](std::vector<Attempt>& attempts) {
      std::vector<std::size_t> runnable;
      for (std::size_t i = 0; i < attempts.size(); ++i) {
        if (attempts[i].run) runnable.push_back(i);
      }
      auto train_one = [&](Attempt& a, nn::Sequential& scratch) {
        Rng crng = VirtualClientProvider::training_stream(
            round_rng, t, static_cast<std::int64_t>(a.ci));
        const Client client =
            provider.client(static_cast<std::int64_t>(a.ci));
        a.outcome = client.run_round(scratch, server.weights(),
                                     policy, t, crng);
      };
      if (!parallel_clients || runnable.size() <= 1) {
        for (std::size_t i : runnable) train_one(attempts[i], *model);
        return;
      }
      // Scratch models are interchangeable (run_round installs the
      // global weights first), so a checkout stack suffices; the
      // concurrency level never exceeds the slot count.
      std::mutex slot_mutex;
      std::vector<nn::Sequential*> free_slots;
      free_slots.reserve(slot_models.size());
      for (const auto& m : slot_models) free_slots.push_back(m.get());
      // Adopt the caller's trace context on each pool thread so the
      // per-client spans parent under the local_train phase span.
      const telemetry::TraceContext train_ctx = telemetry::current_trace();
      pool.parallel_for(runnable.size(), [&](std::size_t k) {
        telemetry::TraceScope adopt(train_ctx);
        nn::Sequential* scratch = nullptr;
        {
          std::lock_guard<std::mutex> lock(slot_mutex);
          FEDCL_CHECK(!free_slots.empty());
          scratch = free_slots.back();
          free_slots.pop_back();
        }
        train_one(attempts[runnable[k]], *scratch);
        std::lock_guard<std::mutex> lock(slot_mutex);
        free_slots.push_back(scratch);
      });
    };

    // Serial delivery in client order: every failure mode remains a
    // per-client event, and fault_rng is consumed exactly as the
    // serial schedule would.
    auto deliver_attempts = [&](std::vector<Attempt>& attempts) {
      for (Attempt& a : attempts) {
        if (!a.run) continue;
        ClientRoundOutcome& outcome = a.outcome;
        if (config.prune_ratio > 0.0) {
          prune_smallest(outcome.update.delta, config.prune_ratio);
        }
        norm_sum += outcome.first_iteration_grad_norm;
        ms_sum += outcome.local_train_ms;
        ++trained;

        // Delivery-detectable faults (corrupt payload, damaged wire
        // bytes) are re-dispatched while the attempt budget lasts: the
        // client resends, drawing a fresh fault instance per attempt. A
        // redraw that crashes or straggles expires — the client already
        // spent its round.
        bool expired_in_redispatch = false;
        while ((a.fault == FaultType::kCorruptDelta ||
                a.fault == FaultType::kBitFlip) &&
               a.attempt + 1 < config.retry.max_attempts) {
          stats.count_injected(a.fault);
          ++stats.fault_retried;
          ++stats.retry_attempts;
          ++a.attempt;
          a.fault = plan.fault_for_attempt(t, static_cast<std::int64_t>(a.ci),
                                           a.attempt);
          if (a.fault == FaultType::kCrash ||
              a.fault == FaultType::kStraggler) {
            stats.count_injected(a.fault);
            ++stats.fault_expired;
            ++transient_failed;
            expired_in_redispatch = true;
            break;
          }
        }
        if (expired_in_redispatch) continue;

        if (a.fault == FaultType::kCorruptDelta) {
          corrupt_delta(outcome.update.delta, fault_rng);
          ++stats.injected_corrupt;
          ++stats.fault_screened;  // non-finite: screening always catches it
        } else if (a.fault == FaultType::kStaleRound) {
          outcome.update.round = t - 1;  // replayed from the prior round
          ++stats.injected_stale;
          ++stats.fault_screened;  // wrong round tag: batch screening rejects
        }

        // Transport: serialize -> seal -> (hostile channel) -> open ->
        // deserialize. A decode failure drops this client's update only.
        SecureChannel channel(
            client_channel_key(config.seed, static_cast<std::int64_t>(a.ci)));
        std::vector<std::uint8_t> wire =
            channel.seal(serialize_update(outcome.update));
        if (a.fault == FaultType::kBitFlip) {
          flip_random_bits(wire, fault_rng);
          ++stats.injected_bit_flip;
          ++stats.fault_screened;  // integrity tag: open() fails
        }
        Result<std::vector<std::uint8_t>> opened =
            channel.open(std::move(wire));
        if (!opened.ok()) {
          ++stats.rejected_decode;
          continue;
        }
        Result<ClientUpdate> decoded = deserialize_update(
            ByteSpan(opened.value()), std::move(outcome.update));
        if (!decoded.ok()) {
          ++stats.rejected_decode;
          continue;
        }
        updates.push_back(decoded.take());
        update_weights.push_back(static_cast<double>(
            provider.data_size(static_cast<std::int64_t>(a.ci))));
      }
    };

    auto attempt_clients = [&](const std::vector<std::size_t>& cis) {
      std::vector<Attempt> attempts = plan_attempts(cis);
      train_attempts(attempts);
      deliver_attempts(attempts);
    };

    std::optional<telemetry::SpanTimer> local_train_span;
    local_train_span.emplace(registry, "fl.phase",
                             telemetry::Labels{{"phase", "local_train"}}, t);
    attempt_clients(chosen);

    // One resample-retry pass: when delivery fell below the quorum and
    // some failures were transient (crash/straggler/dropout), draw
    // replacement clients from the unsampled pool.
    if (config.retry_failed_clients && transient_failed > 0 &&
        static_cast<std::int64_t>(updates.size()) < config.min_reporting) {
      std::vector<bool> in_round(total_clients, false);
      for (std::size_t ci : chosen) in_round[ci] = true;
      std::vector<std::size_t> spare;
      for (std::size_t i = 0; i < total_clients; ++i) {
        if (!in_round[i]) spare.push_back(i);
      }
      Rng retry_rng = round_rng.fork("retry", static_cast<std::uint64_t>(t));
      retry_rng.shuffle(spare);
      const std::size_t replacements =
          std::min(spare.size(), static_cast<std::size_t>(transient_failed));
      std::vector<std::size_t> replacement_cis(
          spare.begin(), spare.begin() + static_cast<std::ptrdiff_t>(
                                             replacements));
      stats.retried_clients += static_cast<std::int64_t>(replacements);
      attempt_clients(replacement_cis);
    }
    local_train_span.reset();  // close the local_train phase span

    bool applied = false;
    std::int64_t round_accepted = 0;
    if (!updates.empty()) {
      telemetry::SpanTimer aggregate_span(
          registry, "fl.phase", {{"phase", "aggregate"}}, t);
      Rng agg_rng =
          round_rng.fork("aggregate", static_cast<std::uint64_t>(t));
      AggregateOutcome outcome = server.aggregate(
          std::move(updates), policy, groups, agg_rng,
          config.weight_by_data_size ? &update_weights : nullptr);
      const ScreeningReport& report = outcome.screening;
      stats.rejected_shape += report.rejected_shape;
      stats.rejected_non_finite += report.rejected_non_finite;
      stats.rejected_norm_outlier += report.rejected_norm_outlier;
      stats.rejected_stale += report.rejected_stale;
      round_accepted = report.accepted;
      applied = outcome.applied;
      if (outcome.tier == DegradationTier::kReducedQuorum) {
        ++stats.reduced_quorum_rounds;
        ++result.reduced_quorum_rounds;
        result.max_noise_widening =
            std::max(result.max_noise_widening, outcome.noise_widening);
        registry
            .counter("fl.round.degraded_total",
                     {{"tier", degradation_tier_name(outcome.tier)}})
            .add(1);
        registry.record_point("fl.round.noise_widening", t,
                              outcome.noise_widening);
      }
    }

    if (trained > 0) {
      record.mean_grad_norm = norm_sum / static_cast<double>(trained);
      record.mean_client_ms = ms_sum / static_cast<double>(trained);
      total_ms += ms_sum;
      total_local_iters +=
          static_cast<std::int64_t>(trained) * local_iterations;
    }

    // Per-round telemetry, recorded whether or not the round applied.
    const std::pair<std::int64_t, std::int64_t> clip_after = clip_totals();
    const std::int64_t clip_delta = clip_after.first - clip_before.first;
    if (clip_delta > 0) {
      registry.record_point(
          "fl.round.clip_fraction", t,
          static_cast<double>(clip_after.second - clip_before.second) /
              static_cast<double>(clip_delta),
          policy_labels);
    }
    if (trained > 0) {
      registry.record_point("fl.round.grad_norm_mean", t,
                            record.mean_grad_norm);
    }
    registry.record_point("fl.round.accepted", t,
                          static_cast<double>(round_accepted));
    registry.record_point(
        "fl.round.rejected", t,
        static_cast<double>(stats.rejected_shape + stats.rejected_non_finite +
                            stats.rejected_norm_outlier +
                            stats.rejected_stale + stats.rejected_decode));
    if (!eps_series.instance_epsilon.empty()) {
      const double inst_eps =
          eps_series.instance_epsilon[static_cast<std::size_t>(t)];
      const double client_eps =
          eps_series.client_epsilon[static_cast<std::size_t>(t)];
      registry.gauge("dp.epsilon", {{"level", "instance"}}).set(inst_eps);
      registry.gauge("dp.epsilon", {{"level", "client"}}).set(client_eps);
      registry.record_point("dp.epsilon", t, inst_eps,
                            {{"level", "instance"}});
      registry.record_point("dp.epsilon", t, client_eps,
                            {{"level", "client"}});
    }
    auto count_fault = [&registry](const char* type, std::int64_t n) {
      if (n > 0) {
        registry.counter("fl.faults.injected_total", {{"type", type}}).add(n);
      }
    };
    count_fault("crash", stats.injected_crash);
    count_fault("straggler", stats.injected_straggler);
    count_fault("corrupt", stats.injected_corrupt);
    count_fault("bit-flip", stats.injected_bit_flip);
    count_fault("stale", stats.injected_stale);
    if (stats.dropouts > 0) {
      registry.counter("fl.client.dropouts_total").add(stats.dropouts);
    }
    if (stats.retried_clients > 0) {
      registry.counter("fl.client.retried_total").add(stats.retried_clients);
    }
    if (stats.rejected_decode > 0) {
      registry.counter("fl.transport.rejected_decode_total")
          .add(stats.rejected_decode);
    }
    if (stats.retry_attempts > 0) {
      registry.counter("fl.retry.attempts_total").add(stats.retry_attempts);
    }
    if (stats.fault_expired > 0) {
      registry.counter("fl.retry.expired_total").add(stats.fault_expired);
    }

    if (!applied) {
      // Graceful degradation: the round produces no aggregate — either
      // nobody reported or screening left the quorum unmet.
      server.skip_round();
      ++result.dropped_rounds;
      ++stats.quorum_missed;
      registry.counter("fl.round.quorum_missed_total").add(1);
      record.accuracy = std::nan("");
      result.total_failures.accumulate(stats);
      result.history.push_back(record);
      continue;
    }

    const bool eval_now =
        (config.eval_every > 0 && (t + 1) % config.eval_every == 0) ||
        t + 1 == rounds;
    if (eval_now) {
      telemetry::SpanTimer eval_span(registry, "fl.phase",
                                     {{"phase", "eval"}}, t);
      model->set_weights(server.weights());
      record.accuracy =
          nn::evaluate_accuracy(*model, val.features(), val.labels());
      registry.record_point("fl.round.accuracy", t, record.accuracy);
      FEDCL_LOG(Debug) << config.bench.name << " " << policy.name()
                       << " round " << (t + 1) << "/" << rounds
                       << " acc=" << record.accuracy;
    } else {
      record.accuracy = std::nan("");
    }
    result.total_failures.accumulate(stats);
    result.history.push_back(record);
  }

  result.final_accuracy = result.history.back().accuracy;
  if (std::isnan(result.final_accuracy)) {
    // The last round was skipped (all clients dropped): evaluate the
    // surviving global model directly.
    model->set_weights(server.weights());
    result.final_accuracy =
        nn::evaluate_accuracy(*model, val.features(), val.labels());
  }
  result.ms_per_local_iteration =
      total_local_iters > 0
          ? total_ms / static_cast<double>(total_local_iters)
          : 0.0;
  result.completed_rounds = rounds - result.dropped_rounds;
  result.final_weights = tensor::list::clone(server.weights());
  registry.flush_sinks();
  result.telemetry = registry.snapshot();
  return result;
}

}  // namespace fedcl::fl
