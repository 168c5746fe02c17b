#include "fl/scale_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/compression.h"
#include "fl/server.h"
#include "fl/tree_aggregation.h"
#include "fl/virtual_client.h"
#include "nn/grad_utils.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"

namespace fedcl::fl {

namespace {

// One planned dispatch: the client to run and the final fault of its
// crash-redraw chain (resolved serially, like the classic engine).
struct Attempt {
  std::size_t ci = 0;
  FaultType fault = FaultType::kNone;
  int attempt = 0;
  bool run = false;
};

// Everything one edge block produces. Blocks execute in parallel but
// their outcomes are folded serially in block order, so every counter
// lands deterministically.
struct BlockOutcome {
  ReduceNode partial;
  RoundFailureStats stats;
  double norm_sum = 0.0;
  double ms_sum = 0.0;
  std::int64_t trained = 0;
  std::int64_t accepted = 0;
  std::int64_t transient_failed = 0;
  int max_levels = 0;
};

}  // namespace

FlRunResult run_streaming_experiment(const FlExperimentConfig& config,
                                     const core::PrivacyPolicy& policy) {
  FEDCL_CHECK_GT(config.total_clients, 0);
  FEDCL_CHECK_GT(config.clients_per_round, 0);
  FEDCL_CHECK_LE(config.clients_per_round, config.total_clients);
  FEDCL_CHECK_GE(config.min_reporting, 1);
  FEDCL_CHECK(!config.async_mode)
      << "streaming_aggregation is a synchronous engine; it cannot be "
         "combined with async_mode";
  FEDCL_CHECK(is_power_of_two(config.tree_fan_out) && config.tree_fan_out >= 2)
      << "tree_fan_out must be a power of two >= 2, got "
      << config.tree_fan_out;
  FEDCL_CHECK(config.client_dropout >= 0.0 && config.client_dropout < 1.0)
      << "client dropout " << config.client_dropout;
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
  data::Dataset val = data::generate_synthetic(config.bench.val_spec, val_rng);

  data::PartitionSpec part = config.bench.partition;
  part.num_clients = config.total_clients;
  LocalTrainConfig local{.local_iterations = local_iterations,
                         .batch_size = config.bench.batch_size,
                         .learning_rate = config.bench.learning_rate,
                         .lr_decay_per_round =
                             config.bench.lr_decay_per_round};
  const VirtualClientProvider provider(train, part, part_rng, local,
                                       config.faults, config.seed);
  const std::size_t total_clients =
      static_cast<std::size_t>(config.total_clients);

  std::shared_ptr<nn::Sequential> model =
      nn::build_model(config.bench.model, model_rng);
  const dp::ParamGroups groups = to_param_groups(model->layer_groups());

  ThreadPool& pool = compute_pool();
  const bool parallel_clients = config.parallel_clients && pool.size() > 1 &&
                                !policy.order_dependent() &&
                                !nn::has_stochastic_layer(*model);
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

  Server server(model->weights(),
                {.server_momentum = config.server_momentum,
                 .screening = config.screening,
                 .min_reporting = config.min_reporting,
                 .reduced_min_reporting = config.reduced_min_reporting});
  const FaultPlan& plan = provider.fault_plan();
  const UpdateScreener screener(config.screening);
  const std::vector<tensor::Shape> expected_shapes =
      tensor::list::shapes_of(server.weights());

  telemetry::Registry& registry = telemetry::global_registry();
  registry.reset();
  registry.gauge("fl.scale.virtual_clients")
      .set(static_cast<double>(config.total_clients));

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

  for (std::int64_t t = 0; t < rounds; ++t) {
    telemetry::TraceScope trace(telemetry::round_trace_root(config.seed, t));
    telemetry::SpanTimer round_span(registry, "fl.round", {}, t);
    const std::pair<std::int64_t, std::int64_t> clip_before = clip_totals();
    Rng sample_rng = round_rng.fork("sample", static_cast<std::uint64_t>(t));
    std::vector<std::size_t> chosen = server.sample_clients(
        total_clients, static_cast<std::size_t>(config.clients_per_round),
        sample_rng);
    Rng drop_rng = round_rng.fork("dropout", static_cast<std::uint64_t>(t));

    RoundRecord record;
    record.round = t;
    RoundFailureStats& stats = record.failures;
    double norm_sum = 0.0, ms_sum = 0.0;
    std::int64_t trained = 0;
    std::int64_t accepted_total = 0;
    std::int64_t transient_failed = 0;
    std::int64_t edge_blocks = 0;
    int max_levels_round = 0;
    StreamingReducer root_reducer;

    // Phase 1 (serial, client order): dropout draws on the shared
    // drop_rng and the crash-redraw chain — identical bookkeeping to
    // the classic engine's plan phase.
    auto plan_attempts = [&](const std::vector<std::size_t>& cis) {
      std::vector<Attempt> attempts;
      attempts.reserve(cis.size());
      for (std::size_t ci : cis) {
        Attempt a;
        a.ci = ci;
        if (config.client_dropout > 0.0 &&
            drop_rng.bernoulli(config.client_dropout)) {
          ++stats.dropouts;
          ++transient_failed;
        } else {
          a.fault = plan.fault_for(t, static_cast<std::int64_t>(ci));
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
            ++stats.injected_crash;
            ++stats.fault_expired;
            ++transient_failed;
          } else if (a.fault == FaultType::kStraggler) {
            ++stats.injected_straggler;
            ++stats.fault_expired;
            ++transient_failed;
          } else {
            a.run = true;
          }
        }
        attempts.push_back(a);
      }
      return attempts;
    };

    // One cohort member, start to finish: materialize, train,
    // delivery faults, transport, screen, sanitize, fold. Every RNG
    // draw comes from a per-(round, client) stream, so the result does
    // not depend on which block or thread ran it.
    auto process_client = [&](Attempt a, nn::Sequential& scratch,
                              StreamingReducer& reducer, BlockOutcome& out) {
      const auto id = static_cast<std::int64_t>(a.ci);
      Rng crng = VirtualClientProvider::training_stream(round_rng, t, id);
      const Client client = provider.client(id);
      ClientRoundOutcome outcome =
          client.run_round(scratch, server.weights(), policy, t, crng);
      out.norm_sum += outcome.first_iteration_grad_norm;
      out.ms_sum += outcome.local_train_ms;
      ++out.trained;
      if (config.prune_ratio > 0.0) {
        prune_smallest(outcome.update.delta, config.prune_ratio);
      }

      // Delivery-detectable faults re-dispatch while the budget lasts
      // (same chain as the classic engine, pure per-attempt draws).
      while ((a.fault == FaultType::kCorruptDelta ||
              a.fault == FaultType::kBitFlip) &&
             a.attempt + 1 < config.retry.max_attempts) {
        out.stats.count_injected(a.fault);
        ++out.stats.fault_retried;
        ++out.stats.retry_attempts;
        ++a.attempt;
        a.fault = plan.fault_for_attempt(t, id, a.attempt);
        if (a.fault == FaultType::kCrash ||
            a.fault == FaultType::kStraggler) {
          out.stats.count_injected(a.fault);
          ++out.stats.fault_expired;
          ++out.transient_failed;
          return;
        }
      }

      Rng frng =
          VirtualClientProvider::delivery_fault_stream(round_rng, t, id);
      if (a.fault == FaultType::kCorruptDelta) {
        corrupt_delta(outcome.update.delta, frng);
        ++out.stats.injected_corrupt;
      } else if (a.fault == FaultType::kStaleRound) {
        outcome.update.round = t - 1;
        ++out.stats.injected_stale;
      }

      SecureChannel channel(client_channel_key(config.seed, id));
      std::vector<std::uint8_t> wire =
          channel.seal(serialize_update(outcome.update));
      if (a.fault == FaultType::kBitFlip) {
        flip_random_bits(wire, frng);
        ++out.stats.injected_bit_flip;
      }
      Result<std::vector<std::uint8_t>> opened = channel.open(std::move(wire));
      if (!opened.ok()) {
        ++out.stats.rejected_decode;
        if (a.fault != FaultType::kNone) ++out.stats.fault_screened;
        return;
      }
      Result<ClientUpdate> decoded = deserialize_update(
          ByteSpan(opened.value()), std::move(outcome.update));
      if (!decoded.ok()) {
        ++out.stats.rejected_decode;
        if (a.fault != FaultType::kNone) ++out.stats.fault_screened;
        return;
      }
      ClientUpdate update = decoded.take();

      // Screen one update as it arrives (max_staleness 0 = synchronous
      // semantics). The median-relative norm band needs the round's
      // full population and therefore does not apply on the streaming
      // path — only the absolute caps do (same trade as the async
      // engine; DESIGN.md §7).
      ScreeningReport report;
      const ScreenVerdict verdict =
          screener.screen_one(update, expected_shapes, t, 0, report);
      out.stats.rejected_shape += report.rejected_shape;
      out.stats.rejected_non_finite += report.rejected_non_finite;
      out.stats.rejected_norm_outlier += report.rejected_norm_outlier;
      out.stats.rejected_stale += report.rejected_stale;
      if (!verdict.accepted()) {
        if (a.fault != FaultType::kNone) ++out.stats.fault_screened;
        return;
      }

      // Server-side sanitization from a per-(round, client) stream —
      // schedule-independent, unlike the classic engine's serial
      // aggregate stream (the documented stream difference between the
      // two sync engines).
      Rng srng = VirtualClientProvider::sanitize_stream(round_rng, t, id);
      policy.sanitize_at_server(update.delta, groups, t, srng);
      const double weight =
          config.weight_by_data_size
              ? static_cast<double>(provider.data_size(id))
              : 1.0;
      reducer.push(std::move(update.delta), weight);
      ++out.accepted;
    };

    // Phase 2: edge blocks of tree_fan_out consecutive cohort members
    // reduce independently (in parallel, wave by wave so only O(wave)
    // partials are ever alive); phase 3 folds each wave's partials and
    // counters into the root reducer in block order.
    auto process_attempts = [&](const std::vector<Attempt>& attempts) {
      const std::size_t fan_out =
          static_cast<std::size_t>(config.tree_fan_out);
      const std::size_t nblocks =
          (attempts.size() + fan_out - 1) / fan_out;
      edge_blocks += static_cast<std::int64_t>(nblocks);
      const std::size_t wave_width =
          parallel_clients ? std::max<std::size_t>(slot_models.size() * 4, 1)
                           : 1;
      for (std::size_t wave_begin = 0; wave_begin < nblocks;
           wave_begin += wave_width) {
        const std::size_t wave = std::min(wave_width, nblocks - wave_begin);
        std::vector<BlockOutcome> outcomes(wave);
        auto run_block = [&](std::size_t wi, nn::Sequential& scratch) {
          BlockOutcome& out = outcomes[wi];
          StreamingReducer reducer;
          const std::size_t begin = (wave_begin + wi) * fan_out;
          const std::size_t end =
              std::min(begin + fan_out, attempts.size());
          for (std::size_t i = begin; i < end; ++i) {
            if (attempts[i].run) {
              process_client(attempts[i], scratch, reducer, out);
            }
          }
          out.partial = reducer.finalize();
          out.max_levels = reducer.max_occupancy();
        };
        if (!parallel_clients || wave <= 1) {
          for (std::size_t wi = 0; wi < wave; ++wi) run_block(wi, *model);
        } else {
          std::mutex slot_mutex;
          std::vector<nn::Sequential*> free_slots;
          free_slots.reserve(slot_models.size());
          for (const auto& m : slot_models) free_slots.push_back(m.get());
          const telemetry::TraceContext ctx = telemetry::current_trace();
          pool.parallel_for(wave, [&](std::size_t wi) {
            telemetry::TraceScope adopt(ctx);
            nn::Sequential* scratch = nullptr;
            {
              std::lock_guard<std::mutex> lock(slot_mutex);
              FEDCL_CHECK(!free_slots.empty());
              scratch = free_slots.back();
              free_slots.pop_back();
            }
            run_block(wi, *scratch);
            std::lock_guard<std::mutex> lock(slot_mutex);
            free_slots.push_back(scratch);
          });
        }
        for (BlockOutcome& out : outcomes) {
          if (!out.partial.empty()) {
            root_reducer.push_node(std::move(out.partial));
          }
          stats.accumulate(out.stats);
          norm_sum += out.norm_sum;
          ms_sum += out.ms_sum;
          trained += out.trained;
          accepted_total += out.accepted;
          transient_failed += out.transient_failed;
          max_levels_round = std::max(max_levels_round, out.max_levels);
        }
      }
    };

    std::optional<telemetry::SpanTimer> local_train_span;
    local_train_span.emplace(registry, "fl.phase",
                             telemetry::Labels{{"phase", "local_train"}}, t);
    process_attempts(plan_attempts(chosen));

    // One resample-retry pass, same policy as the classic engine:
    // replacements enter as fresh edge blocks appended after the
    // primary cohort's blocks.
    if (config.retry_failed_clients && transient_failed > 0 &&
        accepted_total < config.min_reporting) {
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
          spare.begin(),
          spare.begin() + static_cast<std::ptrdiff_t>(replacements));
      stats.retried_clients += static_cast<std::int64_t>(replacements);
      process_attempts(plan_attempts(replacement_cis));
    }
    local_train_span.reset();

    // Quorum tiers, mirroring Server::aggregate's decision on the
    // streamed counts.
    bool applied = false;
    {
      telemetry::SpanTimer aggregate_span(registry, "fl.phase",
                                          {{"phase", "aggregate"}}, t);
      DegradationTier tier = DegradationTier::kSkipRound;
      if (accepted_total >= config.min_reporting) {
        tier = DegradationTier::kFullQuorum;
      } else if (config.reduced_min_reporting > 0 &&
                 accepted_total >= config.reduced_min_reporting) {
        tier = DegradationTier::kReducedQuorum;
      }
      if (tier != DegradationTier::kSkipRound) {
        ReduceNode total = root_reducer.finalize();
        max_levels_round =
            std::max(max_levels_round, root_reducer.max_occupancy());
        const TensorList mean = finalize_mean(std::move(total));
        server.apply_mean(mean, accepted_total);
        applied = true;
        registry.counter("fl.scale.streamed_updates_total")
            .add(accepted_total);
        if (tier == DegradationTier::kReducedQuorum) {
          const double widening =
              static_cast<double>(config.min_reporting) /
              static_cast<double>(accepted_total);
          ++stats.reduced_quorum_rounds;
          ++result.reduced_quorum_rounds;
          result.max_noise_widening =
              std::max(result.max_noise_widening, widening);
          registry
              .counter("fl.round.degraded_total",
                       {{"tier", degradation_tier_name(tier)}})
              .add(1);
          registry.record_point("fl.round.noise_widening", t, widening);
        }
      }
    }
    result.max_stream_levels =
        std::max(result.max_stream_levels,
                 static_cast<std::int64_t>(max_levels_round));
    registry.record_point("fl.scale.edge_blocks", t,
                          static_cast<double>(edge_blocks));
    registry.gauge("fl.scale.reducer_levels")
        .set(static_cast<double>(result.max_stream_levels));

    if (trained > 0) {
      record.mean_grad_norm = norm_sum / static_cast<double>(trained);
      record.mean_client_ms = ms_sum / static_cast<double>(trained);
      total_ms += ms_sum;
      total_local_iters += trained * local_iterations;
    }

    // Per-round telemetry, mirroring the classic sync engine.
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
                          static_cast<double>(accepted_total));
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
                       << " streaming round " << (t + 1) << "/" << rounds
                       << " acc=" << record.accuracy;
    } else {
      record.accuracy = std::nan("");
    }
    result.total_failures.accumulate(stats);
    result.history.push_back(record);
  }

  result.final_accuracy = result.history.back().accuracy;
  if (std::isnan(result.final_accuracy)) {
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