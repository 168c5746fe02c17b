// One run of the federated round engine, and what its loops share.
// run_experiment (fl/trainer.cpp) and the serving server
// (net/serving_server.cpp) both hand a seed-derived federation to
// run_federation, which builds the run once: the validation set, the
// client runner, the server, the privacy budget and the round ledger.
// It then drives one of two loops, the synchronous run_sync or the
// asynchronous run_async. Both loops reach clients through one seam, a
// ClientExecutor: in this process (deliver_client on the pool) or over
// sockets. Every round ends with the same ledger, telemetry, quorum and
// eval bookkeeping, written once here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl/virtual_client.h"
#include "nn/layers.h"

namespace fedcl::fl {

// The federation an experiment seed defines: training data, the
// virtualized client cohort, the initial model, and the parent of every
// per-round stream. Each piece is a labelled fork of the seed, so the
// trainer, the serving server, and every worker process rebuild it bit
// for bit without coordinating.
struct Federation {
  Federation(const data::BenchmarkConfig& bench, std::int64_t total_clients,
             std::int64_t local_iterations, const FaultInjectionConfig& faults,
             std::uint64_t seed);

  // The held-out evaluation set. Built on demand: only servers evaluate.
  data::Dataset validation_set() const;

  data::BenchmarkConfig bench;
  Rng root;
  Rng round_rng;
  std::shared_ptr<data::Dataset> train;
  VirtualClientProvider provider;
  std::shared_ptr<nn::Sequential> model;
};

// Runs independent client tasks, serially on the federation's model or
// concurrently on the compute pool with one private scratch model per
// slot. Clients are independent given their forked streams, and every
// policy is stateless, so both schedules compute the same bits.
class ClientRunner {
 public:
  ClientRunner(const Federation& federation, bool parallel_clients,
               std::int64_t clients_per_round);

  bool parallel() const { return !slot_models_.empty(); }
  std::size_t slots() const { return slot_models_.size(); }

  // task(i, scratch) for every i in [0, n); no two concurrent tasks
  // share a scratch model. Pool tasks adopt the caller's trace context.
  void run(std::size_t n,
           const std::function<void(std::size_t, nn::Sequential&)>& task);

 private:
  nn::Sequential& serial_model_;
  // Their initial weights are irrelevant: run_round installs the global
  // weights first.
  std::vector<std::shared_ptr<nn::Sequential>> slot_models_;
};

// One planned dispatch of a sampled client.
struct Dispatch {
  std::size_t ci = 0;
  FaultType fault = FaultType::kNone;  // fault of the current attempt
  int attempt = 0;                     // attempts consumed (0-based)
  bool run = false;                    // the client trains this round
  // Async: rounds past its dispatch round the update lands, on the
  // virtual clock (RetryPolicy::rounds_late).
  std::int64_t rounds_late = 0;
};

// Everything deliver_client reads; fixed for one round.
struct DeliveryContext {
  const VirtualClientProvider& provider;
  const Rng& round_rng;
  const core::PrivacyPolicy& policy;
  const TensorList& weights;  // the global model the client trains from
  std::uint64_t seed;         // channel keys
  std::int64_t round;
  double prune_ratio;
  int max_attempts;
};

// What one client's train-and-deliver produced. Every injected fault it
// drew is already counted in `stats`, and so is its disposition unless
// the update arrived: then the fold decides (screened or accepted).
struct ClientDelivery {
  bool trained = false;  // trained here: grad_norm and train_ms are set
  double grad_norm = 0.0;  // first-iteration batch-grad L2
  double train_ms = 0.0;
  FaultType fault = FaultType::kNone;  // realized by the final attempt
  // The decoded update; nullopt when a re-dispatch expired or the
  // envelope did not open or decode.
  std::optional<ClientUpdate> update;
  RoundFailureStats stats;
};

// Trains d.ci on `scratch`, prunes, re-dispatches delivery-detectable
// faults (corrupt payload, damaged wire bytes) while the attempt budget
// lasts, realizes the final fault from the client's
// delivery_fault_stream, and runs the update through serialize -> seal
// -> open -> deserialize. Every draw comes from a per-(round, client)
// stream, so the result does not depend on the thread or the schedule.
ClientDelivery deliver_client(const DeliveryContext& ctx, Dispatch d,
                              nn::Sequential& scratch);

// deliver_client's halves, which a worker and the serving server run on
// either side of a socket: train client `id` from its (round, client)
// stream and prune; seal the update on the client's channel; open and
// decode it, reusing `buffers`' tensors where the shapes match.
ClientRoundOutcome train_client(const DeliveryContext& ctx, std::int64_t id,
                                nn::Sequential& scratch);
std::vector<std::uint8_t> seal_update(std::uint64_t seed, std::int64_t id,
                                      const ClientUpdate& update);
Result<ClientUpdate> open_update(std::uint64_t seed, std::int64_t id,
                                 std::vector<std::uint8_t> sealed,
                                 ClientUpdate buffers = {});

// What a round's clients reported, summed in cohort order.
struct RoundTally {
  RoundFailureStats stats;
  double norm_sum = 0.0;  // first-iteration grad norms of trained clients
  double ms_sum = 0.0;    // their local-training wall time
  std::int64_t trained = 0;
  std::int64_t accepted = 0;  // updates the fold took in

  void add(const ClientDelivery& delivery);
  void merge(const RoundTally& other);
};

struct RoundLedgerOptions {
  std::int64_t rounds = 0;
  std::int64_t eval_every = 0;  // <= 0: final round only
  std::int64_t local_iterations = 0;
  // Cumulative per-round privacy budget; empty = not recorded.
  core::PrivacyRoundSeries epsilon{};
  // The run's policy. The deltas of its dp.clip counters give the
  // per-round clip fraction; they move only where the clients train in
  // this process.
  const core::PrivacyPolicy& policy;
  nn::Sequential* eval_model = nullptr;
  const data::Dataset* val = nullptr;
  // The global model: evaluated after applied rounds, and its weights
  // are the run's final weights.
  const Server& server;
  // The eval line, logged at Debug: "<prefix> round t/T acc=...".
  std::string log_prefix{};
};

// The per-round epilogue and the run totals it keeps: the fault ledger
// and its counters, the accepted / rejected / clip-fraction / grad-norm
// / epsilon series, the degradation tier, the quorum-miss skip, eval,
// and the round history.
class RoundLedger {
 public:
  explicit RoundLedger(RoundLedgerOptions options);

  // Call at the start of every round (snapshots the clip counters and
  // starts the round's wall clock, which close_round stops).
  void open_round();
  // Books round t from its tally and the fold's outcome. The caller has
  // already applied the round, or skipped it on the server.
  void close_round(std::int64_t t, const RoundTally& tally,
                   const AggregateOutcome& outcome);
  // Books ledger entries resolved after the last round (end-of-run
  // drains) into the totals and counters, outside any round record.
  void close_run(const RoundTally& tally);
  // Accuracy of the current global weights on the validation set.
  double evaluate();
  // Completes the run summary (ms per local iteration, completed
  // rounds, the final weights, the telemetry snapshot) and hands it
  // over. Set the final accuracy on result() first.
  FlRunResult finish();

  FlRunResult& result() { return result_; }

 private:
  std::pair<std::int64_t, std::int64_t> clip_totals() const;
  void count_ledger(const RoundFailureStats& stats);

  RoundLedgerOptions options_;
  telemetry::Registry& registry_;
  telemetry::Labels policy_labels_;
  std::pair<std::int64_t, std::int64_t> clip_before_{0, 0};
  double round_start_ms_ = 0.0;
  FlRunResult result_;
  double total_ms_ = 0.0;
  std::int64_t total_local_iters_ = 0;
};

// One run's state, shared by the sync and the async loop.
struct RunState {
  const FlExperimentConfig& config;
  const core::PrivacyPolicy& policy;
  const Federation& fed;
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
};

// One client's delivery as it reaches the async loop: its update, if
// any, tagged with the fault that shaped it, and whatever it already
// cost the ledger (`delivery.stats`). An arrival without an update only
// books its stats.
struct Arrival {
  std::size_t ci = 0;
  ClientDelivery delivery;
};

// The loops' one seam: where deliveries come from. The loops never
// branch on which executor runs.
//  - run_sync: start() sets an attempt going and returns deliver, valid
//    while `ctx` and `dispatches` live; the loop calls deliver(i,
//    scratch) for each runnable dispatch, unit by unit in cohort order,
//    on the runner.
//  - run_async: due(t) hands over the arrivals from earlier rounds that
//    land at round t; dispatch() sets the round's runnable clients going
//    and hands over what lands during the round; drain(t) ends the run
//    at its last round t with what still lands and the expiry of the
//    rest. The loop folds every update on its own thread, in the order
//    handed over.
class ClientExecutor {
 public:
  using Deliver = std::function<ClientDelivery(std::size_t, nn::Sequential&)>;
  virtual ~ClientExecutor() = default;
  virtual Deliver start(const DeliveryContext& ctx,
                        const std::vector<Dispatch>& dispatches) = 0;
  virtual std::vector<Arrival> due(std::int64_t t) = 0;
  virtual std::vector<Arrival> dispatch(
      const DeliveryContext& ctx, const std::vector<Dispatch>& runnable) = 0;
  virtual std::vector<Arrival> drain(std::int64_t t) = 0;
};

// The synchronous engine. One round: sample a cohort, plan every
// dispatch serially, fold each client's delivery unit by unit on the
// runner, run one resample-retry pass when the fold accepted fewer than
// min_reporting, then apply the mean (Server::quorum, apply_mean) or
// skip. The fold: each delivered update is screened as it lands and
// pushed into its unit's StreamingReducer on the pool
// (Server::screen_and_push). Units run in waves so only O(wave)
// partials are alive, and the root folds them in cohort order, which
// keeps the sum bitwise equal to the flat pinned order (DESIGN.md §7).
// A unit holds tree_fan_out clients under streaming_aggregation and
// one otherwise; on fault-free rounds both compute the same bits.
// Every draw a client makes comes from a per-(round, client) stream, so
// the engine is bitwise identical across executors, schedules and
// thread counts.
FlRunResult run_sync(const RunState& run, ClientExecutor& executor);

// The asynchronous (FedBuff) engine. One round: fold the arrivals due
// now, sample a cohort, plan every client's dispatch-attempt chain
// (dropout, faults, latency and backoff) serially on the virtual clock,
// dispatch the runnable clients from the server's weights, fold what
// lands during the round, and close it: applied if an update tripped
// min_to_apply, else a non-empty partial buffer flushes under the
// reduced-quorum tier. At the end the executor drains, and the last
// partial buffer is applied. The fold is the sync engine's step,
// Server::screen_and_push at the loop's round under the staleness
// horizon, into one StreamingReducer buffer, applied through
// finalize_mean and Server::apply_mean. The loop alone folds, on its own
// thread in the executor's order, and books each update's disposition:
// an accepted faulty arrival was absorbed stale, a rejected one counts
// its reason and, if faulty, was screened.
FlRunResult run_async(const RunState& run, ClientExecutor& executor);

// Runs `config` under `policy` on `fed`, the federation built from the
// same config. Validates the config and that a noising policy adds
// config.noise_scale, builds the run once (validation set,
// ClientRunner, Server, privacy setup with its dp.epsilon series and
// dp.delta, RoundLedger), and drives run_sync or run_async.
// With `remote` null the clients train in this process. The caller
// resets the telemetry registry, if at all, before the call.
FlRunResult run_federation(const FlExperimentConfig& config,
                           const core::PrivacyPolicy& policy,
                           const Federation& fed,
                           ClientExecutor* remote = nullptr);

}  // namespace fedcl::fl
