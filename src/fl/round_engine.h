// What every round loop shares. The in-process engines (sync and async,
// fl/trainer.cpp) and the serving engines (net/serving_server.cpp) run
// the same FedSGD round: they rebuild one seed-derived federation, train
// clients on private scratch models, push each update through the
// transport path, and end every round with the same ledger, telemetry,
// quorum and eval bookkeeping. Those pieces live here, written once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/async_aggregator.h"
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
// slot. Concurrency is correct only when clients are independent given
// their forked streams, which order-dependent policies and in-model RNG
// state (Dropout) break, so those always run serially.
class ClientRunner {
 public:
  ClientRunner(const Federation& federation, const core::PrivacyPolicy& policy,
               bool parallel_clients, std::int64_t clients_per_round);

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

// The buffered fold's apply: Server::aggregate screens and averages the
// round's updates as one batch, sanitized from the round's serial
// "aggregate" stream, and the screening rejections go into `tally`.
// Without updates the round is a skip.
AggregateOutcome aggregate_round(Server& server,
                                 std::vector<ClientUpdate> updates,
                                 const std::vector<double>* update_weights,
                                 const core::PrivacyPolicy& policy,
                                 const dp::ParamGroups& groups,
                                 const Rng& round_rng, std::int64_t round,
                                 RoundTally& tally);

// The async round's end: applied when an offer tripped the threshold
// since `applies_before`; otherwise a non-empty partial buffer is
// flushed in under the reduced-quorum tier instead of dropping the work.
AggregateOutcome close_async_round(AsyncAggregator& agg,
                                   std::int64_t applies_before);

struct RoundLedgerOptions {
  std::int64_t rounds = 0;
  std::int64_t eval_every = 0;  // <= 0: final round only
  std::int64_t local_iterations = 0;
  // Cumulative per-round privacy budget; empty = not recorded.
  core::PrivacyRoundSeries epsilon{};
  // Policy whose dp.clip counters give the per-round clip fraction;
  // null where clipping happens in other processes.
  const core::PrivacyPolicy* clip_policy = nullptr;
  nn::Sequential* eval_model = nullptr;
  const data::Dataset* val = nullptr;
  // The current global weights (evaluated after applied rounds).
  std::function<TensorList()> weights{};
  std::string log_prefix{};  // eval log line: "<prefix> round t/T acc=..."
  LogLevel log_level = LogLevel::kDebug;
};

// The per-round epilogue and the run totals it keeps: the fault ledger
// and its counters, the accepted / rejected / clip-fraction / grad-norm
// / epsilon series, the degradation tier, the quorum-miss skip, eval,
// and the round history.
class RoundLedger {
 public:
  explicit RoundLedger(RoundLedgerOptions options);

  // Call at the start of every round (snapshots the clip counters).
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
  // rounds, the telemetry snapshot) and hands it over. Set the final
  // weights and accuracy on result() first.
  FlRunResult finish();

  FlRunResult& result() { return result_; }
  std::int64_t accepted_total() const { return accepted_total_; }

 private:
  std::pair<std::int64_t, std::int64_t> clip_totals() const;
  void count_ledger(const RoundFailureStats& stats);

  RoundLedgerOptions options_;
  telemetry::Registry& registry_;
  telemetry::Labels policy_labels_;
  std::pair<std::int64_t, std::int64_t> clip_before_{0, 0};
  FlRunResult result_;
  std::int64_t accepted_total_ = 0;
  double total_ms_ = 0.0;
  std::int64_t total_local_iters_ = 0;
};

}  // namespace fedcl::fl
