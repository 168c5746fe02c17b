#include "net/serving_server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "fl/protocol.h"
#include "fl/round_engine.h"

namespace fedcl::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The experiment a served run executes. Faults, dropout and
// re-dispatch stay off: only real network events fail a client. The
// workers train, so the server builds no scratch models.
fl::FlExperimentConfig experiment_config(const ExperimentDescriptor& d,
                                         const ServingOptions& options) {
  fl::FlExperimentConfig config;
  config.bench =
      data::benchmark_config(static_cast<data::BenchmarkId>(d.bench_id),
                             static_cast<BenchScale>(d.scale));
  config.total_clients = d.total_clients;
  config.clients_per_round = d.clients_per_round;
  config.rounds = d.rounds;
  config.local_iterations = d.local_iterations;
  config.prune_ratio = d.prune_ratio;
  config.eval_every = options.eval_every;
  config.seed = d.seed;
  config.noise_scale = d.sigma;
  config.server_momentum = options.server_momentum;
  config.screening = options.screening;
  config.min_reporting = options.min_reporting;
  config.reduced_min_reporting = options.reduced_min_reporting;
  config.async_mode = options.async_mode;
  config.async = options.async;
  config.parallel_clients = false;
  return config;
}

// One admitted worker connection and the replies it owes.
struct WorkerSlot {
  TcpConn conn;
  bool alive = false;
  // One entry per client sent and not yet answered, in request order:
  // a worker answers in that order (PROTOCOL.md §1), so every reply
  // answers the head.
  struct Expected {
    std::int64_t client = 0;
    std::int64_t round = 0;  // the dispatch round
    std::size_t slot = 0;    // sync: the client's cohort slot
    // Async: booked as an expired straggler at the staleness horizon;
    // the reply, when it comes, is read and dropped.
    bool expired = false;
  };
  std::deque<Expected> fifo;
};

// A deadline miss is an injected straggler that expired; a lost
// connection an injected crash that expired — the same disposition
// ledger the in-process engines keep (see fault_injection.h).
void expire(fl::RoundFailureStats& stats, fl::FaultType fault) {
  stats.count_injected(fault);
  ++stats.fault_expired;
}

// The serving transport, and the round loops' executor over it: the
// k-th runnable dispatch of an attempt trains on worker k mod n, so
// each worker trains ceil(m/n) or floor(m/n) of an attempt's m clients
// (every worker rebuilds the whole federation and trains any id). It
// builds no scratch models; each update is opened
// and decoded as its reply is read, and network events land on the
// affected clients' deliveries as docs/PROTOCOL.md §6 lists them. Both
// loops read replies through one reader: run_sync waits for every reply
// of an attempt, run_async collects what lands within a real-time
// window and leaves the rest owed to later rounds.
class SocketExecutor final : public fl::ClientExecutor {
 public:
  SocketExecutor(const ServingOptions& options, std::uint64_t seed)
      : workers(static_cast<std::size_t>(options.num_workers)),
        options_(options),
        seed_(seed) {}

  std::vector<WorkerSlot> workers;
  std::atomic<std::int64_t> frames_rejected{0};

  void reject_frame(const char* reason) {
    ++frames_rejected;
    telemetry::global_registry()
        .counter("fl.net.frames_rejected_total", {{"reason", reason}})
        .add(1);
  }

  // Sends every worker its share of the attempt, then reads the replies
  // worker by worker into cohort slots: replies queue in each socket
  // while the others compute, so serial reads lose no concurrency.
  Deliver start(const fl::DeliveryContext& ctx,
                const std::vector<fl::Dispatch>& dispatches) override {
    send(ctx, dispatches);
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].fifo.empty()) continue;
      telemetry::SpanTimer recv_span(telemetry::global_registry(),
                                     "fl.net.recv",
                                     {{"worker", std::to_string(w)}},
                                     ctx.round);
      while (!workers[w].fifo.empty()) read_reply(w, ctx.round);
    }
    slots_.assign(dispatches.size(), {});
    for (Reply& r : replies_) slots_[r.slot] = std::move(r.arrival.delivery);
    replies_.clear();
    return [this](std::size_t i, nn::Sequential&) {
      return std::move(slots_[i]);
    };
  }

  // What landed since the last round, read without waiting. A client
  // past the staleness horizon expires now: even if its update arrived,
  // screening would reject it.
  std::vector<fl::Arrival> due(std::int64_t t) override {
    for (std::size_t w = 0; w < workers.size(); ++w) read_landed(w, t);
    for (WorkerSlot& worker : workers) {
      expire_owed(worker, fl::FaultType::kStraggler,
                  t - options_.async.max_staleness);
    }
    return take_arrivals();
  }

  // The collection window: waits (bounded) for the round's own replies;
  // whatever misses it stays owed and lands in a later round.
  std::vector<fl::Arrival> dispatch(
      const fl::DeliveryContext& ctx,
      const std::vector<fl::Dispatch>& runnable) override {
    send(ctx, runnable);
    collect(ctx.round, ctx.round);
    return take_arrivals();
  }

  // One final grace window for replies still owed, then the rest
  // expires as stragglers.
  std::vector<fl::Arrival> drain(std::int64_t t) override {
    collect(t, kAnyRound);
    for (WorkerSlot& worker : workers) {
      expire_owed(worker, fl::FaultType::kStraggler, kAnyRound);
    }
    return take_arrivals();
  }

 private:
  // A FIFO entry the executor has resolved, and its cohort slot.
  struct Reply {
    std::size_t slot = 0;
    fl::Arrival arrival;
  };

  fl::ClientDelivery& resolve(const WorkerSlot::Expected& e) {
    Reply& reply = replies_.emplace_back();
    reply.slot = e.slot;
    reply.arrival.ci = static_cast<std::size_t>(e.client);
    return reply.arrival.delivery;
  }

  std::vector<fl::Arrival> take_arrivals() {
    std::vector<fl::Arrival> arrivals;
    arrivals.reserve(replies_.size());
    for (Reply& r : replies_) arrivals.push_back(std::move(r.arrival));
    replies_.clear();
    return arrivals;
  }

  static constexpr std::int64_t kAnyRound =
      std::numeric_limits<std::int64_t>::max();

  // Whether a worker owes an unexpired reply dispatched at round t.
  bool owes(std::int64_t t) const {
    for (const WorkerSlot& worker : workers) {
      for (const WorkerSlot::Expected& e : worker.fifo) {
        if (!e.expired && (t == kAnyRound || e.round == t)) return true;
      }
    }
    return false;
  }

  // Books every entry `worker` owes from before round `before` as an
  // expired fault; the entries stay queued, so the replies that still
  // come are read and dropped.
  void expire_owed(WorkerSlot& worker, fl::FaultType fault,
                   std::int64_t before) {
    for (WorkerSlot::Expected& e : worker.fifo) {
      if (e.expired || e.round >= before) continue;
      e.expired = true;
      expire(resolve(e).stats, fault);
    }
  }

  // Rounds a worker still owes replies for: the backpressure window.
  int rounds_owed(const WorkerSlot& worker) const {
    int rounds = 0;
    std::int64_t last = -1;
    for (const WorkerSlot::Expected& e : worker.fifo) {
      if (e.expired || e.round == last) continue;
      ++rounds;
      last = e.round;
    }
    return rounds;
  }

  // Sends each worker its share of the runnable dispatches, carrying the
  // context of the span the loop dispatches from: the k-th runnable
  // dispatch goes to worker k mod n, live or not, so a lost worker's
  // share expires as crashes. A worker already max_inflight_rounds
  // behind gets nothing new: its share expires as stragglers rather
  // than queueing without bound.
  void send(const fl::DeliveryContext& ctx,
            const std::vector<fl::Dispatch>& dispatches) {
    telemetry::Registry& reg = telemetry::global_registry();
    const std::int64_t t = ctx.round;
    const telemetry::TraceContext parent = telemetry::current_trace();
    telemetry::SpanTimer dispatch_span(reg, "fl.phase",
                                       {{"phase", "dispatch"}}, t);
    std::vector<std::vector<WorkerSlot::Expected>> share(workers.size());
    std::size_t runnable = 0;
    for (std::size_t i = 0; i < dispatches.size(); ++i) {
      if (!dispatches[i].run) continue;
      const auto id = static_cast<std::int64_t>(dispatches[i].ci);
      share[runnable++ % workers.size()].push_back(
          {.client = id, .round = t, .slot = i});
    }
    const std::vector<std::uint8_t> blob =
        fl::serialize_tensor_list(ctx.weights);
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (share[w].empty()) continue;
      WorkerSlot& worker = workers[w];
      if (rounds_owed(worker) >= options_.max_inflight_rounds) {
        reg.counter("fl.net.backpressure_withheld_total")
            .add(static_cast<std::int64_t>(share[w].size()));
        for (const WorkerSlot::Expected& e : share[w]) {
          expire(resolve(e).stats, fl::FaultType::kStraggler);
        }
        continue;
      }
      std::vector<std::int64_t> ids;
      for (const WorkerSlot::Expected& e : share[w]) {
        worker.fifo.push_back(e);
        ids.push_back(e.client);
      }
      if (!worker.alive ||
          !send_train_request(worker, t, std::move(ids), blob, parent)) {
        lose(w, "send failed");
      }
    }
  }

  // Sends one round's TrainRequest with `parent` as its trace context.
  // False = send failed.
  bool send_train_request(WorkerSlot& w, std::int64_t t,
                          std::vector<std::int64_t> ids,
                          const std::vector<std::uint8_t>& blob,
                          const telemetry::TraceContext& parent) {
    TrainRequestMsg req;
    req.round = t;
    req.client_ids = std::move(ids);
    req.weights_blob = blob;
    req.trace_hi = parent.trace_hi;
    req.trace_lo = parent.trace_lo;
    req.parent_span = parent.span_id;
    if (!write_frame(w.conn, MsgType::kTrainRequest,
                     encode_train_request(req))) {
      return false;
    }
    telemetry::global_registry().counter("fl.net.frames_sent_total").add(1);
    return true;
  }

  // Worker w is lost: every client its FIFO still owes expires (as a
  // straggler when the deadline passed, else as a crash) and the
  // connection closes.
  void lose(std::size_t w, const char* why) {
    WorkerSlot& worker = workers[w];
    const bool timeout = std::strcmp(why, "timeout") == 0;
    expire_owed(worker,
                timeout ? fl::FaultType::kStraggler : fl::FaultType::kCrash,
                kAnyRound);
    worker.fifo.clear();
    if (!worker.alive) return;
    worker.alive = false;
    worker.conn.close();
    telemetry::global_registry()
        .counter(timeout ? "fl.net.timeouts_total" : "fl.net.disconnects_total")
        .add(1);
    FEDCL_LOG(Warn) << "fedcl_server: worker lost (" << why << ")";
  }

  // Reads worker w's next reply and resolves the head of its FIFO: an
  // Update is opened and decoded (docs/PROTOCOL.md §4), a TrainError
  // expires the client, and a reply that answers anything else, or no
  // reply within the deadline, loses the worker. A reply to an expired
  // entry is dropped. An update dispatched before round `now` hands over
  // as an injected straggler, to be absorbed stale or screened.
  void read_reply(std::size_t w, std::int64_t now) {
    WorkerSlot& worker = workers[w];
    Frame frame;
    const FrameStatus st = read_frame(worker.conn, frame,
                                      options_.max_frame_bytes,
                                      options_.io_timeout_ms);
    if (st != FrameStatus::kOk) {
      if (st != FrameStatus::kTimeout) reject_frame(frame_status_name(st));
      lose(w, st == FrameStatus::kTimeout ? "timeout" : "disconnect");
      return;
    }
    telemetry::Registry& reg = telemetry::global_registry();
    reg.counter("fl.net.frames_received_total").add(1);
    const WorkerSlot::Expected head = worker.fifo.front();
    std::optional<UpdateMsg> update;
    bool answered = false;  // the frame answers the head
    if (frame.type == MsgType::kUpdate) {
      Result<UpdateMsg> msg = decode_update(frame.payload);
      answered = msg.ok() && msg.value().client_id == head.client;
      if (answered) update = msg.take();
    } else if (frame.type == MsgType::kTrainError) {
      Result<TrainErrorMsg> err = decode_train_error(frame.payload);
      answered = err.ok() && err.value().client_id == head.client;
      if (answered) {
        FEDCL_LOG(Warn) << "fedcl_server: client " << head.client
                        << " failed: " << err.value().message;
      }
    }
    if (!answered) {
      reject_frame(frame.type == MsgType::kUpdate ||
                           frame.type == MsgType::kTrainError
                       ? "bad-payload"
                       : "unexpected-type");
      lose(w, "protocol violation");
      return;
    }
    worker.fifo.pop_front();
    if (head.expired) return;
    fl::ClientDelivery& delivery = resolve(head);
    if (!update.has_value()) {
      expire(delivery.stats, fl::FaultType::kCrash);  // TrainError
      return;
    }
    telemetry::SpanTimer screen_span(reg, "fl.net.screen",
                                     {{"worker", std::to_string(w)}}, now);
    Result<fl::ClientUpdate> opened =
        fl::open_update(seed_, head.client, std::move(update->sealed));
    if (!opened.ok()) {
      ++delivery.stats.rejected_decode;
      return;
    }
    delivery.update = opened.take();
    if (head.round < now) {
      delivery.fault = fl::FaultType::kStraggler;
      delivery.stats.count_injected(delivery.fault);
    }
  }

  // Reads every reply worker w has already sent, without waiting.
  void read_landed(std::size_t w, std::int64_t now) {
    WorkerSlot& worker = workers[w];
    if (!(worker.alive && !worker.fifo.empty() && worker.conn.readable(0))) {
      return;  // nothing queued: no empty fl.net.recv span
    }
    telemetry::SpanTimer recv_span(telemetry::global_registry(),
                                   "fl.net.recv",
                                   {{"worker", std::to_string(w)}}, now);
    while (worker.alive && !worker.fifo.empty() && worker.conn.readable(0)) {
      read_reply(w, now);
    }
  }

  // Reads replies as they land, for up to async_round_wait_ms, while a
  // worker owes one dispatched at `round`.
  void collect(std::int64_t now, std::int64_t round) {
    const Clock::time_point start = Clock::now();
    while (owes(round) && ms_since(start) < options_.async_round_wait_ms) {
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (workers[w].alive && !workers[w].fifo.empty() &&
            workers[w].conn.readable(10)) {
          read_landed(w, now);
        }
      }
    }
  }

  const ServingOptions& options_;
  std::uint64_t seed_;
  std::vector<Reply> replies_;             // resolved, in resolution order
  std::vector<fl::ClientDelivery> slots_;  // sync: the attempt's, by slot
};

}  // namespace

ServingServer::ServingServer(ExperimentDescriptor descriptor,
                             ServingOptions options, TcpListener listener)
    : descriptor_(descriptor),
      options_(options),
      listener_(std::move(listener)) {}

Result<std::unique_ptr<ServingServer>> ServingServer::create(
    ExperimentDescriptor descriptor, ServingOptions options) {
  using R = Result<std::unique_ptr<ServingServer>>;
  Result<ExperimentDescriptor> valid = validate_descriptor(descriptor);
  if (!valid.ok()) return R::failure(valid.error());
  const std::pair<bool, const char*> transport_rules[] = {
      {options.num_workers > 0, "num_workers must be positive"},
      {options.io_timeout_ms > 0, "io_timeout_ms must be positive"},
      {options.max_inflight_rounds >= 1, "max_inflight_rounds must be >= 1"},
  };
  for (const auto& [ok, message] : transport_rules) {
    if (!ok) return R::failure(message);
  }
  Result<fl::FlExperimentConfig> config =
      fl::validate_config(experiment_config(valid.value(), options));
  if (!config.ok()) return R::failure(config.error());
  Result<TcpListener> listener = TcpListener::bind(options.port);
  if (!listener.ok()) return R::failure(listener.error());
  return std::unique_ptr<ServingServer>(new ServingServer(
      valid.take(), options, listener.take()));
}

ServingReport ServingServer::run() {
  const ExperimentDescriptor& d = descriptor_;
  const fl::FlExperimentConfig config = experiment_config(d, options_);
  telemetry::Registry& reg = telemetry::global_registry();
  reg.reset();

  ServingReport report;
  report.rounds = d.rounds;

  // -------- experiment state, from the descriptor alone (the workers
  // reconstruct theirs from the identical Welcome bytes). The fold
  // weights every update equally and never reads the worker-reported
  // data_size field (PROTOCOL.md threat model). --------
  const fl::Federation fed(config.bench, config.total_clients,
                           config.effective_local_iterations(), config.faults,
                           config.seed);
  std::unique_ptr<core::PrivacyPolicy> policy = make_policy(d);

  // -------- admission: roster handshake + standing Busy refusals ----
  const std::vector<std::uint8_t> welcome = encode_descriptor(d);
  SocketExecutor sockets(options_, d.seed);
  std::vector<WorkerSlot>& workers = sockets.workers;
  std::mutex roster_mutex;
  std::condition_variable roster_cv;
  int registered = 0;
  bool roster_closed = false;
  std::atomic<std::int64_t> busy_rejected{0};

  // Stopped and joined on every exit from run(), a throw included.
  std::jthread accept_thread([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      TcpConn conn = listener_.accept(50);
      if (!conn.valid()) continue;
      Frame frame;
      // A connection that cannot produce a well-formed Hello promptly
      // is screened out here — this is the surface the malformed-frame
      // tests and the load-gen churn probes hit.
      const FrameStatus st =
          read_frame(conn, frame, options_.max_frame_bytes, 2000);
      if (st != FrameStatus::kOk) {
        sockets.reject_frame(frame_status_name(st));
        continue;
      }
      if (frame.type != MsgType::kHello) {
        sockets.reject_frame("unexpected-type");
        continue;
      }
      Result<HelloMsg> hello = decode_hello(frame.payload);
      bool admitted = false;
      if (hello.ok() &&
          hello.value().num_workers ==
              static_cast<std::uint32_t>(options_.num_workers)) {
        std::lock_guard<std::mutex> lock(roster_mutex);
        WorkerSlot& slot = workers[hello.value().worker_index];
        if (!roster_closed && !slot.alive &&
            write_frame(conn, MsgType::kWelcome, welcome)) {
          slot.conn = std::move(conn);
          slot.alive = true;
          ++registered;
          admitted = true;
          reg.counter("fl.net.connections_accepted_total").add(1);
          roster_cv.notify_all();
        }
      }
      if (!admitted) {
        ++busy_rejected;
        reg.counter("fl.net.connections_rejected_total").add(1);
        static const char kBusyReason[] = "server at capacity";
        write_frame(conn, MsgType::kBusy,
                    reinterpret_cast<const std::uint8_t*>(kBusyReason),
                    sizeof(kBusyReason) - 1);
      }
    }
  });

  auto finish = [&](ServingReport&& r) {
    accept_thread.request_stop();
    accept_thread.join();
    for (WorkerSlot& w : workers) {
      if (w.alive) write_frame(w.conn, MsgType::kBye, nullptr, 0);
    }
    r.busy_rejected = busy_rejected.load();
    r.frames_rejected = sockets.frames_rejected.load();
    reg.flush_sinks();
    return std::move(r);
  };

  {
    std::unique_lock<std::mutex> lock(roster_mutex);
    if (!roster_cv.wait_for(
            lock, std::chrono::milliseconds(options_.accept_timeout_ms),
            [&] { return registered == options_.num_workers; })) {
      report.error = "worker roster incomplete: " +
                     std::to_string(registered) + "/" +
                     std::to_string(options_.num_workers) +
                     " workers connected within " +
                     std::to_string(options_.accept_timeout_ms) + " ms";
      return finish(std::move(report));
    }
    roster_closed = true;
  }
  FEDCL_LOG(Info) << "fedcl_server: roster complete ("
                  << options_.num_workers << " workers), starting "
                  << d.rounds << " rounds";

  const Clock::time_point run_start = Clock::now();
  fl::FlRunResult run = fl::run_federation(config, *policy, fed, &sockets);

  report.failures = run.total_failures;
  report.dropped_rounds = run.dropped_rounds;
  report.completed_rounds = run.completed_rounds;
  report.reduced_quorum_rounds = run.reduced_quorum_rounds;
  report.async_applies = run.async_applies;
  report.updates_accepted = run.updates_accepted;
  report.updates_rejected = run.total_failures.rejected_total();
  report.privacy_setup = run.privacy_setup;
  for (const fl::RoundRecord& record : run.history) {
    report.round_ms.push_back(record.wall_ms);
  }
  report.final_weights = std::move(run.final_weights);
  report.final_accuracy = run.final_accuracy;
  reg.gauge("fl.net.run_duration_ms").set(ms_since(run_start));
  report.ok = true;
  return finish(std::move(report));
}

}  // namespace fedcl::net
