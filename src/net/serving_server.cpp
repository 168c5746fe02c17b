#include "net/serving_server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/telemetry.h"
#include "fl/protocol.h"
#include "fl/round_engine.h"
#include "fl/server.h"

namespace fedcl::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The experiment a served run executes. Faults, dropout and
// re-dispatch stay off: only real network events fail a client.
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
  config.weight_by_data_size = options.weight_by_data_size;
  config.server_momentum = options.server_momentum;
  config.screening = options.screening;
  config.min_reporting = options.min_reporting;
  config.reduced_min_reporting = options.reduced_min_reporting;
  config.async_mode = options.async_mode;
  config.async = options.async;
  return config;
}

// One admitted worker connection plus (async engine) its outstanding
// dispatches: the backpressure window is the deque length.
struct WorkerSlot {
  TcpConn conn;
  bool alive = false;
  // Capability flags the worker advertised on its Hello frame. The
  // trace-context field is appended to TrainRequests only when
  // kFrameFlagTraceContext is set here — an old worker's decoder
  // rejects trailing bytes, so the server must not volunteer them.
  std::uint8_t flags = 0;
  struct Outstanding {
    std::int64_t round = 0;
    std::unordered_set<std::int64_t> remaining;
  };
  std::deque<Outstanding> outstanding;

  std::size_t outstanding_clients() const {
    std::size_t n = 0;
    for (const auto& o : outstanding) n += o.remaining.size();
    return n;
  }
};

// A deadline miss is an injected straggler that expired; a lost
// connection an injected crash that expired — the same disposition
// ledger the in-process engines keep (see fault_injection.h).
void expire_straggler(fl::RoundFailureStats& stats, std::size_t n) {
  stats.injected_straggler += static_cast<std::int64_t>(n);
  stats.fault_expired += static_cast<std::int64_t>(n);
}
void expire_crash(fl::RoundFailureStats& stats, std::size_t n) {
  stats.injected_crash += static_cast<std::int64_t>(n);
  stats.fault_expired += static_cast<std::int64_t>(n);
}

// The serving transport, and the sync loop's executor over it: each
// client of an attempt trains on the worker hosting it (client c lives
// on worker c % n). It builds no scratch models; each update is opened
// and decoded as its frame arrives, so decoding overlaps the other
// workers' training, and network events land on the affected clients'
// deliveries as docs/PROTOCOL.md §6 lists them. The async engine drives
// the same roster through the same helpers.
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

  // Drops a lost worker; its clients are the caller's to expire.
  void kill(WorkerSlot& w, const char* why) {
    if (!w.alive) return;
    w.alive = false;
    w.conn.close();
    telemetry::global_registry()
        .counter(std::strcmp(why, "timeout") == 0 ? "fl.net.timeouts_total"
                                                  : "fl.net.disconnects_total")
        .add(1);
    FEDCL_LOG(Warn) << "fedcl_server: worker lost (" << why << ")";
  }

  // Sends one round's TrainRequest, with `parent` as its trace context
  // when the worker advertised the capability. False = send failed.
  bool send_train_request(WorkerSlot& w, std::int64_t t,
                          std::vector<std::int64_t> ids,
                          const std::vector<std::uint8_t>& blob,
                          const telemetry::TraceContext& parent) {
    TrainRequestMsg req;
    req.round = t;
    req.client_ids = std::move(ids);
    req.weights_blob = blob;
    if ((w.flags & kFrameFlagTraceContext) && parent.valid()) {
      req.has_trace = true;
      req.trace_hi = parent.trace_hi;
      req.trace_lo = parent.trace_lo;
      req.parent_span = parent.span_id;
    }
    if (!write_frame(w.conn, MsgType::kTrainRequest,
                     encode_train_request(req))) {
      return false;
    }
    telemetry::global_registry().counter("fl.net.frames_sent_total").add(1);
    return true;
  }

  // Opens and decodes one update (docs/PROTOCOL.md §4). nullopt = a
  // decode rejection, already tallied.
  std::optional<fl::ClientUpdate> open_update(UpdateMsg msg, std::size_t worker,
                                              std::int64_t round,
                                              fl::RoundFailureStats& stats) {
    telemetry::SpanTimer screen_span(telemetry::global_registry(),
                                     "fl.net.screen",
                                     {{"worker", std::to_string(worker)}},
                                     round);
    Result<fl::ClientUpdate> update =
        fl::open_update(seed_, msg.client_id, std::move(msg.sealed));
    if (update.ok()) return update.take();
    ++stats.rejected_decode;
    return std::nullopt;
  }

  // Sends every worker its share of the attempt and reads the replies
  // worker by worker into cohort slots: replies queue in each socket
  // while the others compute, so serial reads lose no concurrency.
  Deliver start(const fl::DeliveryContext& ctx,
                const std::vector<fl::Dispatch>& dispatches) override {
    telemetry::Registry& reg = telemetry::global_registry();
    const std::int64_t t = ctx.round;
    slots_.assign(dispatches.size(), {});
    // Each worker's clients and their cohort slots, in request order.
    std::vector<std::vector<std::int64_t>> ids(workers.size());
    std::vector<std::vector<std::size_t>> share(workers.size());
    for (std::size_t i = 0; i < dispatches.size(); ++i) {
      if (!dispatches[i].run) continue;
      ids[dispatches[i].ci % workers.size()].push_back(
          static_cast<std::int64_t>(dispatches[i].ci));
      share[dispatches[i].ci % workers.size()].push_back(i);
    }
    // Worker w is lost: its clients from the k-th on never report.
    auto lose = [&](std::size_t w, std::size_t k, const char* why) {
      for (; k < share[w].size(); ++k) {
        (std::strcmp(why, "timeout") == 0 ? expire_straggler : expire_crash)(
            slots_[share[w][k]].stats, 1);
      }
      kill(workers[w], why);
    };

    {
      telemetry::SpanTimer dispatch_span(reg, "fl.phase",
                                         {{"phase", "dispatch"}}, t);
      // Worker-side spans parent under the span this attempt runs in.
      const telemetry::TraceContext parent = telemetry::current_trace();
      const std::vector<std::uint8_t> blob =
          fl::serialize_tensor_list(ctx.weights);
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (ids[w].empty()) continue;
        if (!workers[w].alive ||
            !send_train_request(workers[w], t, ids[w], blob, parent)) {
          lose(w, 0, "send failed");
        }
      }
    }

    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (share[w].empty() || !workers[w].alive) continue;
      telemetry::SpanTimer recv_span(reg, "fl.net.recv",
                                     {{"worker", std::to_string(w)}}, t);
      // One reply per client, in request order (PROTOCOL.md §1). The
      // deadline is fail-stop: the round cannot wait longer, and a
      // desynchronized reply stream is unusable afterwards.
      for (std::size_t k = 0; k < share[w].size(); ++k) {
        const std::int64_t ci = ids[w][k];
        fl::RoundFailureStats& stats = slots_[share[w][k]].stats;
        Frame frame;
        const FrameStatus st = read_frame(workers[w].conn, frame,
                                          options_.max_frame_bytes,
                                          options_.io_timeout_ms);
        if (st != FrameStatus::kOk) {
          if (st != FrameStatus::kTimeout) reject_frame(frame_status_name(st));
          lose(w, k, st == FrameStatus::kTimeout ? "timeout" : "disconnect");
          break;
        }
        reg.counter("fl.net.frames_received_total").add(1);
        const char* violation = "unexpected-type";
        if (frame.type == MsgType::kUpdate) {
          Result<UpdateMsg> msg = decode_update(frame.payload);
          if (msg.ok() && msg.value().client_id == ci) {
            slots_[share[w][k]].update = open_update(msg.take(), w, t, stats);
            continue;
          }
          violation = "bad-payload";
        } else if (frame.type == MsgType::kTrainError) {
          Result<TrainErrorMsg> err = decode_train_error(frame.payload);
          if (err.ok() && err.value().client_id == ci) {
            FEDCL_LOG(Warn) << "fedcl_server: client " << ci
                            << " failed: " << err.value().message;
            expire_crash(stats, 1);
            continue;
          }
          violation = "bad-payload";
        }
        reject_frame(violation);
        lose(w, k, "protocol violation");
        break;
      }
    }

    return [this](std::size_t i, nn::Sequential&) {
      return std::move(slots_[i]);
    };
  }

 private:
  const ServingOptions& options_;
  std::uint64_t seed_;
  std::vector<fl::ClientDelivery> slots_;  // the attempt's, in cohort order
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
  if (options.num_workers <= 0) {
    return R::failure("num_workers must be positive");
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
  // reconstruct theirs from the identical Welcome bytes). Data-size
  // weights come from the server's own provider (RunState::weight_of),
  // never from the worker-reported data_size field, so a compromised
  // worker cannot inflate its weight (PROTOCOL.md threat model). --------
  const fl::Federation fed(config.bench, config.total_clients,
                           config.effective_local_iterations(), config.faults,
                           config.seed);
  const data::Dataset val = fed.validation_set();
  const dp::ParamGroups groups =
      fl::to_param_groups(fed.model->layer_groups());
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
        // Echo back the capability bits this server understands and
        // will use — currently just the trace-context flag.
        const std::uint8_t caps =
            frame.flags & kFrameFlagTraceContext;
        if (!roster_closed && !slot.alive &&
            write_frame(conn, MsgType::kWelcome, welcome, caps)) {
          slot.conn = std::move(conn);
          slot.alive = true;
          slot.flags = caps;
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
  fl::Server server(fed.model->weights(),
                    {.server_momentum = config.server_momentum,
                     .screening = config.screening,
                     .min_reporting = config.min_reporting,
                     .reduced_min_reporting = config.reduced_min_reporting});
  std::optional<fl::AsyncAggregator> agg;
  fl::RoundLedger ledger({
      .rounds = d.rounds,
      .eval_every = options_.eval_every,
      .local_iterations = d.local_iterations,
      .eval_model = fed.model.get(),
      .val = &val,
      .weights = [&]() -> fl::TensorList {
        return agg.has_value() ? agg->weights_snapshot() : server.weights();
      },
      .log_prefix = options_.async_mode ? "fedcl_server: async"
                                        : "fedcl_server:",
      .log_level = LogLevel::kInfo,
  });

  // Serial, so no scratch models: the workers train.
  fl::ClientRunner runner(fed, *policy, /*parallel_clients=*/false,
                          config.clients_per_round);
  const fl::RunState state{config, *policy, fed, groups,
                           runner, server, ledger};
  fl::FlRunResult run;
  if (!options_.async_mode) {
    // ================= synchronous (bitwise-parity) engine ==========
    run = fl::run_sync(state, sockets);
  } else {
    // ============ asynchronous (overlapping rounds) engine ==========
    agg.emplace(fed.model->weights(),
                fl::resolve_async_config(options_.async, d.clients_per_round),
                *policy, groups, fed.root.fork("async-aggregate"),
                options_.screening);
    const std::int64_t max_staleness = agg->config().max_staleness;

    // Cohort members per worker: client ci is hosted by worker ci % n.
    auto split_by_worker = [&](const std::vector<std::size_t>& cohort) {
      std::vector<std::vector<std::int64_t>> ids(workers.size());
      for (std::size_t ci : cohort) {
        ids[ci % workers.size()].push_back(static_cast<std::int64_t>(ci));
      }
      return ids;
    };

    // Processes one received frame for worker `w`. Returns false when
    // the worker was killed (caller stops reading it).
    auto process_frame = [&](WorkerSlot& w, Frame frame, std::int64_t now,
                             fl::RoundTally& tally) -> bool {
      fl::RoundFailureStats& stats = tally.stats;
      auto fail = [&](const char* reason, const char* why) {
        sockets.reject_frame(reason);
        expire_crash(stats, w.outstanding_clients());
        w.outstanding.clear();
        sockets.kill(w, why);
        return false;
      };
      reg.counter("fl.net.frames_received_total").add(1);
      std::int64_t client_id = -1;
      std::optional<UpdateMsg> update_msg;
      if (frame.type == MsgType::kUpdate) {
        Result<UpdateMsg> decoded = decode_update(frame.payload);
        if (!decoded.ok()) return fail("bad-payload", "protocol violation");
        update_msg = decoded.take();
        client_id = update_msg->client_id;
      } else if (frame.type == MsgType::kTrainError) {
        Result<TrainErrorMsg> err = decode_train_error(frame.payload);
        if (!err.ok()) return fail("bad-payload", "protocol violation");
        client_id = err.value().client_id;
      } else {
        return fail("unexpected-type", "protocol violation");
      }
      // Workers answer their requests in order, so the client is in
      // the oldest outstanding entries first.
      bool matched = false;
      for (auto it = w.outstanding.begin(); it != w.outstanding.end();
           ++it) {
        if (it->remaining.erase(client_id) > 0) {
          matched = true;
          if (it->remaining.empty()) w.outstanding.erase(it);
          break;
        }
      }
      if (!matched) return fail("bad-payload", "protocol violation");
      if (!update_msg.has_value()) {
        expire_crash(stats, 1);  // TrainError: this client never reports
        return true;
      }
      std::optional<fl::ClientUpdate> update = sockets.open_update(
          std::move(*update_msg),
          static_cast<std::size_t>(&w - workers.data()), now, stats);
      if (!update.has_value()) return true;
      // Server-derived, never the wire-reported size.
      const double weight =
          state.weight_of(static_cast<std::size_t>(client_id));
      const fl::AsyncAggregator::OfferResult res =
          agg->offer(std::move(*update), now, weight);
      if (!res.accepted) {
        stats.count_rejected(*res.reject);
        return true;
      }
      ++tally.accepted;
      if (res.staleness > 0) {
        // A late arrival is a straggler fault absorbed via the
        // staleness decay — injected and resolved in one step, so the
        // disposition bijection still balances.
        ++stats.injected_straggler;
        ++stats.fault_accepted_stale;
      }
      return true;
    };

    auto drain_worker = [&](WorkerSlot& w, std::int64_t now,
                            fl::RoundTally& tally) {
      if (!(w.alive && !w.outstanding.empty() && w.conn.readable(0))) {
        return;  // nothing queued: no empty fl.net.recv span
      }
      telemetry::SpanTimer recv_span(
          reg, "fl.net.recv",
          {{"worker",
            std::to_string(static_cast<std::size_t>(&w - workers.data()))}},
          now);
      while (w.alive && !w.outstanding.empty() && w.conn.readable(0)) {
        Frame frame;
        const FrameStatus st = read_frame(
            w.conn, frame, options_.max_frame_bytes, options_.io_timeout_ms);
        if (st != FrameStatus::kOk) {
          sockets.reject_frame(frame_status_name(st));
          expire_crash(tally.stats, w.outstanding_clients());
          w.outstanding.clear();
          sockets.kill(w, st == FrameStatus::kTimeout ? "timeout"
                                                        : "disconnect");
          return;
        }
        if (!process_frame(w, std::move(frame), now, tally)) return;
      }
    };

    for (std::int64_t t = 0; t < d.rounds; ++t) {
      telemetry::TraceScope trace(telemetry::round_trace_root(d.seed, t));
      telemetry::SpanTimer round_span(reg, "fl.round", {}, t);
      ledger.open_round();
      fl::RoundTally tally;
      fl::RoundFailureStats& stats = tally.stats;
      const std::int64_t applies_before = agg->applies();

      // Phase 0: fold in whatever already arrived (late updates from
      // earlier rounds enter staleness-weighted).
      for (WorkerSlot& w : workers) drain_worker(w, t, tally);
      // Expire dispatches past the staleness horizon: even if the
      // update arrived now, screening would reject it.
      for (WorkerSlot& w : workers) {
        while (!w.outstanding.empty() &&
               w.outstanding.front().round + max_staleness < t) {
          expire_straggler(stats, w.outstanding.front().remaining.size());
          w.outstanding.pop_front();
        }
      }

      // Phase 1: sample and dispatch, with backpressure — a worker
      // already `max_inflight_rounds` behind gets nothing new; its
      // cohort slots expire as stragglers rather than queueing without
      // bound.
      {
        telemetry::SpanTimer dispatch_span(
            reg, "fl.phase", {{"phase", "dispatch"}}, t);
        const std::vector<std::vector<std::int64_t>> ids_per_worker =
            split_by_worker(state.sample(t));
        const std::vector<std::uint8_t> weights_blob =
            fl::serialize_tensor_list(agg->weights_snapshot());
        for (std::size_t w = 0; w < workers.size(); ++w) {
          if (ids_per_worker[w].empty()) continue;
          if (!workers[w].alive) {
            expire_crash(stats, ids_per_worker[w].size());
            continue;
          }
          if (static_cast<int>(workers[w].outstanding.size()) >=
              options_.max_inflight_rounds) {
            reg.counter("fl.net.backpressure_withheld_total")
                .add(static_cast<std::int64_t>(ids_per_worker[w].size()));
            expire_straggler(stats, ids_per_worker[w].size());
            continue;
          }
          if (!sockets.send_train_request(workers[w], t, ids_per_worker[w],
                                            weights_blob,
                                            round_span.context())) {
            expire_crash(stats, ids_per_worker[w].size() +
                                    workers[w].outstanding_clients());
            workers[w].outstanding.clear();
            sockets.kill(workers[w], "send failed");
            continue;
          }
          WorkerSlot::Outstanding o;
          o.round = t;
          o.remaining.insert(ids_per_worker[w].begin(),
                             ids_per_worker[w].end());
          workers[w].outstanding.push_back(std::move(o));
        }
      }

      // Phase 2: collection window. Wait (bounded) for this round's
      // own updates; whatever misses the window stays outstanding and
      // arrives stale in a later round.
      const Clock::time_point window_start = Clock::now();
      for (;;) {
        bool this_round_pending = false;
        for (const WorkerSlot& w : workers) {
          for (const auto& o : w.outstanding) {
            if (o.round == t && !o.remaining.empty()) {
              this_round_pending = true;
              break;
            }
          }
          if (this_round_pending) break;
        }
        if (!this_round_pending) break;
        if (ms_since(window_start) >= options_.async_round_wait_ms) break;
        bool any_read = false;
        for (WorkerSlot& w : workers) {
          if (!w.alive || w.outstanding.empty()) continue;
          if (w.conn.readable(10)) {
            any_read = true;
            drain_worker(w, t, tally);
          }
        }
        if (!any_read) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }

      ledger.close_round(t, tally, fl::close_async_round(*agg, applies_before));
    }

    // End of run: one final grace window for stragglers, then expire
    // the rest and drain the buffer.
    fl::RoundTally drain;
    const Clock::time_point drain_start = Clock::now();
    for (;;) {
      bool any_outstanding = false;
      for (WorkerSlot& w : workers) {
        if (w.alive && !w.outstanding.empty()) any_outstanding = true;
      }
      if (!any_outstanding ||
          ms_since(drain_start) >= options_.async_round_wait_ms) {
        break;
      }
      for (WorkerSlot& w : workers) {
        if (w.alive && !w.outstanding.empty() && w.conn.readable(10)) {
          drain_worker(w, d.rounds - 1, drain);
        }
      }
    }
    for (WorkerSlot& w : workers) {
      for (const auto& o : w.outstanding) {
        expire_straggler(drain.stats, o.remaining.size());
      }
      w.outstanding.clear();
    }
    ledger.close_run(drain);
    agg->flush();
    fl::FlRunResult& result = ledger.result();
    result.async_applies = agg->applies();
    result.final_weights = agg->weights_snapshot();
    result.final_accuracy = ledger.evaluate();
    run = ledger.finish();
  }

  report.failures = run.total_failures;
  report.dropped_rounds = run.dropped_rounds;
  report.completed_rounds = run.completed_rounds;
  report.reduced_quorum_rounds = run.reduced_quorum_rounds;
  report.async_applies = run.async_applies;
  report.updates_accepted = ledger.accepted_total();
  report.updates_rejected = run.total_failures.rejected_total();
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
