#include "net/serving_server.h"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
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

}  // namespace

ServingServer::ServingServer(ExperimentDescriptor descriptor,
                             ServingOptions options, TcpListener listener)
    : descriptor_(descriptor),
      options_(options),
      listener_(std::move(listener)) {}

ServingServer::~ServingServer() = default;

Result<std::unique_ptr<ServingServer>> ServingServer::create(
    ExperimentDescriptor descriptor, ServingOptions options) {
  using R = Result<std::unique_ptr<ServingServer>>;
  Result<ExperimentDescriptor> valid = validate_descriptor(descriptor);
  if (!valid.ok()) return R::failure(valid.error());
  if (options.num_workers <= 0) {
    return R::failure("num_workers must be positive");
  }
  Result<TcpListener> listener = TcpListener::bind(options.port);
  if (!listener.ok()) return R::failure(listener.error());
  return std::unique_ptr<ServingServer>(new ServingServer(
      valid.take(), options, listener.take()));
}

ServingReport ServingServer::run() {
  const ExperimentDescriptor& d = descriptor_;
  telemetry::Registry& reg = telemetry::global_registry();
  reg.reset();

  ServingReport report;
  report.rounds = d.rounds;

  // -------- experiment state, from the descriptor alone (the workers
  // reconstruct theirs from the identical Welcome bytes). The server
  // derives data-size aggregation weights from its own virtualized
  // provider — a pure function of (seed, client_id) over the same
  // descriptor the workers got — instead of trusting the worker-reported
  // data_size field, so a compromised worker cannot inflate its own
  // weight (PROTOCOL.md threat model). The wire field stays for
  // observability and pre-hardening compatibility. --------
  const fl::Federation fed(
      data::benchmark_config(static_cast<data::BenchmarkId>(d.bench_id),
                             static_cast<BenchScale>(d.scale)),
      d.total_clients, d.local_iterations, /*faults=*/{}, d.seed);
  const data::Dataset val = fed.validation_set();
  const dp::ParamGroups groups =
      fl::to_param_groups(fed.model->layer_groups());
  std::unique_ptr<core::PrivacyPolicy> policy = make_policy(d);

  // -------- admission: roster handshake + standing Busy refusals ----
  const std::vector<std::uint8_t> welcome = encode_descriptor(d);
  std::mutex roster_mutex;
  std::condition_variable roster_cv;
  std::vector<WorkerSlot> workers(
      static_cast<std::size_t>(options_.num_workers));
  int registered = 0;
  bool roster_closed = false;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> busy_rejected{0};
  std::atomic<std::int64_t> frames_rejected{0};

  auto reject_frame = [&](const char* reason) {
    ++frames_rejected;
    reg.counter("fl.net.frames_rejected_total", {{"reason", reason}}).add(1);
  };

  std::thread accept_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      TcpConn conn = listener_.accept(50);
      if (!conn.valid()) continue;
      Frame frame;
      // A connection that cannot produce a well-formed Hello promptly
      // is screened out here — this is the surface the malformed-frame
      // tests and the load-gen churn probes hit.
      const FrameStatus st =
          read_frame(conn, frame, options_.max_frame_bytes, 2000);
      if (st != FrameStatus::kOk) {
        reject_frame(frame_status_name(st));
        continue;
      }
      if (frame.type != MsgType::kHello) {
        reject_frame("unexpected-type");
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
    stop.store(true, std::memory_order_relaxed);
    accept_thread.join();
    for (WorkerSlot& w : workers) {
      if (w.alive) write_frame(w.conn, MsgType::kBye, nullptr, 0);
    }
    r.busy_rejected = busy_rejected.load();
    r.frames_rejected = frames_rejected.load();
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

  // -------- shared round-loop plumbing ------------------------------
  auto kill_worker = [&](WorkerSlot& w, const char* why) {
    if (!w.alive) return;
    w.alive = false;
    w.conn.close();
    if (std::strcmp(why, "timeout") == 0) {
      reg.counter("fl.net.timeouts_total").add(1);
    } else {
      reg.counter("fl.net.disconnects_total").add(1);
    }
    FEDCL_LOG(Warn) << "fedcl_server: worker lost (" << why << ")";
  };

  // A deadline miss is an injected straggler that expired; a lost
  // connection an injected crash that expired — the same disposition
  // ledger the in-process engines keep (see fault_injection.h).
  auto expire_straggler = [&](fl::RoundFailureStats& stats, std::size_t n) {
    stats.injected_straggler += static_cast<std::int64_t>(n);
    stats.fault_expired += static_cast<std::int64_t>(n);
  };
  auto expire_crash = [&](fl::RoundFailureStats& stats, std::size_t n) {
    stats.injected_crash += static_cast<std::int64_t>(n);
    stats.fault_expired += static_cast<std::int64_t>(n);
  };

  // Server-derived, never the wire-reported size.
  auto data_weight = [&](std::int64_t client_id) {
    return static_cast<double>(fed.provider.data_size(client_id));
  };

  // Cohort members per worker: client ci is hosted by worker ci % n.
  auto split_by_worker = [&](const std::vector<std::size_t>& cohort) {
    std::vector<std::vector<std::int64_t>> ids(workers.size());
    for (std::size_t ci : cohort) {
      ids[ci % workers.size()].push_back(static_cast<std::int64_t>(ci));
    }
    return ids;
  };

  // Sends one round's TrainRequest, with the round span's trace context
  // when the worker advertised the capability. False = send failed.
  auto send_train_request = [&](WorkerSlot& w, std::int64_t t,
                                const std::vector<std::int64_t>& ids,
                                const std::vector<std::uint8_t>& blob,
                                const telemetry::SpanTimer& round_span) {
    TrainRequestMsg req;
    req.round = t;
    req.client_ids = ids;
    req.weights_blob = blob;
    const telemetry::TraceContext rctx = round_span.context();
    if ((w.flags & kFrameFlagTraceContext) && rctx.valid()) {
      req.has_trace = true;
      req.trace_hi = rctx.trace_hi;
      req.trace_lo = rctx.trace_lo;
      req.parent_span = rctx.span_id;
    }
    if (!write_frame(w.conn, MsgType::kTrainRequest,
                     encode_train_request(req))) {
      return false;
    }
    reg.counter("fl.net.frames_sent_total").add(1);
    return true;
  };

  // Opens and deserializes one UpdateMsg through the per-client channel
  // (docs/PROTOCOL.md §4). nullopt = decode rejection, already tallied.
  auto open_update = [&](UpdateMsg msg, std::size_t worker,
                         std::int64_t round, fl::RoundFailureStats& stats)
      -> std::optional<fl::ClientUpdate> {
    telemetry::SpanTimer screen_span(
        reg, "fl.net.screen", {{"worker", std::to_string(worker)}}, round);
    fl::SecureChannel channel(
        fl::client_channel_key(d.seed, msg.client_id));
    Result<std::vector<std::uint8_t>> opened =
        channel.open(std::move(msg.sealed));
    if (!opened.ok()) {
      ++stats.rejected_decode;
      return std::nullopt;
    }
    Result<fl::ClientUpdate> decoded =
        fl::deserialize_update(fl::ByteSpan(opened.value()));
    if (!decoded.ok()) {
      ++stats.rejected_decode;
      return std::nullopt;
    }
    return decoded.take();
  };

  const Clock::time_point run_start = Clock::now();
  std::optional<fl::Server> server;
  std::optional<fl::AsyncAggregator> agg;
  auto current_weights = [&]() -> fl::TensorList {
    return agg.has_value() ? agg->weights_snapshot() : server->weights();
  };
  fl::RoundLedger ledger({
      .rounds = d.rounds,
      .eval_every = options_.eval_every,
      .local_iterations = d.local_iterations,
      .eval_model = fed.model.get(),
      .val = &val,
      .weights = current_weights,
      .log_prefix = options_.async_mode ? "fedcl_server: async"
                                        : "fedcl_server:",
      .log_level = LogLevel::kInfo,
  });

  if (!options_.async_mode) {
    // ================= synchronous (bitwise-parity) engine ==========
    server.emplace(fed.model->weights(),
                   fl::AggregationOptions{
                       .server_momentum = options_.server_momentum,
                       .screening = options_.screening,
                       .min_reporting = options_.min_reporting,
                       .reduced_min_reporting =
                           options_.reduced_min_reporting});

    for (std::int64_t t = 0; t < d.rounds; ++t) {
      const Clock::time_point round_start = Clock::now();
      // Every process derives the same per-round trace id from (seed,
      // round), so worker-side spans land in the same trace without a
      // coordination round-trip; the server's round span is the root.
      telemetry::TraceScope trace(telemetry::round_trace_root(d.seed, t));
      telemetry::SpanTimer round_span(reg, "fl.round", {}, t);
      ledger.open_round();
      fl::RoundTally tally;
      fl::RoundFailureStats& stats = tally.stats;

      Rng sample_rng =
          fed.round_rng.fork("sample", static_cast<std::uint64_t>(t));
      const std::vector<std::size_t> chosen = server->sample_clients(
          static_cast<std::size_t>(d.total_clients),
          static_cast<std::size_t>(d.clients_per_round), sample_rng);
      // Cohort slots, so updates re-assemble in sampling order no
      // matter which worker answers first — the order the in-process
      // fold consumes them in.
      std::unordered_map<std::int64_t, std::size_t> slot_of;
      for (std::size_t i = 0; i < chosen.size(); ++i) {
        slot_of[static_cast<std::int64_t>(chosen[i])] = i;
      }
      std::vector<std::optional<fl::ClientUpdate>> got(chosen.size());

      const std::vector<std::vector<std::int64_t>> ids_per_worker =
          split_by_worker(chosen);
      const std::vector<std::uint8_t> weights_blob =
          fl::serialize_tensor_list(server->weights());

      {
        telemetry::SpanTimer dispatch_span(
            reg, "fl.phase", {{"phase", "dispatch"}}, t);
        for (std::size_t w = 0; w < workers.size(); ++w) {
          if (ids_per_worker[w].empty()) continue;
          if (!workers[w].alive) {
            expire_crash(stats, ids_per_worker[w].size());
          } else if (!send_train_request(workers[w], t, ids_per_worker[w],
                                         weights_blob, round_span)) {
            kill_worker(workers[w], "send failed");
            expire_crash(stats, ids_per_worker[w].size());
          }
        }
      }

      // Collect worker by worker: replies queue in each socket while
      // the others compute, so serial reads lose no concurrency.
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (ids_per_worker[w].empty() || !workers[w].alive) continue;
        telemetry::SpanTimer recv_span(
            reg, "fl.net.recv", {{"worker", std::to_string(w)}}, t);
        std::unordered_set<std::int64_t> pending(
            ids_per_worker[w].begin(), ids_per_worker[w].end());
        while (!pending.empty()) {
          Frame frame;
          const FrameStatus st =
              read_frame(workers[w].conn, frame, options_.max_frame_bytes,
                         options_.io_timeout_ms);
          if (st == FrameStatus::kTimeout) {
            // Sync engine is fail-stop on the deadline: the round
            // cannot wait longer, and a desynchronized reply stream is
            // unusable afterwards.
            expire_straggler(stats, pending.size());
            kill_worker(workers[w], "timeout");
            break;
          }
          if (st != FrameStatus::kOk) {
            reject_frame(frame_status_name(st));
            expire_crash(stats, pending.size());
            kill_worker(workers[w], "disconnect");
            break;
          }
          reg.counter("fl.net.frames_received_total").add(1);
          if (frame.type == MsgType::kUpdate) {
            Result<UpdateMsg> decoded = decode_update(frame.payload);
            if (!decoded.ok() ||
                pending.count(decoded.value().client_id) == 0) {
              reject_frame("bad-payload");
              expire_crash(stats, pending.size());
              kill_worker(workers[w], "protocol violation");
              break;
            }
            UpdateMsg msg = decoded.take();
            pending.erase(msg.client_id);
            const std::size_t slot = slot_of[msg.client_id];
            got[slot] = open_update(std::move(msg), w, t, stats);
          } else if (frame.type == MsgType::kTrainError) {
            Result<TrainErrorMsg> err = decode_train_error(frame.payload);
            if (!err.ok() || pending.count(err.value().client_id) == 0) {
              reject_frame("bad-payload");
              expire_crash(stats, pending.size());
              kill_worker(workers[w], "protocol violation");
              break;
            }
            FEDCL_LOG(Warn) << "fedcl_server: client "
                            << err.value().client_id
                            << " failed: " << err.value().message;
            pending.erase(err.value().client_id);
            expire_crash(stats, 1);
          } else {
            reject_frame("unexpected-type");
            expire_crash(stats, pending.size());
            kill_worker(workers[w], "protocol violation");
            break;
          }
        }
      }

      std::vector<fl::ClientUpdate> updates;
      std::vector<double> update_weights;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!got[i].has_value()) continue;
        updates.push_back(std::move(*got[i]));
        update_weights.push_back(data_weight(chosen[i]));
      }
      const fl::AggregateOutcome outcome = fl::aggregate_round(
          *server, std::move(updates),
          options_.weight_by_data_size ? &update_weights : nullptr, *policy,
          groups, fed.round_rng, t, tally);
      if (!outcome.applied) server->skip_round();
      ledger.close_round(t, tally, outcome);
      report.round_ms.push_back(ms_since(round_start));
    }
  } else {
    // ============ asynchronous (overlapping rounds) engine ==========
    agg.emplace(fed.model->weights(),
                fl::resolve_async_config(options_.async, d.clients_per_round),
                *policy, groups, fed.root.fork("async-aggregate"),
                options_.screening);
    const std::int64_t max_staleness = agg->config().max_staleness;

    // Processes one received frame for worker `w`. Returns false when
    // the worker was killed (caller stops reading it).
    auto process_frame = [&](WorkerSlot& w, Frame frame, std::int64_t now,
                             fl::RoundTally& tally) -> bool {
      fl::RoundFailureStats& stats = tally.stats;
      auto fail = [&](const char* reason, const char* why) {
        reject_frame(reason);
        expire_crash(stats, w.outstanding_clients());
        w.outstanding.clear();
        kill_worker(w, why);
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
      std::optional<fl::ClientUpdate> update = open_update(
          std::move(*update_msg),
          static_cast<std::size_t>(&w - workers.data()), now, stats);
      if (!update.has_value()) return true;
      const double weight =
          options_.weight_by_data_size ? data_weight(client_id) : 1.0;
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
          reject_frame(frame_status_name(st));
          expire_crash(tally.stats, w.outstanding_clients());
          w.outstanding.clear();
          kill_worker(w, st == FrameStatus::kTimeout ? "timeout"
                                                     : "disconnect");
          return;
        }
        if (!process_frame(w, std::move(frame), now, tally)) return;
      }
    };

    for (std::int64_t t = 0; t < d.rounds; ++t) {
      const Clock::time_point round_start = Clock::now();
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
        Rng sample_rng =
            fed.round_rng.fork("sample", static_cast<std::uint64_t>(t));
        const std::vector<std::vector<std::int64_t>> ids_per_worker =
            split_by_worker(sample_rng.sample_without_replacement(
                static_cast<std::size_t>(d.total_clients),
                static_cast<std::size_t>(d.clients_per_round)));
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
          if (!send_train_request(workers[w], t, ids_per_worker[w],
                                  weights_blob, round_span)) {
            expire_crash(stats, ids_per_worker[w].size() +
                                    workers[w].outstanding_clients());
            workers[w].outstanding.clear();
            kill_worker(workers[w], "send failed");
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
      report.round_ms.push_back(ms_since(round_start));
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
    report.async_applies = agg->applies();
  }

  const fl::FlRunResult& run = ledger.result();
  report.failures = run.total_failures;
  report.dropped_rounds = run.dropped_rounds;
  report.completed_rounds = d.rounds - run.dropped_rounds;
  report.reduced_quorum_rounds = run.reduced_quorum_rounds;
  report.updates_accepted = ledger.accepted_total();
  report.updates_rejected = run.total_failures.rejected_total();
  report.final_weights = tensor::list::clone(current_weights());
  report.final_accuracy = ledger.evaluate();
  reg.gauge("fl.net.run_duration_ms").set(ms_since(run_start));
  report.ok = true;
  return finish(std::move(report));
}

}  // namespace fedcl::net
