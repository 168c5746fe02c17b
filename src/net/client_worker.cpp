#include "net/client_worker.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/benchmarks.h"
#include "fl/protocol.h"
#include "fl/round_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fedcl::net {

Result<WorkerReport> run_worker(const WorkerConfig& config) {
  using R = Result<WorkerReport>;
  if (config.num_workers <= 0 || config.worker_index < 0 ||
      config.worker_index >= config.num_workers) {
    return R::failure("worker_index " + std::to_string(config.worker_index) +
                      " out of range for " +
                      std::to_string(config.num_workers) + " workers");
  }

  Result<TcpConn> connected =
      TcpConn::connect(config.host, config.port, config.connect_timeout_ms);
  if (!connected.ok()) return R::failure(connected.error());
  TcpConn conn = connected.take();

  HelloMsg hello;
  hello.worker_index = static_cast<std::uint32_t>(config.worker_index);
  hello.num_workers = static_cast<std::uint32_t>(config.num_workers);
  if (!write_frame(conn, MsgType::kHello, encode_hello(hello))) {
    return R::failure("failed to send hello");
  }

  Frame frame;
  FrameStatus st =
      read_frame(conn, frame, kDefaultMaxPayload, config.connect_timeout_ms);
  if (st != FrameStatus::kOk) {
    return R::failure(std::string("handshake failed: ") +
                      frame_status_name(st));
  }
  if (frame.type == MsgType::kBusy) {
    return R::failure("admission refused: " +
                      std::string(frame.payload.begin(),
                                  frame.payload.end()));
  }
  if (frame.type != MsgType::kWelcome) {
    return R::failure(std::string("expected welcome, got ") +
                      msg_type_name(frame.type));
  }
  Result<ExperimentDescriptor> decoded = decode_descriptor(frame.payload);
  if (!decoded.ok()) {
    return R::failure("bad welcome descriptor: " + decoded.error());
  }
  const ExperimentDescriptor d = decoded.take();

  // ---- rebuild the client-side experiment from the descriptor: the
  // same forked streams the in-process trainer consumes, so shards,
  // model init, and per-round training are bit-identical. Virtualized:
  // the worker can train any of the K client ids, but materializes a
  // client only when a round asks for it, so startup is O(dataset)
  // instead of O(total_clients) (fl/virtual_client.h) ----
  const fl::Federation fed(
      data::benchmark_config(static_cast<data::BenchmarkId>(d.bench_id),
                             static_cast<BenchScale>(d.scale)),
      d.total_clients, d.local_iterations, /*faults=*/{}, d.seed);
  std::unique_ptr<core::PrivacyPolicy> policy = make_policy(d);

  FEDCL_LOG(Info) << "fedcl_client: worker " << config.worker_index << "/"
                  << config.num_workers << " serving any of "
                  << d.total_clients << " clients (virtualized) on "
                  << fed.bench.name;

  telemetry::Registry& reg = telemetry::global_registry();
  const std::string worker_label = std::to_string(config.worker_index);

  WorkerReport report;
  for (;;) {
    st = read_frame(conn, frame, kDefaultMaxPayload, config.io_timeout_ms);
    if (st == FrameStatus::kClosed || st == FrameStatus::kTimeout) {
      return R::failure(std::string("server went away: ") +
                        frame_status_name(st));
    }
    if (st != FrameStatus::kOk) {
      return R::failure(std::string("framing error: ") +
                        frame_status_name(st));
    }
    if (frame.type == MsgType::kBye) break;
    if (frame.type != MsgType::kTrainRequest) {
      return R::failure(std::string("unexpected frame: ") +
                        msg_type_name(frame.type));
    }
    Result<TrainRequestMsg> request = decode_train_request(frame.payload);
    if (!request.ok()) {
      return R::failure("bad train request: " + request.error());
    }
    TrainRequestMsg req = request.take();
    Result<fl::TensorList> weights =
        fl::deserialize_tensor_list(fl::ByteSpan(req.weights_blob));
    if (!weights.ok()) {
      return R::failure("bad global weights: " + weights.error());
    }
    const fl::TensorList global_weights = weights.take();
    const fl::DeliveryContext ctx{.provider = fed.provider,
                                  .round_rng = fed.round_rng,
                                  .policy = *policy,
                                  .weights = global_weights,
                                  .seed = d.seed,
                                  .round = req.round,
                                  .prune_ratio = d.prune_ratio,
                                  .max_attempts = 1};

    // Adopt the server's round trace: our spans parent under the
    // server-side span the request was sent from, so the merged Chrome
    // trace shows one tree per round across processes. `remote` marks
    // the parent id as living in another process's event stream. An
    // all-zero context adopts nothing.
    const telemetry::TraceScope adopt(telemetry::TraceContext{
        req.trace_hi, req.trace_lo, req.parent_span, /*remote=*/true});
    telemetry::SpanTimer request_span(
        reg, "fl.client.round", {{"worker", worker_label}}, req.round);

    for (std::int64_t ci : req.client_ids) {
      // The only guard between a wire id and the federation's shard
      // lookup.
      if (ci < 0 || ci >= d.total_clients) {
        TrainErrorMsg err;
        err.client_id = ci;
        err.message = "client id " + std::to_string(ci) +
                      " outside [0, " + std::to_string(d.total_clients) +
                      ")";
        if (!write_frame(conn, MsgType::kTrainError,
                         encode_train_error(err))) {
          return R::failure("failed to send train error");
        }
        continue;
      }
      // The same train and seal halves the in-process engines run,
      // from the same per-(round, client) stream: the label discipline
      // is the parity guarantee.
      fl::ClientRoundOutcome outcome = [&] {
        telemetry::SpanTimer train_span(reg, "fl.client.phase",
                                        {{"phase", "local_train"}},
                                        req.round);
        return fl::train_client(ctx, ci, *fed.model);
      }();
      UpdateMsg msg;
      msg.client_id = ci;
      msg.data_size = fed.provider.data_size(ci);
      {
        telemetry::SpanTimer serialize_span(reg, "fl.client.phase",
                                            {{"phase", "serialize"}},
                                            req.round);
        msg.sealed = fl::seal_update(d.seed, ci, outcome.update);
      }
      telemetry::SpanTimer upload_span(reg, "fl.client.phase",
                                       {{"phase", "upload"}}, req.round);
      if (!write_frame(conn, MsgType::kUpdate, encode_update(msg))) {
        return R::failure("failed to send update");
      }
      ++report.clients_trained;
    }
    ++report.rounds_served;
  }
  return report;
}

}  // namespace fedcl::net
