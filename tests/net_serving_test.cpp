// The multi-process serving path over real loopback sockets: frame
// layer robustness (bad magic/version/type, oversized, truncated —
// never a crash), wire-codec round-trips and truncation fuzz, the
// admission surface under malformed connections, and the headline
// contract — an end-to-end run over TCP is BITWISE identical to
// fl::run_experiment at the same seed (docs/PROTOCOL.md §5). The
// adversarial cases run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/benchmarks.h"
#include "fl/protocol.h"
#include "fl/round_engine.h"
#include "fl/trainer.h"
#include "net/client_worker.h"
#include "net/frame.h"
#include "net/serving_server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fedcl::net {
namespace {

// A connected loopback socket pair: `client` dialed `server`.
struct SocketPair {
  TcpConn client;
  TcpConn server;
};

SocketPair make_pair() {
  Result<TcpListener> listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.ok()) << listener.error();
  Result<TcpConn> client =
      TcpConn::connect("127.0.0.1", listener.value().port(), 2000);
  EXPECT_TRUE(client.ok()) << client.error();
  TcpConn server = listener.value().accept(2000);
  EXPECT_TRUE(server.valid());
  return {client.take(), std::move(server)};
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// A syntactically valid frame header with every field controllable.
std::vector<std::uint8_t> raw_header(std::uint32_t magic, std::uint8_t version,
                                     std::uint8_t type,
                                     std::uint32_t payload_len) {
  std::vector<std::uint8_t> h(kFrameHeaderBytes, 0);
  put_u32(h.data(), magic);
  h[4] = version;
  h[5] = type;
  put_u32(h.data() + 8, payload_len);
  return h;
}

TEST(NetFrame, RoundTripOverLoopback) {
  SocketPair pair = make_pair();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(write_frame(pair.client, MsgType::kUpdate, payload));
  Frame frame;
  ASSERT_EQ(read_frame(pair.server, frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kUpdate);
  EXPECT_EQ(frame.payload, payload);
}

TEST(NetFrame, EmptyPayloadRoundTrips) {
  SocketPair pair = make_pair();
  ASSERT_TRUE(write_frame(pair.client, MsgType::kBye, nullptr, 0));
  Frame frame;
  ASSERT_EQ(read_frame(pair.server, frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kBye);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrame, RejectsBadMagic) {
  SocketPair pair = make_pair();
  const auto h = raw_header(0xdeadbeef, kProtocolVersion,
                            static_cast<std::uint8_t>(MsgType::kHello), 0);
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameStatus::kBadMagic);
}

TEST(NetFrame, RejectsBadVersion) {
  SocketPair pair = make_pair();
  const auto h = raw_header(kFrameMagic, kProtocolVersion + 1,
                            static_cast<std::uint8_t>(MsgType::kHello), 0);
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameStatus::kBadVersion);
}

TEST(NetFrame, RejectsPreviousVersion) {
  // Version 1 sealed updates with the FNV-1a tag, version 2 sent
  // TrainRequests with or without the trace field, and a version 3
  // worker trains only the ids it hosts (c mod n); a peer still
  // speaking any of them must be refused at the header, not ledgered
  // as decode failures or TrainErrors.
  for (const std::uint8_t version : {1, 2, 3}) {
    SCOPED_TRACE(static_cast<int>(version));
    SocketPair pair = make_pair();
    const auto h = raw_header(kFrameMagic, version,
                              static_cast<std::uint8_t>(MsgType::kHello), 0);
    ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
    Frame frame;
    EXPECT_EQ(read_frame(pair.server, frame), FrameStatus::kBadVersion);
  }
}

TEST(NetFrame, RejectsBadType) {
  SocketPair pair = make_pair();
  const auto h = raw_header(kFrameMagic, kProtocolVersion, 99, 0);
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameStatus::kBadType);
}

TEST(NetFrame, RejectsOversizedBeforeAllocating) {
  SocketPair pair = make_pair();
  const auto h =
      raw_header(kFrameMagic, kProtocolVersion,
                 static_cast<std::uint8_t>(MsgType::kUpdate), 0xffffffffu);
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  Frame frame;
  // A 4 GiB claim must be refused from the 12 header bytes alone.
  EXPECT_EQ(read_frame(pair.server, frame, 1024, 2000),
            FrameStatus::kOversized);
}

TEST(NetFrame, TruncatedPayloadReportsClosed) {
  SocketPair pair = make_pair();
  auto h = raw_header(kFrameMagic, kProtocolVersion,
                      static_cast<std::uint8_t>(MsgType::kUpdate), 100);
  h.push_back(42);  // 1 of the promised 100 payload bytes
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  pair.client.close();
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), FrameStatus::kClosed);
}

TEST(NetFrame, StalledPayloadTimesOut) {
  SocketPair pair = make_pair();
  const auto h = raw_header(kFrameMagic, kProtocolVersion,
                            static_cast<std::uint8_t>(MsgType::kUpdate), 100);
  ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame, kDefaultMaxPayload, 100),
            FrameStatus::kTimeout);
}

TEST(NetWire, HelloRoundTripAndRangeCheck) {
  HelloMsg msg;
  msg.worker_index = 3;
  msg.num_workers = 8;
  Result<HelloMsg> back = decode_hello(encode_hello(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().worker_index, 3u);
  EXPECT_EQ(back.value().num_workers, 8u);

  msg.worker_index = 8;  // == num_workers: out of range
  EXPECT_FALSE(decode_hello(encode_hello(msg)).ok());
}

ExperimentDescriptor sample_descriptor() {
  ExperimentDescriptor d;
  d.bench_id = static_cast<std::uint8_t>(data::BenchmarkId::kCancer);
  d.scale = static_cast<std::uint8_t>(BenchScale::kSmoke);
  d.policy = PolicyId::kFedCdp;
  d.total_clients = 4;
  d.clients_per_round = 2;
  d.rounds = 3;
  d.local_iterations = 2;
  d.prune_ratio = 0.5;
  d.clip = 4.0;
  d.sigma = 0.25;
  d.seed = 1234;
  return d;
}

TEST(NetWire, DescriptorRoundTrip) {
  const ExperimentDescriptor d = sample_descriptor();
  Result<ExperimentDescriptor> back = decode_descriptor(encode_descriptor(d));
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().bench_id, d.bench_id);
  EXPECT_EQ(back.value().policy, d.policy);
  EXPECT_EQ(back.value().total_clients, d.total_clients);
  EXPECT_EQ(back.value().rounds, d.rounds);
  EXPECT_EQ(back.value().sigma, d.sigma);
  EXPECT_EQ(back.value().seed, d.seed);
}

// A descriptor the run would throw on fails to decode, with a reason:
// the worker refuses such a Welcome before it builds anything.
TEST(NetWire, DescriptorRejectsBadClipAndSigma) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  const struct {
    double clip;
    double sigma;
    const char* reason;
  } cases[] = {
      {-1.0, 0.25, "clip"}, {0.0, 0.25, "clip"},   {nan, 0.25, "clip"},
      {inf, 0.25, "clip"},  {4.0, -0.5, "sigma"}, {4.0, nan, "sigma"},
      {4.0, inf, "sigma"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.clip) + " " + std::to_string(c.sigma));
    ExperimentDescriptor d = sample_descriptor();
    d.clip = c.clip;
    d.sigma = c.sigma;
    Result<ExperimentDescriptor> back =
        decode_descriptor(encode_descriptor(d));
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().find(c.reason), std::string::npos)
        << back.error();
  }
  ExperimentDescriptor noiseless = sample_descriptor();
  noiseless.sigma = 0.0;
  EXPECT_TRUE(decode_descriptor(encode_descriptor(noiseless)).ok());
}

TEST(NetWire, DescriptorTruncationFuzz) {
  const auto bytes = encode_descriptor(sample_descriptor());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode_descriptor(prefix).ok())
        << "prefix of length " << len << " was accepted";
  }
}

TEST(NetWire, TrainRequestRoundTripAndFuzz) {
  TrainRequestMsg msg;
  msg.round = 7;
  msg.client_ids = {0, 3, 9};
  msg.weights_blob = {10, 20, 30, 40};
  const auto bytes = encode_train_request(msg);
  Result<TrainRequestMsg> back = decode_train_request(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().round, 7);
  EXPECT_EQ(back.value().client_ids, msg.client_ids);
  EXPECT_EQ(back.value().weights_blob, msg.weights_blob);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode_train_request(prefix).ok());
  }
}

// Every TrainRequest ends with the 24-byte trace field (PROTOCOL.md
// §3.4), so every strict prefix fails to decode, the length of a
// request without the field included.
TEST(NetWire, TrainRequestTraceFieldRoundTripAndFuzz) {
  TrainRequestMsg msg;
  msg.round = 5;
  msg.client_ids = {1, 2};
  msg.weights_blob = {42, 43};
  msg.trace_hi = 0x0123456789abcdefULL;
  msg.trace_lo = 0xfedcba9876543210ULL;
  msg.parent_span = 0xdeadbeefcafef00dULL;

  const auto bytes = encode_train_request(msg);
  // round, count, 2 ids, blob length, 2 blob bytes, trace field.
  ASSERT_EQ(bytes.size(), 8u + 4 + 2 * 8 + 4 + 2 + 24);
  const std::uint64_t tail[3] = {msg.trace_hi, msg.trace_lo,
                                 msg.parent_span};
  EXPECT_EQ(std::memcmp(bytes.data() + bytes.size() - 24, tail, 24), 0)
      << "the trace field must be the last 24 bytes";

  Result<TrainRequestMsg> back = decode_train_request(bytes);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().trace_hi, msg.trace_hi);
  EXPECT_EQ(back.value().trace_lo, msg.trace_lo);
  EXPECT_EQ(back.value().parent_span, msg.parent_span);
  EXPECT_EQ(back.value().client_ids, msg.client_ids);
  EXPECT_EQ(back.value().weights_blob, msg.weights_blob);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode_train_request(prefix).ok())
        << "prefix of length " << len << " accepted";
  }
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decode_train_request(longer).ok());
}

// Header bytes 6 and 7 are reserved (PROTOCOL.md §2): write_frame
// writes them 0, and read_frame ignores whatever arrives there.
TEST(NetFrame, ReservedHeaderBytesAreIgnored) {
  {
    SocketPair pair = make_pair();
    ASSERT_TRUE(write_frame(pair.client, MsgType::kHello, nullptr, 0));
    std::uint8_t h[kFrameHeaderBytes];
    ASSERT_EQ(pair.server.recv_exact(h, sizeof(h), 2000), IoStatus::kOk);
    EXPECT_EQ(h[6], 0);
    EXPECT_EQ(h[7], 0);
  }
  {
    SocketPair pair = make_pair();
    auto h = raw_header(kFrameMagic, kProtocolVersion,
                        static_cast<std::uint8_t>(MsgType::kHello), 2);
    h[6] = 0xaa;
    h[7] = 0x55;
    h.push_back(1);
    h.push_back(2);
    ASSERT_TRUE(pair.client.send_all(h.data(), h.size()));
    Frame frame;
    ASSERT_EQ(read_frame(pair.server, frame), FrameStatus::kOk);
    EXPECT_EQ(frame.type, MsgType::kHello);
    EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{1, 2}));
  }
}

TEST(NetWire, UpdateAndTrainErrorRoundTrip) {
  UpdateMsg u;
  u.client_id = 11;
  u.data_size = 128;
  u.sealed = {9, 8, 7};
  Result<UpdateMsg> u2 = decode_update(encode_update(u));
  ASSERT_TRUE(u2.ok());
  EXPECT_EQ(u2.value().client_id, 11);
  EXPECT_EQ(u2.value().data_size, 128);
  EXPECT_EQ(u2.value().sealed, u.sealed);

  TrainErrorMsg e;
  e.client_id = 5;
  e.message = "client not hosted here";
  Result<TrainErrorMsg> e2 = decode_train_error(encode_train_error(e));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value().client_id, 5);
  EXPECT_EQ(e2.value().message, e.message);
}

TEST(NetWire, PolicyVocabularyServesTheFourWireIds) {
  EXPECT_TRUE(parse_policy_id("non-private").ok());
  EXPECT_TRUE(parse_policy_id("fed-sdp").ok());
  EXPECT_TRUE(parse_policy_id("fed-cdp").ok());
  EXPECT_TRUE(parse_policy_id("fed-cdp-decay").ok());
  // dssgd has no wire id.
  EXPECT_FALSE(parse_policy_id("dssgd").ok());
  EXPECT_FALSE(parse_policy_id("no-such-policy").ok());
}

TEST(NetWire, DssgdIsRefusedForItsMissingWireId) {
  // The refusal names the missing id and the policies that have one.
  const Result<PolicyId> dssgd = parse_policy_id("dssgd");
  ASSERT_FALSE(dssgd.ok());
  EXPECT_EQ(dssgd.error(),
            "policy 'dssgd' has no policy id on the wire, so it cannot be "
            "served (servable: non-private|fed-sdp|fed-cdp|fed-cdp-decay)");
}

TEST(NetWire, ChannelKeyIsPerClientAndDeterministic) {
  EXPECT_EQ(fl::client_channel_key(42, 0), fl::client_channel_key(42, 0));
  EXPECT_NE(fl::client_channel_key(42, 0), fl::client_channel_key(42, 1));
  EXPECT_NE(fl::client_channel_key(42, 0), fl::client_channel_key(43, 0));
}

// ---- live-server tests -------------------------------------------------

// Runs `server` plus `num_workers` in-process worker threads over real
// loopback TCP and returns the server's report.
ServingReport run_with_workers(ServingServer& server, int num_workers) {
  ServingReport report;
  std::thread server_thread([&] { report = server.run(); });
  std::vector<std::thread> workers;
  for (int w = 0; w < num_workers; ++w) {
    workers.emplace_back([&server, w, num_workers] {
      WorkerConfig config;
      config.port = server.port();
      config.worker_index = w;
      config.num_workers = num_workers;
      run_worker(config);
    });
  }
  server_thread.join();
  for (std::thread& t : workers) t.join();
  return report;
}

TEST(NetServing, RosterTimeoutFailsCleanly) {
  ServingOptions options;
  options.num_workers = 1;
  options.accept_timeout_ms = 150;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(sample_descriptor(), options);
  ASSERT_TRUE(server.ok()) << server.error();
  ServingReport report = server.value()->run();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("roster incomplete"), std::string::npos)
      << report.error;
}

// The same fault ledger, field by field.
void expect_same_ledger(const fl::RoundFailureStats& a,
                        const fl::RoundFailureStats& b) {
  const auto fields = [](const fl::RoundFailureStats& f) {
    return std::vector<std::int64_t>{
        f.injected_crash,      f.injected_straggler,    f.injected_corrupt,
        f.injected_bit_flip,   f.injected_stale,        f.dropouts,
        f.rejected_decode,     f.rejected_shape,        f.rejected_non_finite,
        f.rejected_norm_outlier, f.rejected_stale,      f.retried_clients,
        f.quorum_missed,       f.fault_expired,         f.fault_screened,
        f.fault_retried,       f.fault_accepted_stale,  f.retry_attempts,
        f.reduced_quorum_rounds};
  };
  EXPECT_EQ(fields(a), fields(b));
}

std::int64_t series_sum(const fl::FlRunResult& run, const char* name) {
  double sum = 0.0;
  for (const telemetry::SeriesPoint& p : run.telemetry.series_points(name)) {
    sum += p.value;
  }
  return static_cast<std::int64_t>(sum);
}

// The privacy budget a run recorded, in one comparable list: the
// dp.epsilon points of both levels as (step, value) pairs, then the
// dp.delta gauge if the run set it (reset() zeroes a gauge an earlier
// run registered).
std::vector<double> recorded_budget(const telemetry::TelemetrySnapshot& snap) {
  std::vector<double> budget;
  for (const char* level : {"instance", "client"}) {
    for (const telemetry::SeriesPoint& p :
         snap.series_points("dp.epsilon", {{"level", level}})) {
      budget.push_back(static_cast<double>(p.step));
      budget.push_back(p.value);
    }
  }
  const double delta = snap.gauge_value("dp.delta");
  if (!std::isnan(delta) && delta != 0.0) budget.push_back(delta);
  return budget;
}

// The served run's in-process twin, built by hand from the descriptor
// and the server-side options: it pins the options -> config mapping.
fl::FlRunResult run_in_process(const ExperimentDescriptor& d,
                               const ServingOptions& options,
                               bool parallel_clients = true) {
  fl::FlExperimentConfig cfg;
  cfg.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                     BenchScale::kSmoke);
  cfg.total_clients = d.total_clients;
  cfg.clients_per_round = d.clients_per_round;
  cfg.rounds = d.rounds;
  cfg.local_iterations = d.local_iterations;
  cfg.prune_ratio = d.prune_ratio;
  cfg.seed = d.seed;
  cfg.noise_scale = d.sigma;
  cfg.eval_every = options.eval_every;
  cfg.server_momentum = options.server_momentum;
  cfg.screening = options.screening;
  cfg.min_reporting = options.min_reporting;
  cfg.reduced_min_reporting = options.reduced_min_reporting;
  cfg.async_mode = options.async_mode;
  cfg.async = options.async;
  cfg.parallel_clients = parallel_clients;
  std::unique_ptr<core::PrivacyPolicy> policy = make_policy(d);
  return fl::run_experiment(cfg, *policy);
}

// PROTOCOL.md §5.2 over a matrix of server options: every served run
// ends bitwise equal to its in-process twin, with the same ledger.
TEST(NetServing, EndToEndBitwiseParityWithInProcessEngine) {
  struct Case {
    const char* name;
    ExperimentDescriptor d;
    ServingOptions options;
  };
  ExperimentDescriptor d = sample_descriptor();
  d.total_clients = 8;
  d.clients_per_round = 4;
  std::vector<Case> cases(3, Case{"defaults", d, {}});
  cases[1].name = "eval every round";
  cases[1].options.eval_every = 1;
  // Fed-CDP's noise dominates these updates, so their norms concentrate
  // (9.0-9.2 here): a cap of 9.16 rejects a third of them, and the
  // reduced tier must carry the rounds that survive. Caps in
  // [9.105, 9.21) do both; a change to the update's bits may move that
  // band.
  cases[2].name = "screened, reduced quorum, momentum, pruned";
  cases[2].options.screening.max_update_norm = 9.16;
  cases[2].options.min_reporting = d.clients_per_round;
  cases[2].options.reduced_min_reporting = 2;
  cases[2].options.server_momentum = 0.5;
  cases[2].d.prune_ratio = 0.2;

  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.options.num_workers = 2;
    Result<std::unique_ptr<ServingServer>> server =
        ServingServer::create(c.d, c.options);
    ASSERT_TRUE(server.ok()) << server.error();
    const ServingReport report = run_with_workers(*server.value(), 2);
    ASSERT_TRUE(report.ok) << report.error;
    // The twin resets the registry: read the served run's budget first.
    const std::vector<double> served_budget =
        recorded_budget(telemetry::global_registry().snapshot());
    const fl::FlRunResult in_process = run_in_process(c.d, c.options);

    EXPECT_EQ(fl::serialize_tensor_list(report.final_weights),
              fl::serialize_tensor_list(in_process.final_weights))
        << "socket path diverged from the in-process sync engine";
    // Both levels of the epsilon series, bit for bit, and delta.
    EXPECT_EQ(served_budget.size(),
              static_cast<std::size_t>(4 * c.d.rounds + 1));
    EXPECT_EQ(served_budget, recorded_budget(in_process.telemetry));
    expect_same_ledger(report.failures, in_process.total_failures);
    EXPECT_EQ(report.dropped_rounds, in_process.dropped_rounds);
    EXPECT_EQ(report.reduced_quorum_rounds, in_process.reduced_quorum_rounds);
    EXPECT_EQ(report.updates_accepted, in_process.updates_accepted);
    EXPECT_EQ(report.updates_accepted,
              series_sum(in_process, "fl.round.accepted"));
    if (&c == &cases.back()) {
      // Not vacuous: the screened case rejected and degraded.
      EXPECT_GT(in_process.total_failures.rejected_norm_outlier, 0);
      EXPECT_GT(in_process.reduced_quorum_rounds, 0);
    } else {
      EXPECT_EQ(report.updates_accepted, c.d.rounds * c.d.clients_per_round);
    }
  }
}

// A served option the run would reject fails create(), before a port is
// bound or a worker admitted, with fl::validate_config's reason or the
// transport's.
TEST(NetServing, InvalidServerOptionsFailAtCreate) {
  ServingOptions valid;
  valid.num_workers = 1;
  ASSERT_TRUE(ServingServer::create(sample_descriptor(), valid).ok());

  std::vector<ServingOptions> invalid(10, valid);
  invalid[0].min_reporting = 0;
  invalid[1].reduced_min_reporting = 2;  // above min_reporting = 1
  invalid[2].server_momentum = 1.0;
  invalid[3].screening.max_update_norm = -1.0;
  invalid[4].async_mode = true;
  invalid[4].async.staleness_alpha = -0.5;
  // Transport options: no time to receive a frame in, and no room for
  // a single round in flight.
  invalid[5].io_timeout_ms = 0;
  invalid[6].async_mode = true;
  invalid[6].max_inflight_rounds = 0;
  // Sync-engine knobs the async engine would silently ignore.
  for (std::size_t i = 7; i < 10; ++i) invalid[i].async_mode = true;
  invalid[7].server_momentum = 0.5;
  invalid[8].min_reporting = 2;
  invalid[9].reduced_min_reporting = 1;
  for (const ServingOptions& options : invalid) {
    Result<std::unique_ptr<ServingServer>> server =
        ServingServer::create(sample_descriptor(), options);
    ASSERT_FALSE(server.ok());
    EXPECT_FALSE(server.error().empty());
  }

  // A clip or sigma the sanitizer would abort on fails here too.
  std::vector<ExperimentDescriptor> bad(2, sample_descriptor());
  bad[0].clip = -1.0;
  bad[1].sigma = std::nan("");
  for (const ExperimentDescriptor& d : bad) {
    Result<std::unique_ptr<ServingServer>> server =
        ServingServer::create(d, valid);
    ASSERT_FALSE(server.ok());
    EXPECT_NE(server.error().find("descriptor"), std::string::npos)
        << server.error();
  }
}

// A worker lost mid-run (PROTOCOL.md §6): worker 1 handshakes, takes
// its first TrainRequest and hangs up. Its share of every attempt
// expires as crashes, the quorum miss runs the resample-retry pass,
// whose spares sent to it expire too, and the reduced tier applies what
// worker 0 delivered.
TEST(NetServing, LostWorkerExpiresItsClientsAndRetries) {
  ExperimentDescriptor d = sample_descriptor();
  d.total_clients = 8;
  d.clients_per_round = 4;
  ServingOptions options;
  options.num_workers = 2;
  options.min_reporting = d.clients_per_round;
  options.reduced_min_reporting = 1;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();
  const int port = server.value()->port();

  ServingReport report;
  std::thread server_thread([&] { report = server.value()->run(); });
  std::thread real_worker([port] {
    WorkerConfig config;
    config.port = port;
    config.worker_index = 0;
    config.num_workers = 2;
    run_worker(config);
  });
  std::thread lost_worker([port] {
    Result<TcpConn> conn = TcpConn::connect("127.0.0.1", port, 5000);
    if (!conn.ok()) return;
    HelloMsg hello;
    hello.worker_index = 1;
    hello.num_workers = 2;
    if (!write_frame(conn.value(), MsgType::kHello, encode_hello(hello))) {
      return;
    }
    // Welcome, then up to the first TrainRequest (or the run's end).
    Frame frame;
    while (read_frame(conn.value(), frame, kDefaultMaxPayload, 30000) ==
               FrameStatus::kOk &&
           frame.type != MsgType::kTrainRequest &&
           frame.type != MsgType::kBye) {
    }
  });  // the connection closes here
  server_thread.join();
  real_worker.join();
  lost_worker.join();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(telemetry::global_registry()
                .counter("fl.net.disconnects_total")
                .value(),
            1);

  // Replay each round's cohort and retry spares from the seed: worker 1
  // gets the odd runnable positions of each attempt, spares included.
  const fl::Federation fed(
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmoke),
      d.total_clients, d.local_iterations, {}, d.seed);
  std::int64_t lost = 0, retried = 0;
  for (std::int64_t t = 0; t < d.rounds; ++t) {
    Rng sample_rng =
        fed.round_rng.fork("sample", static_cast<std::uint64_t>(t));
    const std::vector<std::size_t> chosen =
        sample_rng.sample_without_replacement(
            static_cast<std::size_t>(d.total_clients),
            static_cast<std::size_t>(d.clients_per_round));
    std::vector<std::size_t> spare;
    for (std::size_t ci = 0; ci < static_cast<std::size_t>(d.total_clients);
         ++ci) {
      if (std::find(chosen.begin(), chosen.end(), ci) == chosen.end()) {
        spare.push_back(ci);
      }
    }
    const auto odd_positions = [](const std::vector<std::size_t>& attempt) {
      return static_cast<std::int64_t>(attempt.size() / 2);
    };
    const std::int64_t lost_primary = odd_positions(chosen);
    ASSERT_GT(lost_primary, 0) << "worker 1 gets no client in round " << t;
    Rng retry_rng = fed.round_rng.fork("retry", static_cast<std::uint64_t>(t));
    retry_rng.shuffle(spare);
    spare.resize(static_cast<std::size_t>(lost_primary));
    lost += lost_primary + odd_positions(spare);
    retried += lost_primary;
  }

  const fl::RoundFailureStats& f = report.failures;
  EXPECT_EQ(f.injected_crash, lost);
  EXPECT_EQ(f.fault_expired, lost);
  EXPECT_EQ(f.injected_total(), f.injected_crash);
  EXPECT_EQ(f.faults_resolved_total(), f.injected_total());
  EXPECT_EQ(f.rejected_total(), 0);
  EXPECT_EQ(f.retried_clients, retried);
  EXPECT_GT(f.retried_clients, 0);
  EXPECT_EQ(report.updates_accepted,
            d.rounds * d.clients_per_round + retried - lost);
  EXPECT_EQ(report.dropped_rounds, 0);
  EXPECT_EQ(report.reduced_quorum_rounds, d.rounds);
}

// The async engine over real sockets (PROTOCOL.md §5.3): every round
// completes, every update folds in, and the ledger balances.
TEST(NetServing, AsyncEngineCompletesWithBalancedLedger) {
  const ExperimentDescriptor d = sample_descriptor();
  ServingOptions options;
  options.num_workers = 2;
  options.async_mode = true;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();
  const ServingReport report = run_with_workers(*server.value(), 2);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.completed_rounds, d.rounds);
  EXPECT_EQ(report.dropped_rounds, 0);
  EXPECT_GT(report.async_applies, 0);
  EXPECT_EQ(report.updates_accepted, d.rounds * d.clients_per_round);
  EXPECT_EQ(report.failures.faults_resolved_total(),
            report.failures.injected_total());
  EXPECT_EQ(report.failures.rejected_total(), 0);
  EXPECT_EQ(report.round_ms.size(), static_cast<std::size_t>(d.rounds));
  for (const auto& t : report.final_weights) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(t.data()[i]));
    }
  }
}

// PROTOCOL.md §5.3 with one worker and a window no reply misses: the
// worker answers in cohort order, so async serving folds exactly what
// in-process async folds, in the same order, and the two runs end
// bitwise equal under every policy the wire carries.
TEST(NetServing, AsyncSingleWorkerBitwiseParityWithInProcessEngine) {
  for (const PolicyId policy :
       {PolicyId::kFedCdp, PolicyId::kFedSdp, PolicyId::kNonPrivate}) {
    SCOPED_TRACE(policy_id_name(policy));
    ExperimentDescriptor d = sample_descriptor();
    d.policy = policy;
    d.total_clients = 8;
    d.clients_per_round = 4;
    d.rounds = 6;
    d.seed = 97;
    ServingOptions options;
    options.num_workers = 1;
    options.async_mode = true;
    options.async_round_wait_ms = 60000;
    Result<std::unique_ptr<ServingServer>> server =
        ServingServer::create(d, options);
    ASSERT_TRUE(server.ok()) << server.error();
    const ServingReport report = run_with_workers(*server.value(), 1);
    ASSERT_TRUE(report.ok) << report.error;
    const std::vector<double> served_budget =
        recorded_budget(telemetry::global_registry().snapshot());
    // The serial schedule folds in cohort order on every build.
    const fl::FlRunResult in_process =
        run_in_process(d, options, /*parallel_clients=*/false);

    EXPECT_EQ(fl::serialize_tensor_list(report.final_weights),
              fl::serialize_tensor_list(in_process.final_weights))
        << "async serving diverged from the in-process async engine";
    // The budget depends on the config, not the engine: the same series
    // and delta, or none at all for the policy that adds no noise.
    EXPECT_EQ(served_budget.size(), policy == PolicyId::kNonPrivate
                                        ? 0u
                                        : static_cast<std::size_t>(
                                              4 * d.rounds + 1));
    EXPECT_EQ(served_budget, recorded_budget(in_process.telemetry));
    expect_same_ledger(report.failures, in_process.total_failures);
    EXPECT_EQ(report.async_applies, in_process.async_applies);
    EXPECT_EQ(report.dropped_rounds, in_process.dropped_rounds);
    EXPECT_EQ(report.reduced_quorum_rounds, in_process.reduced_quorum_rounds);
    EXPECT_EQ(report.updates_accepted, d.rounds * d.clients_per_round);
    EXPECT_EQ(report.updates_accepted, in_process.updates_accepted);
    EXPECT_EQ(report.updates_accepted,
              series_sum(in_process, "fl.round.accepted"));
  }
}

// A stub worker that trains nothing: it answers every client of each
// TrainRequest with a TrainError frame, `delay` after the request
// arrived, in request order. It returns when the server says Bye
// (recorded in `ended_on_bye`) or the connection fails.
struct StubWorker {
  int index = 0;
  int count = 1;  // the roster size it announces
  std::chrono::milliseconds delay{0};
  std::atomic<int> answered{0};  // requests answered
  std::atomic<bool> ended_on_bye{false};
  // Every TrainRequest's client ids, in arrival order; read it only
  // after the stub's thread has joined.
  std::vector<std::vector<std::int64_t>> requests;
};

void run_train_error_worker(int port, StubWorker& stub) {
  using Clock = std::chrono::steady_clock;
  Result<TcpConn> conn = TcpConn::connect("127.0.0.1", port, 5000);
  if (!conn.ok()) return;
  HelloMsg hello;
  hello.worker_index = static_cast<std::uint32_t>(stub.index);
  hello.num_workers = static_cast<std::uint32_t>(stub.count);
  Frame frame;
  if (!write_frame(conn.value(), MsgType::kHello, encode_hello(hello)) ||
      read_frame(conn.value(), frame, kDefaultMaxPayload, 5000) !=
          FrameStatus::kOk ||
      frame.type != MsgType::kWelcome) {
    return;
  }
  // Replies owed, oldest first, each with the time it is due.
  std::deque<std::pair<Clock::time_point, std::vector<std::int64_t>>> owed;
  for (;;) {
    const auto until_due =
        owed.empty() ? std::chrono::milliseconds(30000)
                     : std::chrono::duration_cast<std::chrono::milliseconds>(
                           owed.front().first - Clock::now());
    if (conn.value().readable(
            static_cast<int>(std::max<std::int64_t>(0, until_due.count())))) {
      if (read_frame(conn.value(), frame, kDefaultMaxPayload, 5000) !=
          FrameStatus::kOk) {
        return;
      }
      if (frame.type == MsgType::kBye) {
        stub.ended_on_bye = true;
        return;
      }
      Result<TrainRequestMsg> req = decode_train_request(frame.payload);
      if (frame.type != MsgType::kTrainRequest || !req.ok()) return;
      stub.requests.push_back(req.value().client_ids);
      owed.emplace_back(Clock::now() + stub.delay, req.value().client_ids);
      continue;
    }
    if (owed.empty()) return;
    for (std::int64_t ci : owed.front().second) {
      TrainErrorMsg err;
      err.client_id = ci;
      err.message = "stub worker";
      if (!write_frame(conn.value(), MsgType::kTrainError,
                       encode_train_error(err))) {
        return;
      }
    }
    owed.pop_front();
    ++stub.answered;
  }
}

// A worker that answers every client with TrainError, on the sync
// engine (PROTOCOL.md §6): every client, the retry pass's spares
// included, is booked as an injected crash that expired, every round
// misses quorum, and the worker keeps its connection until Bye.
TEST(NetServing, TrainErrorRepliesExpireAsCrashesAndKeepTheWorker) {
  const ExperimentDescriptor d = sample_descriptor();
  ServingOptions options;
  options.num_workers = 1;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();
  StubWorker stub;
  std::thread stub_thread([&, port = server.value()->port()] {
    run_train_error_worker(port, stub);
  });
  const ServingReport report = server.value()->run();
  stub_thread.join();
  ASSERT_TRUE(report.ok) << report.error;

  EXPECT_EQ(telemetry::global_registry()
                .counter("fl.net.disconnects_total")
                .value(),
            0);
  EXPECT_EQ(report.frames_rejected, 0);
  EXPECT_TRUE(stub.ended_on_bye.load()) << "the worker lost its connection";
  const fl::RoundFailureStats& f = report.failures;
  EXPECT_GT(f.retried_clients, 0);
  EXPECT_EQ(f.injected_crash,
            d.rounds * d.clients_per_round + f.retried_clients);
  EXPECT_EQ(f.injected_total(), f.injected_crash);
  EXPECT_EQ(f.fault_expired, f.injected_total());
  EXPECT_EQ(f.faults_resolved_total(), f.injected_total());
  EXPECT_EQ(f.rejected_total(), 0);
  EXPECT_EQ(f.quorum_missed, d.rounds);
  EXPECT_EQ(report.updates_accepted, 0);
  EXPECT_EQ(report.dropped_rounds, d.rounds);
  // One request per round, and one more per retry pass.
  EXPECT_EQ(stub.answered.load(), 2 * d.rounds);
}

// A healthy worker slower than the staleness horizon (PROTOCOL.md §5.3).
// The stub answers each TrainRequest with TrainError frames 120 ms after
// it arrives, while a round waits 50 ms and max_staleness is 0: every
// client expires as a straggler when its round passes the horizon, and
// the reply that comes later is read and dropped, never taken for a
// protocol violation. The worker stays connected until Bye.
TEST(NetServing, AsyncHorizonExpiryKeepsSlowWorker) {
  ExperimentDescriptor d = sample_descriptor();
  d.total_clients = 16;
  d.clients_per_round = 2;
  d.rounds = 10;
  ServingOptions options;
  options.num_workers = 1;
  options.async_mode = true;
  options.async.max_staleness = 0;
  options.async_round_wait_ms = 50;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();

  StubWorker slow;
  slow.delay = std::chrono::milliseconds(120);
  std::thread slow_worker([&, port = server.value()->port()] {
    run_train_error_worker(port, slow);
  });
  const ServingReport report = server.value()->run();
  slow_worker.join();
  ASSERT_TRUE(report.ok) << report.error;

  telemetry::Registry& reg = telemetry::global_registry();
  EXPECT_EQ(reg.counter("fl.net.disconnects_total").value(), 0);
  EXPECT_EQ(report.frames_rejected, 0);
  EXPECT_TRUE(slow.ended_on_bye.load())
      << "the slow worker lost its connection";
  // Not vacuous: replies came after their clients expired, and were read.
  EXPECT_GT(slow.answered.load(), 0);
  EXPECT_GT(reg.counter("fl.net.frames_received_total").value(), 0);
  const fl::RoundFailureStats& f = report.failures;
  EXPECT_GT(f.injected_straggler, 0);
  EXPECT_EQ(f.injected_straggler + f.injected_crash,
            d.rounds * d.clients_per_round);
  EXPECT_EQ(f.faults_resolved_total(), f.injected_total());
  EXPECT_EQ(f.fault_expired, f.injected_total());
  EXPECT_EQ(report.updates_accepted, 0);
}

// Two stub workers record every TrainRequest (PROTOCOL.md §1): the
// k-th runnable client of an attempt goes to worker k mod 2, whatever
// its id, so each request carries ceil(m/2) or floor(m/2) of the
// attempt's m clients. Every client answers TrainError, so each round
// runs its cohort and then a retry pass over as many spares.
TEST(NetServing, TwoWorkersSplitEveryAttemptEvenly) {
  ExperimentDescriptor d = sample_descriptor();
  d.total_clients = 16;
  d.clients_per_round = 5;
  d.rounds = 4;
  ServingOptions options;
  options.num_workers = 2;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();
  std::vector<StubWorker> stubs(2);
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    stubs[static_cast<std::size_t>(w)].index = w;
    stubs[static_cast<std::size_t>(w)].count = 2;
    threads.emplace_back([&, w, port = server.value()->port()] {
      run_train_error_worker(port, stubs[static_cast<std::size_t>(w)]);
    });
  }
  const ServingReport report = server.value()->run();
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(report.ok) << report.error;

  // Replay each round's attempts from the seed: the cohort, then the
  // retry pass's spares, one per client that failed.
  const fl::Federation fed(
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmoke),
      d.total_clients, d.local_iterations, {}, d.seed);
  std::vector<std::size_t> next(2, 0);  // each stub's next request
  std::int64_t sent = 0;
  bool uneven_parity = false;
  for (std::int64_t t = 0; t < d.rounds; ++t) {
    Rng sample_rng =
        fed.round_rng.fork("sample", static_cast<std::uint64_t>(t));
    const std::vector<std::size_t> chosen =
        sample_rng.sample_without_replacement(
            static_cast<std::size_t>(d.total_clients),
            static_cast<std::size_t>(d.clients_per_round));
    std::vector<std::size_t> spare;
    for (std::size_t ci = 0; ci < static_cast<std::size_t>(d.total_clients);
         ++ci) {
      if (std::find(chosen.begin(), chosen.end(), ci) == chosen.end()) {
        spare.push_back(ci);
      }
    }
    Rng retry_rng = fed.round_rng.fork("retry", static_cast<std::uint64_t>(t));
    retry_rng.shuffle(spare);
    spare.resize(chosen.size());
    for (const std::vector<std::size_t>& attempt : {chosen, spare}) {
      const std::size_t m = attempt.size();
      std::vector<std::vector<std::int64_t>> expected(2);
      std::size_t odd_ids = 0;
      for (std::size_t k = 0; k < m; ++k) {
        expected[k % 2].push_back(static_cast<std::int64_t>(attempt[k]));
        odd_ids += attempt[k] % 2;
      }
      // Splitting by id parity would give worker 1 odd_ids clients.
      if (odd_ids != m / 2 && odd_ids != (m + 1) / 2) uneven_parity = true;
      for (std::size_t w = 0; w < 2; ++w) {
        SCOPED_TRACE(::testing::Message() << "round " << t << " worker " << w);
        ASSERT_LT(next[w], stubs[w].requests.size());
        const std::vector<std::int64_t>& got = stubs[w].requests[next[w]++];
        EXPECT_EQ(got.size(), w == 0 ? (m + 1) / 2 : m / 2);
        EXPECT_EQ(got, expected[w]);
      }
      sent += static_cast<std::int64_t>(m);
    }
  }
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(next[w], stubs[w].requests.size()) << "worker " << w;
    EXPECT_TRUE(stubs[w].ended_on_bye.load()) << "worker " << w;
  }
  // Not vacuous: some attempt's ids split unevenly by parity.
  EXPECT_TRUE(uneven_parity);
  EXPECT_EQ(report.failures.injected_crash, sent);
  EXPECT_EQ(report.failures.fault_expired, sent);
  EXPECT_EQ(report.updates_accepted, 0);
}

// The worker half against a scripted server: worker 0 of two trains an
// odd id and an even one, each update bitwise the in-process engine's,
// answers an id outside [0, K) with TrainError, and keeps its
// connection: the next request is served too.
TEST(NetServing, WorkerTrainsAnyIdAndRefusesOutOfRange) {
  const ExperimentDescriptor d = sample_descriptor();
  Result<TcpListener> listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok()) << listener.error();
  std::optional<Result<WorkerReport>> report;
  std::jthread worker([&report, port = listener.value().port()] {
    WorkerConfig config;
    config.port = port;
    config.worker_index = 0;
    config.num_workers = 2;
    config.io_timeout_ms = 10000;
    report.emplace(run_worker(config));
  });
  TcpConn conn = listener.value().accept(5000);
  ASSERT_TRUE(conn.valid());
  Frame frame;
  ASSERT_EQ(read_frame(conn, frame, kDefaultMaxPayload, 5000),
            FrameStatus::kOk);
  ASSERT_EQ(frame.type, MsgType::kHello);
  ASSERT_TRUE(write_frame(conn, MsgType::kWelcome, encode_descriptor(d)));

  const fl::Federation fed(
      data::benchmark_config(data::BenchmarkId::kCancer, BenchScale::kSmoke),
      d.total_clients, d.local_iterations, {}, d.seed);
  const std::unique_ptr<core::PrivacyPolicy> policy = make_policy(d);
  const fl::TensorList weights = fed.model->weights();
  const auto request = [&](std::int64_t round,
                           std::vector<std::int64_t> ids) {
    TrainRequestMsg req;
    req.round = round;
    req.client_ids = std::move(ids);
    req.weights_blob = fl::serialize_tensor_list(weights);
    return write_frame(conn, MsgType::kTrainRequest,
                       encode_train_request(req));
  };
  const auto expect_update = [&](std::int64_t round, std::int64_t id) {
    SCOPED_TRACE(::testing::Message() << "client " << id);
    Frame reply;
    ASSERT_EQ(read_frame(conn, reply, kDefaultMaxPayload, 10000),
              FrameStatus::kOk);
    ASSERT_EQ(reply.type, MsgType::kUpdate);
    Result<UpdateMsg> msg = decode_update(reply.payload);
    ASSERT_TRUE(msg.ok()) << msg.error();
    EXPECT_EQ(msg.value().client_id, id);
    const fl::DeliveryContext ctx{.provider = fed.provider,
                                  .round_rng = fed.round_rng,
                                  .policy = *policy,
                                  .weights = weights,
                                  .seed = d.seed,
                                  .round = round,
                                  .prune_ratio = d.prune_ratio,
                                  .max_attempts = 1};
    EXPECT_EQ(msg.value().sealed,
              fl::seal_update(d.seed, id,
                              fl::train_client(ctx, id, *fed.model).update));
  };

  ASSERT_TRUE(request(0, {1, 2, d.total_clients}));
  expect_update(0, 1);
  expect_update(0, 2);
  ASSERT_EQ(read_frame(conn, frame, kDefaultMaxPayload, 10000),
            FrameStatus::kOk);
  ASSERT_EQ(frame.type, MsgType::kTrainError);
  Result<TrainErrorMsg> err = decode_train_error(frame.payload);
  ASSERT_TRUE(err.ok()) << err.error();
  EXPECT_EQ(err.value().client_id, d.total_clients);
  ASSERT_TRUE(request(1, {3}));
  expect_update(1, 3);
  ASSERT_TRUE(write_frame(conn, MsgType::kBye, nullptr, 0));
  worker.join();
  ASSERT_TRUE(report.has_value());
  ASSERT_TRUE(report->ok()) << report->error();
  EXPECT_EQ(report->value().rounds_served, 2);
  EXPECT_EQ(report->value().clients_trained, 3);
}

// Collects every span event the registry emits during a run. write()
// is called under the registry's sink lock, so no extra locking.
class SpanCollector final : public telemetry::Sink {
 public:
  explicit SpanCollector(std::vector<telemetry::Event>* out) : out_(out) {}
  void write(const telemetry::Event& event) override {
    if (event.kind == telemetry::Event::Kind::kSpan) out_->push_back(event);
  }

 private:
  std::vector<telemetry::Event>* out_;
};

TEST(NetServing, TraceContextPropagatesEndToEndWithZeroOrphans) {
  for (const bool async_mode : {false, true}) {
    SCOPED_TRACE(async_mode ? "async" : "sync");
    const ExperimentDescriptor d = sample_descriptor();
    ServingOptions options;
    options.num_workers = 2;
    options.async_mode = async_mode;
    Result<std::unique_ptr<ServingServer>> server =
        ServingServer::create(d, options);
    ASSERT_TRUE(server.ok()) << server.error();

    telemetry::Registry& reg = telemetry::global_registry();
    reg.clear_sinks();
    std::vector<telemetry::Event> spans;
    reg.add_sink(std::make_unique<SpanCollector>(&spans));
    ServingReport report = run_with_workers(*server.value(), 2);
    reg.clear_sinks();
    ASSERT_TRUE(report.ok) << report.error;

    // Index the traced spans: every round's spans (server- and
    // worker-side alike) must carry the deterministic (seed, round)
    // trace id, and every parent id must resolve — zero orphans.
    std::unordered_map<std::uint64_t, const telemetry::Event*> by_id;
    std::int64_t traced = 0, client_round_spans = 0;
    for (const telemetry::Event& e : spans) {
      if (e.span_id != 0) by_id[e.span_id] = &e;
    }
    for (const telemetry::Event& e : spans) {
      if (e.span_id == 0) continue;
      ++traced;
      ASSERT_GE(e.step, 0) << e.name;
      const telemetry::TraceContext root =
          telemetry::round_trace_root(d.seed, e.step);
      EXPECT_EQ(e.trace_hi, root.trace_hi) << e.name << " @" << e.step;
      EXPECT_EQ(e.trace_lo, root.trace_lo) << e.name << " @" << e.step;
      if (e.parent_span != 0) {
        EXPECT_TRUE(by_id.count(e.parent_span))
            << "orphan span " << e.name << " @" << e.step;
      }
      if (e.name == "fl.client.round") {
        ++client_round_spans;
        // The worker adopted the context off the wire: its parent is
        // the server's local_train phase of the same round, flagged
        // remote.
        EXPECT_TRUE(e.parent_remote);
        const auto parent = by_id.find(e.parent_span);
        ASSERT_NE(parent, by_id.end()) << "@" << e.step;
        EXPECT_EQ(parent->second->name, "fl.phase") << "@" << e.step;
        EXPECT_EQ(parent->second->labels,
                  (telemetry::Labels{{"phase", "local_train"}}))
            << "@" << e.step;
        EXPECT_EQ(parent->second->step, e.step);
      }
    }
    EXPECT_GT(traced, 0);
    EXPECT_GT(client_round_spans, 0)
        << "no worker-side spans joined the server's traces";
  }
}

TEST(NetServing, SurvivesMalformedAndSurplusConnections) {
  const ExperimentDescriptor d = sample_descriptor();
  ServingOptions options;
  options.num_workers = 2;
  Result<std::unique_ptr<ServingServer>> server =
      ServingServer::create(d, options);
  ASSERT_TRUE(server.ok()) << server.error();
  const int port = server.value()->port();

  // Adversarial traffic runs for the whole round loop, racing the real
  // workers: raw garbage, an oversized claim, a shape-mismatched
  // Hello (refused Busy), and a connect-then-slam.
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Result<TcpConn> conn = TcpConn::connect("127.0.0.1", port, 500);
      if (!conn.ok()) continue;
      switch (i++ % 4) {
        case 0: {
          const std::uint8_t garbage[8] = {0xff, 0xee, 0xdd};
          conn.value().send_all(garbage, sizeof(garbage));
          break;
        }
        case 1: {
          const auto h = raw_header(
              kFrameMagic, kProtocolVersion,
              static_cast<std::uint8_t>(MsgType::kHello), 0xfffffff0u);
          conn.value().send_all(h.data(), h.size());
          break;
        }
        case 2: {
          HelloMsg hello;
          hello.worker_index = 0;
          hello.num_workers = 5;  // server expects 2: refused Busy
          write_frame(conn.value(), MsgType::kHello, encode_hello(hello));
          Frame reply;
          read_frame(conn.value(), reply, kDefaultMaxPayload, 1000);
          break;
        }
        case 3:
          break;  // connect and immediately slam the connection
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ServingReport report = run_with_workers(*server.value(), 2);
  stop.store(true, std::memory_order_relaxed);
  chaos.join();

  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.completed_rounds, d.rounds);
  EXPECT_EQ(report.updates_accepted, d.rounds * d.clients_per_round);
  // The adversarial connections were screened, not crashed on.
  EXPECT_GT(report.busy_rejected + report.frames_rejected, 0);
}

}  // namespace
}  // namespace fedcl::net
