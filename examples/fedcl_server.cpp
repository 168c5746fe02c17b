// fedcl_server: the server process of the multi-process serving path
// (docs/DEPLOYMENT.md). Binds a loopback TCP port, admits --workers
// fedcl_client processes, and drives the federated round engine over
// real sockets — bitwise identical to the in-process sync engine at
// the same seed (docs/PROTOCOL.md §5).
//
// Examples:
//   fedcl_server --port=7100 --workers=2 --dataset=mnist
//                --policy=fed-cdp --clients=20 --per-round=10
//                --rounds=10 --save=global.ckpt
//   fedcl_server --port=0 --workers=4 --async --metrics-port=9100
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/metrics_http.h"
#include "common/run_info.h"
#include "common/telemetry.h"
#include "data/benchmarks.h"
#include "fl/protocol.h"
#include "net/serving_server.h"
#include "privacy_line.h"

namespace {

using namespace fedcl;

// What --help prints (a printf format, the program name its one
// argument), and the flags the binary accepts.
constexpr char kUsage[] =
    "usage: %s [--port=N] [--workers=N]\n"
    "          [--dataset=mnist|cifar10|lfw|adult|cancer]\n"
    "          [--policy=non-private|fed-sdp|fed-cdp|fed-cdp-decay]\n"
    "          [--clients=K] [--per-round=Kt] [--rounds=T] "
    "[--local-iters=L]\n"
    "          [--sigma=S] [--clip=C] [--prune=R] [--seed=N]\n"
    "          [--eval-every=N] [--min-reporting=N] [--reduced-quorum=N]\n"
    "          [--server-momentum=M] [--screen-max-norm=C]\n"
    "          [--async] [--async-min-apply=M] [--staleness-alpha=A]\n"
    "          [--max-staleness=S] [--max-inflight=N] "
    "[--round-wait-ms=W]\n"
    "          [--accept-timeout-ms=T] [--io-timeout-ms=T]\n"
    "          [--save=FILE.ckpt] [--metrics-port=N]\n"
    "          [--telemetry-out=FILE.jsonl]\n"
    "  --port=0 picks an ephemeral port (printed on stdout).\n";

int run_server(const FlagParser& flags) {
  const std::string telemetry_out = flags.get("telemetry-out", "");
  if (!telemetry_out.empty()) {
    auto sink = std::make_unique<telemetry::JsonlSink>(telemetry_out);
    FEDCL_CHECK(sink->ok()) << "cannot open --telemetry-out file '"
                            << telemetry_out << "'";
    telemetry::global_registry().add_sink(std::move(sink));
  }
  // Ctrl-C on a long run must still leave a complete telemetry file
  // behind (DEPLOYMENT.md §5).
  telemetry::install_crash_flush_handler();
  std::unique_ptr<telemetry::MetricsHttpServer> metrics_server;
  if (flags.has("metrics-port")) {
    const auto port = static_cast<int>(flags.get_int("metrics-port", 0));
    metrics_server = std::make_unique<telemetry::MetricsHttpServer>(
        telemetry::global_registry());
    std::string error;
    FEDCL_CHECK(metrics_server->start(port, &error))
        << "cannot serve --metrics-port=" << port << ": " << error;
    std::printf("fedcl_server: serving http://127.0.0.1:%d/metrics\n",
                metrics_server->port());
  }

  const Result<data::BenchmarkId> bench_id =
      data::parse_benchmark_id(flags.get("dataset", "mnist"));
  if (!bench_id.ok()) {
    std::fprintf(stderr, "fedcl_server: %s\n", bench_id.error().c_str());
    return 1;
  }
  const data::BenchmarkConfig bench = data::benchmark_config(bench_id.value());
  const Result<net::PolicyId> policy_id =
      net::parse_policy_id(flags.get("policy", "fed-cdp"));
  if (!policy_id.ok()) {
    std::fprintf(stderr, "fedcl_server: %s\n", policy_id.error().c_str());
    return 1;
  }

  net::ExperimentDescriptor d;
  d.bench_id = static_cast<std::uint8_t>(bench_id.value());
  d.scale = static_cast<std::uint8_t>(bench_scale());
  d.policy = policy_id.value();
  d.total_clients = flags.get_int("clients", 20);
  d.clients_per_round = flags.get_int("per-round", 10);
  d.rounds = flags.get_int("rounds", 0) > 0 ? flags.get_int("rounds", 0)
                                            : bench.rounds;
  d.local_iterations = flags.get_int("local-iters", 0) > 0
                           ? flags.get_int("local-iters", 0)
                           : bench.local_iterations;
  d.prune_ratio = flags.get_double("prune", 0.0);
  d.sigma = flags.get_double("sigma", data::default_noise_scale());
  d.clip = flags.get_double("clip", data::kDefaultClippingBound);
  d.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(experiment_seed())));

  net::ServingOptions options;
  options.port = static_cast<int>(flags.get_int("port", 0));
  options.num_workers = static_cast<int>(flags.get_int("workers", 2));
  options.accept_timeout_ms =
      static_cast<int>(flags.get_int("accept-timeout-ms", 30000));
  options.io_timeout_ms =
      static_cast<int>(flags.get_int("io-timeout-ms", 20000));
  options.eval_every = flags.get_int("eval-every", 0);
  options.min_reporting = flags.get_int("min-reporting", 1);
  options.reduced_min_reporting = flags.get_int("reduced-quorum", 0);
  options.server_momentum = flags.get_double("server-momentum", 0.0);
  options.screening.max_update_norm =
      flags.get_double("screen-max-norm", 0.0);
  options.async_mode = flags.get_bool("async", false);
  options.async.min_to_apply = flags.get_int("async-min-apply", 0);
  options.async.staleness_alpha = flags.get_double("staleness-alpha", 0.5);
  options.async.max_staleness = flags.get_int("max-staleness", 8);
  options.max_inflight_rounds =
      static_cast<int>(flags.get_int("max-inflight", 2));
  options.async_round_wait_ms =
      static_cast<int>(flags.get_int("round-wait-ms", 5000));

  Result<std::unique_ptr<net::ServingServer>> server =
      net::ServingServer::create(d, options);
  if (!server.ok()) {
    std::fprintf(stderr, "fedcl_server: %s\n", server.error().c_str());
    return 1;
  }

  std::printf("fedcl_server: listening on 127.0.0.1:%d (%s, %s, K=%lld "
              "Kt=%lld T=%lld L=%lld, %d workers, %s engine)\n",
              server.value()->port(), bench.name.c_str(),
              net::policy_id_name(d.policy),
              static_cast<long long>(d.total_clients),
              static_cast<long long>(d.clients_per_round),
              static_cast<long long>(d.rounds),
              static_cast<long long>(d.local_iterations),
              options.num_workers, options.async_mode ? "async" : "sync");
  std::fflush(stdout);

  net::ServingReport report = server.value()->run();
  if (!report.ok) {
    std::fprintf(stderr, "fedcl_server: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("final accuracy %.4f | %lld/%lld rounds completed "
              "(%lld dropped, %lld reduced-quorum)\n",
              report.final_accuracy,
              static_cast<long long>(report.completed_rounds),
              static_cast<long long>(report.rounds),
              static_cast<long long>(report.dropped_rounds),
              static_cast<long long>(report.reduced_quorum_rounds));
  std::printf("updates: %lld accepted, %lld rejected | admission: %lld "
              "busy refusals, %lld frames rejected\n",
              static_cast<long long>(report.updates_accepted),
              static_cast<long long>(report.updates_rejected),
              static_cast<long long>(report.busy_rejected),
              static_cast<long long>(report.frames_rejected));
  const fl::RoundFailureStats& f = report.failures;
  if (f.injected_total() > 0 || f.rejected_total() > 0) {
    std::printf("network faults: %lld stragglers, %lld crashes | "
                "rejected %lld (decode %lld) | expired %lld, "
                "accepted stale %lld\n",
                static_cast<long long>(f.injected_straggler),
                static_cast<long long>(f.injected_crash),
                static_cast<long long>(f.rejected_total()),
                static_cast<long long>(f.rejected_decode),
                static_cast<long long>(f.fault_expired),
                static_cast<long long>(f.fault_accepted_stale));
  }

  const std::string save_path = flags.get("save", "");
  if (!save_path.empty()) {
    fl::save_weights(save_path, report.final_weights);
    std::printf("saved global model to %s\n", save_path.c_str());
  }
  print_privacy_line(*net::make_policy(d), report.privacy_setup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  runinfo::set_command_line(argc, argv);
  FlagParser flags(argc, argv);
  if (flags.has("help")) {
    std::printf(kUsage, flags.program().c_str());
    return 0;
  }
  if (flags.refuse_unlisted(kUsage, "fedcl_server")) return 1;
  try {
    return run_server(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcl_server: %s\n", e.what());
    return 1;
  }
}
