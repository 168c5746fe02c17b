// fedcl_client: one worker process of the multi-process serving path
// (docs/DEPLOYMENT.md). Connects to a fedcl_server, receives the
// experiment descriptor, rebuilds every client's data shard and the
// model from the shared seed, and trains whichever clients the server
// names until it says Bye.
//
// Example (2-worker deployment):
//   fedcl_client --port=7100 --worker-index=0 --workers=2 &
//   fedcl_client --port=7100 --worker-index=1 --workers=2 &
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/run_info.h"
#include "common/telemetry.h"
#include "net/client_worker.h"

namespace {

using namespace fedcl;

// What --help prints (a printf format, the program name its one
// argument), and the flags the binary accepts.
constexpr char kUsage[] =
    "usage: %s --port=N [--host=ADDR] [--worker-index=I] [--workers=N]\n"
    "          [--connect-timeout-ms=T] [--io-timeout-ms=T]\n"
    "          [--telemetry-out=FILE.jsonl]\n"
    "  Trains whichever of the run's clients the server sends; the\n"
    "  server splits each round's cohort evenly over the workers.\n"
    "  The spans in --telemetry-out adopt the server's per-round trace\n"
    "  ids (docs/PROTOCOL.md §3.4).\n";

}  // namespace

int main(int argc, char** argv) {
  runinfo::set_command_line(argc, argv);
  FlagParser flags(argc, argv);
  if (flags.has("help")) {
    std::printf(kUsage, flags.program().c_str());
    return 0;
  }
  if (flags.refuse_unlisted(kUsage, "fedcl_client")) return 1;
  if (!flags.has("port")) {
    std::fprintf(stderr, "fedcl_client: --port is required\n");
    std::printf(kUsage, flags.program().c_str());
    return 1;
  }
  const std::string telemetry_out = flags.get("telemetry-out", "");
  if (!telemetry_out.empty()) {
    auto sink = std::make_unique<telemetry::JsonlSink>(telemetry_out);
    FEDCL_CHECK(sink->ok()) << "cannot open --telemetry-out file '"
                            << telemetry_out << "'";
    telemetry::global_registry().add_sink(std::move(sink));
  }
  telemetry::install_crash_flush_handler();
  net::WorkerConfig config;
  config.host = flags.get("host", "127.0.0.1");
  config.port = static_cast<int>(flags.get_int("port", 0));
  config.worker_index = static_cast<int>(flags.get_int("worker-index", 0));
  config.num_workers = static_cast<int>(flags.get_int("workers", 1));
  config.connect_timeout_ms =
      static_cast<int>(flags.get_int("connect-timeout-ms", 10000));
  config.io_timeout_ms =
      static_cast<int>(flags.get_int("io-timeout-ms", 60000));
  try {
    Result<net::WorkerReport> report = net::run_worker(config);
    if (!report.ok()) {
      std::fprintf(stderr, "fedcl_client: %s\n", report.error().c_str());
      return 1;
    }
    std::printf("fedcl_client: done — served %lld rounds, trained %lld "
                "client updates\n",
                static_cast<long long>(report.value().rounds_served),
                static_cast<long long>(report.value().clients_trained));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcl_client: %s\n", e.what());
    return 1;
  }
}
