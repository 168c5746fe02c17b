// Multi-process federated serving: the worker half.
//
// run_worker connects to a ServingServer, introduces itself with
// Hello, and rebuilds the entire client-side experiment state — the
// synthetic training data, the non-IID partition of all K clients, the
// scratch model, and the privacy policy — from the Welcome descriptor
// alone, so it can train any client id in [0, K): the server decides
// which worker trains which client, one attempt at a time. It then
// serves TrainRequest frames until Bye: each request carries the round
// and the global weights; the worker trains each named client from its
// (round, client)-forked RNG stream and replies with one sealed Update
// frame per client, in request order, or a TrainError for an id
// outside [0, K). Because every RNG stream is forked by label from the
// shared seed, the updates are bitwise identical to the ones the
// in-process trainer would produce, whichever worker trains them
// (docs/PROTOCOL.md §5).
#pragma once

#include <cstdint>
#include <string>

#include "common/error.h"

namespace fedcl::net {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  int worker_index = 0;
  int num_workers = 1;
  // Connect deadline; also bounds waiting for the Welcome.
  int connect_timeout_ms = 10000;
  // Per-frame receive deadline while idle between rounds. The server
  // drives the cadence, so this is the "server went away" detector.
  int io_timeout_ms = 60000;
};

struct WorkerReport {
  std::int64_t rounds_served = 0;    // TrainRequest frames handled
  std::int64_t clients_trained = 0;  // Update frames sent
};

// Blocks until the server says Bye (success), refuses admission with
// Busy, or the connection fails. Never throws on network input.
Result<WorkerReport> run_worker(const WorkerConfig& config);

}  // namespace fedcl::net
