// Multi-process federated serving: the server half.
//
// ServingServer is the socket-facing sibling of fl::run_experiment. It
// binds a loopback TCP port, admits exactly `num_workers` fedcl_client
// processes (everyone else gets Busy — that refusal is the admission
// control the load-gen bench hammers), ships each the resolved
// ExperimentDescriptor, and then hands the run to the call the
// in-process trainer makes, fl::run_federation, with a socket executor:
// the train phase becomes TrainRequest/Update frames over real
// connections, and each worker's replies are matched, in request order,
// against one FIFO of the replies it owes. This file keeps admission,
// roster and transport; the run setup, its privacy budget included, and
// the rounds are the engine's.
//
// Determinism contract (docs/PROTOCOL.md §5): in the synchronous
// engine, with no faults, every RNG stream the round consumes
// (sampling, client training, aggregation noise) is forked by label
// from the shared seed, updates are re-assembled in cohort order
// before aggregation, and weights travel as exact f32 bytes — so the
// final model state is BITWISE identical to fl::run_experiment at the
// same seed and configuration. The asynchronous engine folds the
// updates that land within a real-time window in the order they are
// read, tolerates workers running rounds behind (staleness decay;
// expiry past the horizon keeps the worker), and withholds dispatches
// from workers `max_inflight_rounds` behind. With one worker, read
// order is cohort order and the run matches in-process async bit for
// bit; with several it follows real arrival order, the determinism
// boundary DESIGN.md §5 states.
//
// Real network events reuse the fault-disposition ledger: a recv
// deadline miss is an injected straggler that expired, a disconnect an
// injected crash that expired, a malformed frame or unopenable payload
// a decode rejection — so chaos-soak invariants and telemetry carry
// over unchanged (docs/PROTOCOL.md §6).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/accounting.h"
#include "fl/fault_injection.h"
#include "fl/trainer.h"
#include "fl/update_screening.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fedcl::net {

struct ServingOptions {
  int port = 0;         // 0 = ephemeral (resolved via port())
  int num_workers = 2;  // admitted connections; the rest get Busy
  // Deadline for the full worker roster to connect and handshake.
  int accept_timeout_ms = 30000;
  // Per-frame receive deadline (> 0); a worker that misses it is lost
  // and its clients expire as stragglers.
  int io_timeout_ms = 20000;
  std::size_t max_frame_bytes = kDefaultMaxPayload;

  // Server-side experiment knobs not part of the wire descriptor
  // (they do not affect what workers compute).
  std::int64_t eval_every = 0;  // <= 0: final round only
  std::int64_t min_reporting = 1;
  std::int64_t reduced_min_reporting = 0;
  double server_momentum = 0.0;
  fl::ScreeningConfig screening;

  // Asynchronous engine (overlapping rounds).
  bool async_mode = false;
  fl::AsyncAggregatorConfig async;
  // Backpressure window (>= 1): a worker owing replies for this many
  // rounds is not dispatched to; its cohort slots expire as stragglers.
  int max_inflight_rounds = 2;
  // How long one async round waits for its own updates before moving
  // on and letting them arrive stale.
  int async_round_wait_ms = 5000;
};

struct ServingReport {
  bool ok = false;
  std::string error;  // set when !ok

  double final_accuracy = 0.0;
  tensor::list::TensorList final_weights;
  std::int64_t rounds = 0;
  std::int64_t completed_rounds = 0;
  std::int64_t dropped_rounds = 0;
  std::int64_t reduced_quorum_rounds = 0;
  std::int64_t async_applies = 0;
  std::int64_t updates_accepted = 0;
  std::int64_t updates_rejected = 0;
  // Aggregated fault-disposition ledger (network events mapped onto
  // the same taxonomy the in-process engines use).
  fl::RoundFailureStats failures;
  // Admission control: connections refused with Busy (roster full,
  // bad handshake) and frames dropped for framing violations.
  std::int64_t busy_rejected = 0;
  std::int64_t frames_rejected = 0;
  // Per-round wall-clock (sampling to epilogue), for the bench's p99.
  std::vector<double> round_ms;
  // The run's inputs to core::account_privacy (fl::FlRunResult's).
  core::FlPrivacySetup privacy_setup;
};

class ServingServer {
 public:
  // Validates the descriptor, the transport options, and the experiment
  // they map to (fl::validate_config), then binds. Fails, never throws.
  static Result<std::unique_ptr<ServingServer>> create(
      ExperimentDescriptor descriptor, ServingOptions options);

  ServingServer(const ServingServer&) = delete;
  ServingServer& operator=(const ServingServer&) = delete;

  int port() const { return listener_.port(); }

  // Blocks until the run completes (or fails to start). Admission of
  // surplus connections keeps running for the whole call; the accept
  // thread stops on every exit, so an exception reaches the caller.
  ServingReport run();

 private:
  ServingServer(ExperimentDescriptor descriptor, ServingOptions options,
                TcpListener listener);

  ExperimentDescriptor descriptor_;
  ServingOptions options_;
  TcpListener listener_;
};

}  // namespace fedcl::net
