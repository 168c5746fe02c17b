// Message payloads of the serving protocol (docs/PROTOCOL.md §3) and
// their bounds-checked codecs.
//
// The Welcome descriptor is the protocol's "one source of truth": the
// server resolves the full experiment configuration (benchmark, scale,
// policy, seed, round budget) once and ships it to every worker, so a
// worker reconstructs bit-identical datasets, models, and RNG streams
// from the descriptor alone — no local flags or environment consulted.
// Decoders return Result<T> and never trust a length or count field.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/policy.h"
#include "data/benchmarks.h"

namespace fedcl::net {

// Policy identifiers on the wire (docs/PROTOCOL.md §3.3).
enum class PolicyId : std::uint8_t {
  kNonPrivate = 0,
  kFedSdp = 1,
  kFedCdp = 2,
  kFedCdpDecay = 3,
};

const char* policy_id_name(PolicyId id);
// Parses the fl_simulator policy-name vocabulary; fails on unknown
// names and on dssgd, which has no id here.
Result<PolicyId> parse_policy_id(const std::string& name);

// client -> server, first frame on every connection.
struct HelloMsg {
  std::uint32_t worker_index = 0;
  std::uint32_t num_workers = 0;
};

// server -> client: the resolved experiment. Everything a worker needs
// to rebuild its shards, model, policy, and RNG streams.
struct ExperimentDescriptor {
  std::uint8_t bench_id = 0;   // data::BenchmarkId
  std::uint8_t scale = 0;      // BenchScale
  PolicyId policy = PolicyId::kFedCdp;
  std::int64_t total_clients = 0;
  std::int64_t clients_per_round = 0;
  std::int64_t rounds = 0;            // effective (already resolved)
  std::int64_t local_iterations = 0;  // effective (already resolved)
  double prune_ratio = 0.0;
  double clip = 4.0;
  double sigma = 6.0;
  std::uint64_t seed = 42;
};

// server -> client: train these clients at this round, starting from
// these global weights (the tensor-list blob of fl/protocol.h). Every
// request ends with the 24-byte trace context (PROTOCOL.md §3.4): the
// server's round span, or all zero from a sender outside any trace.
struct TrainRequestMsg {
  std::int64_t round = 0;
  std::vector<std::int64_t> client_ids;
  std::vector<std::uint8_t> weights_blob;
  std::uint64_t trace_hi = 0;     // 128-bit trace id of the round
  std::uint64_t trace_lo = 0;
  std::uint64_t parent_span = 0;  // the server's round span id
};

// client -> server: one client's sealed update. client_id travels in
// the clear so the server can pick the per-client channel key; the
// sealed bytes carry the authoritative (id, round, delta) inside.
struct UpdateMsg {
  std::int64_t client_id = -1;
  // The client's local shard size. The server never reads it: every
  // update has equal weight (PROTOCOL.md §3.5).
  std::int64_t data_size = 0;
  std::vector<std::uint8_t> sealed;
};

// client -> server: the worker could not produce this client's update.
struct TrainErrorMsg {
  std::int64_t client_id = -1;
  std::string message;
};

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg);
Result<HelloMsg> decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_descriptor(const ExperimentDescriptor& d);
Result<ExperimentDescriptor> decode_descriptor(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_train_request(const TrainRequestMsg& msg);
Result<TrainRequestMsg> decode_train_request(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_update(const UpdateMsg& msg);
Result<UpdateMsg> decode_update(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_train_error(const TrainErrorMsg& msg);
Result<TrainErrorMsg> decode_train_error(
    const std::vector<std::uint8_t>& payload);

// Builds the policy a descriptor names, identically on both ends.
std::unique_ptr<core::PrivacyPolicy> make_policy(
    const ExperimentDescriptor& d);

// Validates the descriptor's enum fields (bench id, scale, policy) and
// basic invariants, a finite clip > 0 and a finite sigma >= 0 among
// them; the decoder calls this, and servers call it on the config they
// are about to announce.
Result<ExperimentDescriptor> validate_descriptor(ExperimentDescriptor d);

}  // namespace fedcl::net
