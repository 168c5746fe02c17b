#include "net/wire.h"

#include <cmath>

#include "fl/protocol.h"

namespace fedcl::net {

namespace {

using fl::append_pod;
using fl::ByteReader;

// Caps on untrusted count fields, far above any real workload.
constexpr std::uint32_t kMaxClientsPerRequest = 1u << 20;
constexpr std::uint32_t kMaxStringBytes = 4096;
constexpr std::uint32_t kMaxBlobBytes = 256u << 20;

}  // namespace

const char* policy_id_name(PolicyId id) {
  switch (id) {
    case PolicyId::kNonPrivate:
      return "non-private";
    case PolicyId::kFedSdp:
      return "fed-sdp";
    case PolicyId::kFedCdp:
      return "fed-cdp";
    case PolicyId::kFedCdpDecay:
      return "fed-cdp-decay";
  }
  return "unknown";
}

Result<PolicyId> parse_policy_id(const std::string& name) {
  using R = Result<PolicyId>;
  if (name == "non-private") return PolicyId::kNonPrivate;
  if (name == "fed-sdp") return PolicyId::kFedSdp;
  if (name == "fed-cdp") return PolicyId::kFedCdp;
  if (name == "fed-cdp-decay") return PolicyId::kFedCdpDecay;
  if (name == "dssgd") {
    return R::failure("policy 'dssgd' has no policy id on the wire, so it "
                      "cannot be served (servable: non-private|fed-sdp|"
                      "fed-cdp|fed-cdp-decay)");
  }
  return R::failure("unknown policy '" + name +
                    "' (non-private|fed-sdp|fed-cdp|fed-cdp-decay)");
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg) {
  std::vector<std::uint8_t> out;
  append_pod(out, msg.worker_index);
  append_pod(out, msg.num_workers);
  return out;
}

Result<HelloMsg> decode_hello(const std::vector<std::uint8_t>& payload) {
  using R = Result<HelloMsg>;
  ByteReader r(payload);
  HelloMsg msg;
  if (!r.read(msg.worker_index) || !r.read(msg.num_workers)) {
    return R::failure("truncated hello");
  }
  if (r.remaining() != 0) return R::failure("trailing bytes in hello");
  if (msg.num_workers == 0 || msg.worker_index >= msg.num_workers) {
    return R::failure("hello worker_index out of range");
  }
  return msg;
}

std::vector<std::uint8_t> encode_descriptor(const ExperimentDescriptor& d) {
  std::vector<std::uint8_t> out;
  append_pod(out, d.bench_id);
  append_pod(out, d.scale);
  append_pod(out, static_cast<std::uint8_t>(d.policy));
  append_pod(out, d.total_clients);
  append_pod(out, d.clients_per_round);
  append_pod(out, d.rounds);
  append_pod(out, d.local_iterations);
  append_pod(out, d.prune_ratio);
  append_pod(out, d.clip);
  append_pod(out, d.sigma);
  append_pod(out, d.seed);
  return out;
}

Result<ExperimentDescriptor> validate_descriptor(ExperimentDescriptor d) {
  using R = Result<ExperimentDescriptor>;
  if (d.bench_id > static_cast<std::uint8_t>(data::BenchmarkId::kCancer)) {
    return R::failure("descriptor: unknown benchmark id");
  }
  if (d.scale > static_cast<std::uint8_t>(BenchScale::kPaper)) {
    return R::failure("descriptor: unknown scale");
  }
  if (static_cast<std::uint8_t>(d.policy) >
      static_cast<std::uint8_t>(PolicyId::kFedCdpDecay)) {
    return R::failure("descriptor: unknown policy id");
  }
  if (d.total_clients <= 0 || d.clients_per_round <= 0 ||
      d.clients_per_round > d.total_clients) {
    return R::failure("descriptor: implausible client counts");
  }
  if (d.rounds <= 0 || d.local_iterations <= 0) {
    return R::failure("descriptor: implausible round budget");
  }
  if (!(d.prune_ratio >= 0.0 && d.prune_ratio < 1.0)) {
    return R::failure("descriptor: implausible prune ratio");
  }
  if (!(std::isfinite(d.clip) && d.clip > 0.0)) {
    return R::failure("descriptor: clip must be finite and > 0");
  }
  if (!(std::isfinite(d.sigma) && d.sigma >= 0.0)) {
    return R::failure("descriptor: sigma must be finite and >= 0");
  }
  return d;
}

Result<ExperimentDescriptor> decode_descriptor(
    const std::vector<std::uint8_t>& payload) {
  using R = Result<ExperimentDescriptor>;
  ByteReader r(payload);
  ExperimentDescriptor d;
  std::uint8_t policy = 0;
  if (!r.read(d.bench_id) || !r.read(d.scale) || !r.read(policy) ||
      !r.read(d.total_clients) || !r.read(d.clients_per_round) ||
      !r.read(d.rounds) || !r.read(d.local_iterations) ||
      !r.read(d.prune_ratio) || !r.read(d.clip) || !r.read(d.sigma) ||
      !r.read(d.seed)) {
    return R::failure("truncated descriptor");
  }
  if (r.remaining() != 0) return R::failure("trailing bytes in descriptor");
  d.policy = static_cast<PolicyId>(policy);
  return validate_descriptor(d);
}

std::vector<std::uint8_t> encode_train_request(const TrainRequestMsg& msg) {
  std::vector<std::uint8_t> out;
  append_pod(out, msg.round);
  append_pod(out, static_cast<std::uint32_t>(msg.client_ids.size()));
  for (std::int64_t id : msg.client_ids) append_pod(out, id);
  append_pod(out, static_cast<std::uint32_t>(msg.weights_blob.size()));
  out.insert(out.end(), msg.weights_blob.begin(), msg.weights_blob.end());
  append_pod(out, msg.trace_hi);
  append_pod(out, msg.trace_lo);
  append_pod(out, msg.parent_span);
  return out;
}

Result<TrainRequestMsg> decode_train_request(
    const std::vector<std::uint8_t>& payload) {
  using R = Result<TrainRequestMsg>;
  ByteReader r(payload);
  TrainRequestMsg msg;
  std::uint32_t count = 0;
  if (!r.read(msg.round) || !r.read(count)) {
    return R::failure("truncated train request");
  }
  if (count > kMaxClientsPerRequest) {
    return R::failure("implausible client count in train request");
  }
  msg.client_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int64_t id = 0;
    if (!r.read(id)) return R::failure("truncated train request");
    if (id < 0) return R::failure("negative client id in train request");
    msg.client_ids.push_back(id);
  }
  std::uint32_t blob_len = 0;
  if (!r.read(blob_len)) return R::failure("truncated train request");
  if (blob_len > kMaxBlobBytes) {
    return R::failure("implausible weights blob in train request");
  }
  if (!r.read_bytes(msg.weights_blob, blob_len) || !r.read(msg.trace_hi) ||
      !r.read(msg.trace_lo) || !r.read(msg.parent_span)) {
    return R::failure("truncated train request");
  }
  if (r.remaining() != 0) {
    return R::failure("trailing bytes in train request");
  }
  return msg;
}

std::vector<std::uint8_t> encode_update(const UpdateMsg& msg) {
  std::vector<std::uint8_t> out;
  append_pod(out, msg.client_id);
  append_pod(out, msg.data_size);
  append_pod(out, static_cast<std::uint32_t>(msg.sealed.size()));
  out.insert(out.end(), msg.sealed.begin(), msg.sealed.end());
  return out;
}

Result<UpdateMsg> decode_update(const std::vector<std::uint8_t>& payload) {
  using R = Result<UpdateMsg>;
  ByteReader r(payload);
  UpdateMsg msg;
  std::uint32_t sealed_len = 0;
  if (!r.read(msg.client_id) || !r.read(msg.data_size) ||
      !r.read(sealed_len)) {
    return R::failure("truncated update message");
  }
  if (msg.client_id < 0) return R::failure("negative client id in update");
  if (msg.data_size < 0) return R::failure("negative data size in update");
  if (sealed_len > kMaxBlobBytes) {
    return R::failure("implausible sealed length in update");
  }
  if (!r.read_bytes(msg.sealed, sealed_len)) {
    return R::failure("truncated update message");
  }
  if (r.remaining() != 0) {
    return R::failure("trailing bytes in update message");
  }
  return msg;
}

std::vector<std::uint8_t> encode_train_error(const TrainErrorMsg& msg) {
  std::vector<std::uint8_t> out;
  append_pod(out, msg.client_id);
  append_pod(out, static_cast<std::uint32_t>(msg.message.size()));
  out.insert(out.end(), msg.message.begin(), msg.message.end());
  return out;
}

Result<TrainErrorMsg> decode_train_error(
    const std::vector<std::uint8_t>& payload) {
  using R = Result<TrainErrorMsg>;
  ByteReader r(payload);
  TrainErrorMsg msg;
  std::uint32_t len = 0;
  if (!r.read(msg.client_id) || !r.read(len)) {
    return R::failure("truncated train error");
  }
  if (len > kMaxStringBytes) {
    return R::failure("implausible message length in train error");
  }
  if (!r.read_string(msg.message, len)) {
    return R::failure("truncated train error");
  }
  if (r.remaining() != 0) return R::failure("trailing bytes in train error");
  return msg;
}

std::unique_ptr<core::PrivacyPolicy> make_policy(
    const ExperimentDescriptor& d) {
  switch (d.policy) {
    case PolicyId::kNonPrivate:
      return core::make_non_private();
    case PolicyId::kFedSdp:
      return core::make_fed_sdp(d.clip, d.sigma);
    case PolicyId::kFedCdp:
      return core::make_fed_cdp(d.clip, d.sigma);
    case PolicyId::kFedCdpDecay:
      return core::make_fed_cdp_decay(d.rounds, data::kDecayClipStart,
                                      data::kDecayClipEnd, d.sigma);
  }
  return core::make_non_private();
}

}  // namespace fedcl::net
