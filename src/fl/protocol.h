// Client/server messaging: the round update record, the one binary
// codec every byte format shares (update payloads, tensor-list blobs,
// model checkpoints, and the serving wire messages of net/wire.h), and
// a toy secure channel.
//
// The paper's threat model assumes client-server communication is
// encrypted yet gradients still leak at the endpoints. SecureChannel
// makes that assumption concrete: updates are sealed in transit, and
// the three leakage observation points (type-0 at the server after
// open(), type-1/2 at the client before seal()) are explicit in the
// training loop. The cipher is a SplitMix64 keystream XOR plus an
// 8-byte integrity tag over the plaintext, computed in one word-parallel
// pass: 8 xxHash64-style lanes, merged and length-mixed at the end. Any
// change confined to one 8-byte word (every single-bit flip, tag bytes
// included) is always detected, any other with probability 1 - 2^-64.
// Deliberately simple and NOT real cryptography; transport security is
// not what the paper (or this reproduction) evaluates.
//
// Bytes arriving at the server cross a trust boundary: open() and
// every decoder return a Result instead of throwing, so a tampered,
// truncated, or malformed message is a per-client recoverable event
// (the update is screened out) rather than a process-wide abort.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "tensor/tensor_list.h"

namespace fedcl::fl {

using tensor::list::TensorList;

// Local training parameter update shared by client i at round t:
// delta = W_i(t)_L - W(t).
struct ClientUpdate {
  std::int64_t client_id = -1;
  std::int64_t round = -1;
  TensorList delta;
};

// Non-owning view over received bytes. The network layer deserializes
// straight out of a connection's receive buffer through this — no
// intermediate vector copy; the one memcpy per tensor lands the floats
// directly in the Tensor the aggregator consumes.
struct ByteSpan {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  ByteSpan() = default;
  ByteSpan(const std::uint8_t* d, std::size_t n) : data(d), size(n) {}
  ByteSpan(const std::vector<std::uint8_t>& v)  // NOLINT: implicit view
      : data(v.data()), size(v.size()) {}
};

// Appends v's bytes: little-endian on every supported host.
template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

// Bounds-checked read cursor over an untrusted buffer, the reader of
// every decoder in the repo. Operating on a ByteSpan keeps the cursor
// zero-copy: the network layer points it at a frame inside its receive
// buffer and the only copy of the payload is the one into the
// destination. Every read fails, consuming nothing, when fewer bytes
// remain than it asks for.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& out) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(&out, bytes_.data + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  bool read_floats(float* dst, std::size_t count) {
    const std::size_t nbytes = sizeof(float) * count;
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(float) ||
        nbytes > remaining()) {
      return false;
    }
    std::memcpy(dst, bytes_.data + offset_, nbytes);
    offset_ += nbytes;
    return true;
  }

  bool read_bytes(std::vector<std::uint8_t>& out, std::size_t n) {
    if (n > remaining()) return false;
    out.assign(bytes_.data + offset_, bytes_.data + offset_ + n);
    offset_ += n;
    return true;
  }

  bool read_string(std::string& out, std::size_t n) {
    if (n > remaining()) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data + offset_), n);
    offset_ += n;
    return true;
  }

  std::size_t remaining() const { return bytes_.size - offset_; }

 private:
  ByteSpan bytes_;
  std::size_t offset_ = 0;
};

std::vector<std::uint8_t> serialize_update(const ClientUpdate& update);
// Every read is bounds-checked; fails (never crashes or over-reads) on
// truncated, oversized, or otherwise malformed buffers. Tensors of
// `reuse` whose shapes match the decoded ones are overwritten in place
// rather than freshly allocated: the in-process engines decode each
// update over the buffers it was serialized from, so a round holds one
// copy of every update, not two. Pass only tensors nothing else
// references.
Result<ClientUpdate> deserialize_update(ByteSpan bytes,
                                        ClientUpdate reuse = {});
Result<ClientUpdate> deserialize_update(const std::vector<std::uint8_t>& bytes);

// The tensor-list blob shared by update payloads and the wire
// protocol's model broadcast (docs/PROTOCOL.md): u32 count, then per
// tensor u32 rank, i64 dims, raw little-endian f32 data.
void append_tensor_list(std::vector<std::uint8_t>& out, const TensorList& list);
std::vector<std::uint8_t> serialize_tensor_list(const TensorList& list);
// Bounds-checked (same caps as deserialize_update); fails on any
// truncated, oversized, or implausible field. Requires the whole span
// to be consumed (no trailing bytes).
Result<TensorList> deserialize_tensor_list(ByteSpan bytes);

// Model checkpoints: a u32 magic 0xFEDC1CA1 and a u32 version 1, then
// exactly the tensor-list blob above. save_weights overwrites `path`
// and throws fedcl::Error when the file cannot be opened or fully
// written. load_weights fails on a missing or unreadable file, a bad
// header, or any blob deserialize_tensor_list rejects.
void save_weights(const std::string& path, const TensorList& weights);
Result<TensorList> load_weights(const std::string& path);

// Per-client channel key derivation, shared by the in-process trainer
// and the socket serving path (docs/PROTOCOL.md §4): both sides of a
// connection derive the same key from the experiment seed alone, so no
// key material ever crosses the wire.
std::uint64_t client_channel_key(std::uint64_t experiment_seed,
                                 std::int64_t client_id);

class SecureChannel {
 public:
  // Bytes seal() appends to its input.
  static constexpr std::size_t kTagBytes = sizeof(std::uint64_t);

  explicit SecureChannel(std::uint64_t key) : key_(key) {}

  // Encrypts in place and appends the integrity tag (PROTOCOL.md §4).
  std::vector<std::uint8_t> seal(std::vector<std::uint8_t> plaintext) const;
  // Decrypts; fails on a short ciphertext or a bad tag (tampered or
  // wrong-key ciphertext).
  Result<std::vector<std::uint8_t>> open(
      std::vector<std::uint8_t> sealed) const;

 private:
  std::uint64_t key_;
};

}  // namespace fedcl::fl
