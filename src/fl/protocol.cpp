#include "fl/protocol.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace fedcl::fl {

namespace {

// Reject implausible wire values before allocating anything: a flipped
// bit in a count or dim field must fail cleanly, not request gigabytes.
constexpr std::uint32_t kMaxTensors = 4096;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 28;  // 1 GiB of f32

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

// Bounds-checked read cursor over an untrusted buffer. Operating on a
// ByteSpan keeps the cursor zero-copy: the network layer points it at
// a frame inside its receive buffer and the only copy of the payload
// is the memcpy into the destination tensor.
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

  std::size_t remaining() const { return bytes_.size - offset_; }

 private:
  ByteSpan bytes_;
  std::size_t offset_ = 0;
};

// Reads one tensor-list blob into `out`, decoding tensor i over the
// storage of the incoming out[i] when the shapes match; on failure
// returns the reason, leaving `out` partially filled (callers discard
// it).
const char* read_tensor_list(ByteReader& reader, TensorList& out) {
  std::uint32_t count = 0;
  if (!reader.read(count)) return "truncated tensor count";
  if (count > kMaxTensors) return "implausible tensor count";
  TensorList reuse = std::move(out);
  out.clear();
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t ndim = 0;
    if (!reader.read(ndim)) return "truncated tensor rank";
    if (ndim > kMaxRank) return "implausible tensor rank";
    tensor::Shape shape;
    std::int64_t numel = 1;
    for (std::uint32_t d = 0; d < ndim; ++d) {
      std::int64_t dim = 0;
      if (!reader.read(dim)) return "truncated tensor shape";
      if (dim <= 0 || dim > kMaxElements || numel > kMaxElements / dim) {
        return "implausible tensor dimension";
      }
      numel *= dim;
      shape.push_back(dim);
    }
    // Cheap size check before the allocation the shape implies.
    if (sizeof(float) * static_cast<std::size_t>(numel) >
        reader.remaining()) {
      return "truncated tensor data";
    }
    tensor::Tensor t = i < reuse.size() && reuse[i].defined() &&
                               reuse[i].shape() == shape
                           ? std::move(reuse[i])
                           : tensor::Tensor(shape);
    if (!reader.read_floats(t.data(), static_cast<std::size_t>(t.numel()))) {
      return "truncated tensor data";
    }
    out.push_back(std::move(t));
  }
  return nullptr;
}

std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// XORs byte i with byte (i % 8) of keystream word i / 8, little end
// first. Word w is the SplitMix64 output one step past the state after
// w + 1 steps from `key`.
void apply_keystream(std::vector<std::uint8_t>& bytes, std::uint64_t key) {
  std::uint64_t state = key;
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    splitmix64_step(state);
    std::uint64_t probe = state;
    const std::uint64_t word = splitmix64_step(probe);
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - i);
    for (std::size_t b = 0; b < n; ++b) {
      bytes[i + b] ^= static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

}  // namespace

void append_tensor_list(std::vector<std::uint8_t>& out,
                        const TensorList& list) {
  append_pod(out, static_cast<std::uint32_t>(list.size()));
  for (const auto& t : list) {
    FEDCL_CHECK(t.defined()) << "undefined tensor in list";
    append_pod(out, static_cast<std::uint32_t>(t.ndim()));
    for (std::size_t d = 0; d < t.ndim(); ++d) {
      append_pod(out, static_cast<std::int64_t>(t.dim(d)));
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(t.data());
    out.insert(out.end(), p, p + sizeof(float) * t.numel());
  }
}

std::vector<std::uint8_t> serialize_tensor_list(const TensorList& list) {
  // Reserve the exact size: callers may keep the blob, and growth by
  // repeated insert leaves up to 2x slack.
  std::size_t bytes = sizeof(std::uint32_t);
  for (const auto& t : list) {
    bytes += sizeof(std::uint32_t) + sizeof(std::int64_t) * t.ndim() +
             sizeof(float) * static_cast<std::size_t>(t.numel());
  }
  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  append_tensor_list(out, list);
  return out;
}

Result<TensorList> deserialize_tensor_list(ByteSpan bytes) {
  using R = Result<TensorList>;
  ByteReader reader(bytes);
  TensorList list;
  if (const char* err = read_tensor_list(reader, list)) return R::failure(err);
  if (reader.remaining() != 0) return R::failure("trailing bytes in message");
  return list;
}

std::vector<std::uint8_t> serialize_update(const ClientUpdate& update) {
  std::vector<std::uint8_t> out;
  append_pod(out, update.client_id);
  append_pod(out, update.round);
  append_tensor_list(out, update.delta);
  return out;
}

Result<ClientUpdate> deserialize_update(ByteSpan bytes, ClientUpdate reuse) {
  using R = Result<ClientUpdate>;
  ByteReader reader(bytes);
  ClientUpdate update = std::move(reuse);
  if (!reader.read(update.client_id) || !reader.read(update.round)) {
    return R::failure("truncated header");
  }
  if (const char* err = read_tensor_list(reader, update.delta)) {
    return R::failure(err);
  }
  if (reader.remaining() != 0) return R::failure("trailing bytes in message");
  return update;
}

Result<ClientUpdate> deserialize_update(
    const std::vector<std::uint8_t>& bytes) {
  return deserialize_update(ByteSpan(bytes));
}

std::uint64_t client_channel_key(std::uint64_t experiment_seed,
                                 std::int64_t client_id) {
  return experiment_seed ^
         (0x5EC2E7ULL +
          static_cast<std::uint64_t>(client_id) * 0x9E3779B97F4A7C15ULL);
}

std::vector<std::uint8_t> SecureChannel::seal(
    std::vector<std::uint8_t> plaintext) const {
  const std::uint64_t tag = fnv1a(plaintext.data(), plaintext.size());
  append_pod(plaintext, tag);
  apply_keystream(plaintext, key_);
  return plaintext;
}

Result<std::vector<std::uint8_t>> SecureChannel::open(
    std::vector<std::uint8_t> sealed) const {
  using R = Result<std::vector<std::uint8_t>>;
  if (sealed.size() < sizeof(std::uint64_t)) {
    return R::failure("short ciphertext");
  }
  apply_keystream(sealed, key_);
  const std::size_t body = sealed.size() - sizeof(std::uint64_t);
  std::uint64_t tag = 0;
  std::memcpy(&tag, sealed.data() + body, sizeof(tag));
  if (tag != fnv1a(sealed.data(), body)) {
    return R::failure("integrity tag mismatch");
  }
  sealed.resize(body);
  return sealed;
}

}  // namespace fedcl::fl
