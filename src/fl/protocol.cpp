#include "fl/protocol.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/error.h"
#include "tensor/simd.h"

namespace fedcl::fl {

namespace {

// Reject implausible wire values before allocating anything: a flipped
// bit in a count or dim field must fail cleanly, not request gigabytes.
constexpr std::uint32_t kMaxTensors = 4096;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 28;  // 1 GiB of f32

constexpr std::uint32_t kCheckpointMagic = 0xFEDC1CA1;
constexpr std::uint32_t kCheckpointVersion = 1;

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

std::size_t tensor_list_bytes(const TensorList& list) {
  std::size_t bytes = sizeof(std::uint32_t);
  for (const auto& t : list) {
    bytes += sizeof(std::uint32_t) + sizeof(std::int64_t) * t.ndim() +
             sizeof(float) * static_cast<std::size_t>(t.numel());
  }
  return bytes;
}

// ---- SecureChannel (PROTOCOL.md §4) ----
//
// Both directions make one pass over the body as little-endian 64-bit
// words, the last one zero-padded. Word w is XORed with keystream word
// w, the SplitMix64 output for state key + (w + 2)·kGamma, and its
// plaintext is absorbed into tag lane w mod 8 by the xxHash64 round.
// The tag then merges the lanes one at a time, adds the byte length
// and avalanches; it travels after the body, XORed with the keystream
// bytes at its position. Every step is a bijection of the lane state,
// so a change confined to one word always changes the tag.
static_assert(std::endian::native == std::endian::little,
              "the channel reads bytes as little-endian words");

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::size_t kLanes = 8;

typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

// The helpers below serve one word or 8 lanes at once (vector
// operands); vectors go by reference, which keeps the calling
// convention out of the ISA clones.

// SplitMix64's output function, in place.
template <typename T>
[[gnu::always_inline]] inline void mix64(T& z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
}

// The xxHash64 round: folds `word` into `acc`.
template <typename T>
[[gnu::always_inline]] inline void absorb(T& acc, const T& word) {
  acc += word * kP2;
  acc = ((acc << 31) | (acc >> 33)) * kP1;
}

[[gnu::always_inline]] inline std::uint64_t keystream_word(std::uint64_t key,
                                                           std::uint64_t w) {
  std::uint64_t z = key + (w + 2) * kGamma;
  mix64(z);
  return z;
}

// The keystream bytes [n, n + 8) that cover the tag, as one word.
std::uint64_t tag_keystream(std::uint64_t key, std::size_t n) {
  const std::uint64_t lo = keystream_word(key, n / 8);
  const unsigned shift = 8 * (n % 8);
  if (shift == 0) return lo;
  return (lo >> shift) | (keystream_word(key, n / 8 + 1) << (64 - shift));
}

// XORs the keystream of `key` over bytes[0, n) in place and returns the
// tag of the plaintext: the bytes as they arrive when sealing, as they
// leave when opening. Whole 64-byte blocks go 8 words (one per lane) at
// a time, so the x86-64-v4 clone holds the lanes and the keystream in
// one register each; the rest goes a word at a time. Integer arithmetic
// only, so every clone produces the same bytes.
FEDCL_KERNEL_CLONES
std::uint64_t crypt_and_tag(std::uint8_t* bytes, std::size_t n,
                            std::uint64_t key, bool opening) {
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  U64x8 acc = (lane + 1) * kP1;
  U64x8 state = key + (lane + 2) * kGamma;
  std::size_t i = 0;
  for (; i + sizeof(U64x8) <= n; i += sizeof(U64x8)) {
    U64x8 in;
    std::memcpy(&in, bytes + i, sizeof(in));
    U64x8 out = state;
    mix64(out);
    out ^= in;
    std::memcpy(bytes + i, &out, sizeof(out));
    absorb(acc, opening ? out : in);
    state += kLanes * kGamma;
  }
  for (std::size_t w = i / 8; i < n; i += 8, ++w) {
    const std::size_t len = std::min<std::size_t>(8, n - i);
    const std::uint64_t mask = ~std::uint64_t{0} >> (64 - 8 * len);
    std::uint64_t in = 0;
    std::memcpy(&in, bytes + i, len);
    const std::uint64_t out = in ^ (keystream_word(key, w) & mask);
    std::memcpy(bytes + i, &out, len);
    std::uint64_t lane_acc = acc[w % kLanes];
    absorb(lane_acc, opening ? out : in);
    acc[w % kLanes] = lane_acc;
  }
  std::uint64_t tag = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::uint64_t merged = 0;
    absorb(merged, acc[l]);
    tag = (tag ^ merged) * kP1 + kP4;
  }
  tag += n;
  tag = (tag ^ (tag >> 33)) * kP2;
  tag = (tag ^ (tag >> 29)) * kP3;
  return tag ^ (tag >> 32);
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
  std::vector<std::uint8_t> out;
  out.reserve(tensor_list_bytes(list));
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

void save_weights(const std::string& path, const TensorList& weights) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(2 * sizeof(std::uint32_t) + tensor_list_bytes(weights));
  append_pod(bytes, kCheckpointMagic);
  append_pod(bytes, kCheckpointVersion);
  append_tensor_list(bytes, weights);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  FEDCL_CHECK(f != nullptr) << "cannot open " << path << " for writing";
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  FEDCL_CHECK(written == bytes.size() && closed)
      << "short or failed write to " << path;
}

Result<TensorList> load_weights(const std::string& path) {
  using R = Result<TensorList>;
  std::vector<std::uint8_t> bytes;
  {
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (f == nullptr) return R::failure("cannot open " + path);
    std::uint8_t chunk[1 << 16];
    while (const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f.get())) {
      bytes.insert(bytes.end(), chunk, chunk + n);
    }
    if (std::ferror(f.get())) return R::failure("cannot read " + path);
  }
  ByteReader reader(bytes);
  std::uint32_t magic = 0, version = 0;
  if (!reader.read(magic) || magic != kCheckpointMagic) {
    return R::failure("not a fedcl checkpoint: " + path);
  }
  if (!reader.read(version) || version != kCheckpointVersion) {
    return R::failure("unsupported checkpoint version: " + path);
  }
  R list = deserialize_tensor_list(
      ByteSpan(bytes.data() + sizeof(magic) + sizeof(version),
               reader.remaining()));
  if (!list.ok()) return R::failure(path + ": " + list.error());
  return list;
}

std::vector<std::uint8_t> serialize_update(const ClientUpdate& update) {
  // Exact size plus room for the tag SecureChannel::seal appends.
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(update.client_id) + sizeof(update.round) +
              tensor_list_bytes(update.delta) + SecureChannel::kTagBytes);
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
  const std::size_t n = plaintext.size();
  const std::uint64_t tag = crypt_and_tag(plaintext.data(), n, key_, false) ^
                            tag_keystream(key_, n);
  append_pod(plaintext, tag);
  return plaintext;
}

Result<std::vector<std::uint8_t>> SecureChannel::open(
    std::vector<std::uint8_t> sealed) const {
  using R = Result<std::vector<std::uint8_t>>;
  if (sealed.size() < kTagBytes) return R::failure("short ciphertext");
  const std::size_t n = sealed.size() - kTagBytes;
  std::uint64_t tag = 0;
  std::memcpy(&tag, sealed.data() + n, sizeof(tag));
  if ((tag ^ tag_keystream(key_, n)) !=
      crypt_and_tag(sealed.data(), n, key_, true)) {
    return R::failure("integrity tag mismatch");
  }
  sealed.resize(n);
  return sealed;
}

}  // namespace fedcl::fl
