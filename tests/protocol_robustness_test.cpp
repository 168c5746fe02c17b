// Adversarial-input tests for the byte codec: deserialize_update,
// SecureChannel::open and the checkpoint loader must return an error —
// never crash, throw, or over-read — for any truncated, bit-flipped, or
// malicious buffer or file. These run under ASan/UBSan in CI to catch
// over-reads the happy path never exercises.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/protocol.h"
#include "nn/model_zoo.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;

ClientUpdate sample_update() {
  ClientUpdate u;
  u.client_id = 17;
  u.round = 3;
  Rng rng(123);
  u.delta = {Tensor::randn({3, 4}, rng), Tensor::randn({5}, rng),
             Tensor::randn({2, 2, 2}, rng)};
  return u;
}

TEST(ProtocolRobustness, EveryTruncationFailsCleanly) {
  const auto bytes = serialize_update(sample_update());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    Result<ClientUpdate> r = deserialize_update(prefix);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " was accepted";
  }
  EXPECT_TRUE(deserialize_update(bytes).ok());
}

TEST(ProtocolRobustness, TrailingBytesRejected) {
  auto bytes = serialize_update(sample_update());
  bytes.push_back(0);
  EXPECT_FALSE(deserialize_update(bytes).ok());
}

TEST(ProtocolRobustness, SingleBitFlipsNeverCrashDeserialize) {
  // Flipping any single bit of the plaintext serialization must either
  // still parse (a flipped payload float) or fail cleanly — never
  // over-read or abort. Exhaustive over all bit positions.
  const auto bytes = serialize_update(sample_update());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      auto mutated = bytes;
      mutated[i] ^= static_cast<std::uint8_t>(1u << b);
      (void)deserialize_update(mutated);  // must not crash
    }
  }
}

TEST(ProtocolRobustness, HugeTensorCountFailsWithoutAllocating) {
  // A bit flip in the count field must not trigger a giant reserve or
  // a long parse loop.
  std::vector<std::uint8_t> bytes(8 + 8 + 4, 0);
  const std::uint32_t count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 16, &count, sizeof(count));
  Result<ClientUpdate> r = deserialize_update(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "implausible tensor count");
}

TEST(ProtocolRobustness, HugeDimensionFailsWithoutAllocating) {
  // header: id, round, count=1, ndim=2, dims = {2^40, 2^40} — the
  // product overflows; must fail before any allocation.
  std::vector<std::uint8_t> bytes(8 + 8 + 4 + 4 + 8 + 8, 0);
  std::size_t off = 16;
  const std::uint32_t count = 1;
  std::memcpy(bytes.data() + off, &count, 4);
  off += 4;
  const std::uint32_t ndim = 2;
  std::memcpy(bytes.data() + off, &ndim, 4);
  off += 4;
  const std::int64_t dim = std::int64_t{1} << 40;
  std::memcpy(bytes.data() + off, &dim, 8);
  off += 8;
  std::memcpy(bytes.data() + off, &dim, 8);
  EXPECT_FALSE(deserialize_update(bytes).ok());
}

TEST(ProtocolRobustness, NegativeAndZeroDimsRejected) {
  for (std::int64_t dim : {std::int64_t{0}, std::int64_t{-1},
                           std::int64_t{-(std::int64_t{1} << 50)}}) {
    std::vector<std::uint8_t> bytes(8 + 8 + 4 + 4 + 8, 0);
    const std::uint32_t count = 1, ndim = 1;
    std::memcpy(bytes.data() + 16, &count, 4);
    std::memcpy(bytes.data() + 20, &ndim, 4);
    std::memcpy(bytes.data() + 24, &dim, 8);
    EXPECT_FALSE(deserialize_update(bytes).ok()) << "dim " << dim;
  }
}

TEST(ProtocolRobustness, ChannelOpenSurvivesArbitraryCiphertext) {
  SecureChannel channel(0xFEED);
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_int(64));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    Result<std::vector<std::uint8_t>> r = channel.open(garbage);
    if (garbage.size() < sizeof(std::uint64_t)) {
      EXPECT_FALSE(r.ok());
    }
    // Longer garbage: almost surely a tag mismatch; either way, no
    // crash and a well-formed Result.
    if (!r.ok()) {
      EXPECT_FALSE(r.error().empty());
    }
  }
}

TEST(ProtocolRobustness, BitFlippedWireDetectedByTag) {
  SecureChannel channel(0xABCDEF);
  const auto wire = channel.seal(serialize_update(sample_update()));
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = wire;
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(mutated.size())));
    mutated[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    EXPECT_FALSE(channel.open(mutated).ok());
  }
}

TEST(ProtocolRobustness, EverySingleBitFlipIsDetected) {
  // A change confined to one 8-byte word always changes the lane tag,
  // so open() rejects every single-bit flip of body or tag, not just
  // almost every one. Exhaustive over lengths 0-80 and all bits.
  const SecureChannel channel(0x5EA1ED);
  Rng rng(13);
  for (std::size_t n = 0; n <= 80; ++n) {
    std::vector<std::uint8_t> plain(n);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const auto sealed = channel.seal(plain);
    for (std::size_t i = 0; i < sealed.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = sealed;
        mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(channel.open(std::move(mutated)).ok())
            << "length " << n << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(ProtocolRobustness, FailedResultThrowsOnAccess) {
  Result<ClientUpdate> r = deserialize_update({1, 2, 3});
  ASSERT_FALSE(r.ok());
  EXPECT_THROW(r.value(), Error);
}

// ---- checkpoints: the 8-byte header plus the tensor-list blob ----

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

// A checkpoint header, then a tensor list of `count` tensors whose
// first one has the given dims and no data.
std::vector<std::uint8_t> checkpoint_prefix(std::uint32_t count,
                                            std::vector<std::int64_t> dims,
                                            std::uint32_t magic = 0xFEDC1CA1,
                                            std::uint32_t version = 1) {
  std::vector<std::uint8_t> bytes;
  append_pod(bytes, magic);
  append_pod(bytes, version);
  append_pod(bytes, count);
  append_pod(bytes, static_cast<std::uint32_t>(dims.size()));
  for (std::int64_t d : dims) append_pod(bytes, d);
  return bytes;
}

TEST(Checkpoint, RoundTrip) {
  Rng rng(1);
  TensorList weights = {Tensor::randn({3, 4}, rng), Tensor::randn({7}, rng),
                        Tensor::randn({2, 2, 2, 2}, rng)};
  const std::string path = temp_path("roundtrip.ckpt");
  save_weights(path, weights);
  Result<TensorList> loaded = load_weights(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_TRUE(tensor::list::allclose(loaded.value(), weights, 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(Checkpoint, ModelSaveRestore) {
  Rng rng(2);
  nn::ModelSpec spec{.kind = nn::ModelSpec::Kind::kMlp, .in_features = 6,
                     .classes = 3};
  auto model = nn::build_mlp(spec, rng);
  const std::string path = temp_path("model.ckpt");
  save_weights(path, model->weights());

  Rng rng2(3);
  auto other = nn::build_mlp(spec, rng2);  // different init
  other->set_weights(load_weights(path).take());
  EXPECT_TRUE(tensor::list::allclose(other->weights(), model->weights(),
                                     0.0f, 0.0f));
  std::remove(path.c_str());
}

// The file layout, byte for byte: u32 magic, u32 version, u32 count,
// then per tensor u32 rank, i64 dims and the raw f32 data.
TEST(Checkpoint, LayoutIsHeaderPlusTensorListBlob) {
  Tensor a({2, 3});
  Tensor b({1});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = 0.5f * static_cast<float>(i) - 1.0f;
  }
  b.data()[0] = 3.25f;
  std::vector<std::uint8_t> expected = {
      0xA1, 0x1C, 0xDC, 0xFE,  // magic 0xFEDC1CA1
      1, 0, 0, 0,              // version 1
      2, 0, 0, 0,              // two tensors
      2, 0, 0, 0,              // a: rank 2
      2, 0, 0, 0, 0, 0, 0, 0,  // a: dim 2
      3, 0, 0, 0, 0, 0, 0, 0,  // a: dim 3
  };
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    append_pod(expected, a.data()[i]);
  }
  const std::vector<std::uint8_t> b_bytes = {
      1, 0, 0, 0,              // b: rank 1
      1, 0, 0, 0, 0, 0, 0, 0,  // b: dim 1
      0, 0, 0x50, 0x40,        // 3.25f
  };
  expected.insert(expected.end(), b_bytes.begin(), b_bytes.end());

  const std::string path = temp_path("layout.ckpt");
  save_weights(path, {a, b});
  EXPECT_EQ(read_file(path), expected);
  std::vector<std::uint8_t> blob(expected.begin() + 8, expected.end());
  EXPECT_EQ(serialize_tensor_list({a, b}), blob);

  write_file(path, expected);
  Result<TensorList> loaded = load_weights(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_TRUE(tensor::list::allclose(loaded.value(), {a, b}, 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageAndMissing) {
  EXPECT_FALSE(load_weights(temp_path("missing.ckpt")).ok());
  const std::string path = temp_path("garbage.ckpt");
  const char junk[] = "not a checkpoint";
  write_file(path, std::vector<std::uint8_t>(junk, junk + sizeof(junk)));
  EXPECT_FALSE(load_weights(path).ok());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncation) {
  Rng rng(4);
  TensorList weights = {Tensor::randn({16}, rng)};
  const std::string path = temp_path("trunc.ckpt");
  save_weights(path, weights);
  const std::vector<std::uint8_t> bytes = read_file(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, {bytes.begin(), bytes.begin() + static_cast<long>(len)});
    EXPECT_FALSE(load_weights(path).ok()) << "length " << len;
  }
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  EXPECT_FALSE(load_weights(path).ok());
  std::remove(path.c_str());
}

// Malformed files fail with the blob decoder's reasons, before any
// allocation the fields claim: no bad_alloc, no signed overflow.
TEST(Checkpoint, MalformedFilesFailCleanly) {
  const std::int64_t big = std::int64_t{1} << 32;
  std::vector<std::uint8_t> trailing = checkpoint_prefix(1, {1});
  append_pod(trailing, 1.0f);
  trailing.push_back(0);
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
    const char* reason;
  } cases[] = {
      {"count 0xFFFFFFFF", checkpoint_prefix(0xFFFFFFFFu, {}),
       "implausible tensor count"},
      {"dims [2^32, 2^32]", checkpoint_prefix(1, {big, big}),
       "implausible tensor dimension"},
      {"negative dim", checkpoint_prefix(1, {4, -1}),
       "implausible tensor dimension"},
      {"rank 9", checkpoint_prefix(1, {1, 1, 1, 1, 1, 1, 1, 1, 1}),
       "implausible tensor rank"},
      {"trailing byte", trailing, "trailing bytes in message"},
      {"bad magic", checkpoint_prefix(0, {}, 0xFEDC1CA2), "not a fedcl"},
      {"bad version", checkpoint_prefix(0, {}, 0xFEDC1CA1, 2),
       "unsupported checkpoint version"},
  };
  const std::string path = temp_path("malformed.ckpt");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    write_file(path, c.bytes);
    Result<TensorList> r = load_weights(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find(c.reason), std::string::npos) << r.error();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcl::fl
