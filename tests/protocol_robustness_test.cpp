// Adversarial-input tests for the wire protocol: deserialize_update and
// SecureChannel::open must return an error — never crash, throw, or
// over-read — for any truncated, bit-flipped, or malicious buffer.
// These run under ASan/UBSan in CI to catch over-reads the happy path
// never exercises.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "fl/protocol.h"

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

}  // namespace
}  // namespace fedcl::fl
