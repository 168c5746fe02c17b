// Scalar reference of fl::SecureChannel::seal (docs/PROTOCOL.md §4),
// written from the spec rather than from the kernel: the tag absorbs
// one word at a time into plain lane variables, words are assembled
// byte by byte, and the keystream steps SplitMix64 once per 8 bytes of
// the whole envelope, tag included, and XORs it byte by byte. The
// word-parallel seal/open must match it byte for byte at every length.
#pragma once

#include <cstdint>
#include <vector>

namespace fedcl::testing {

inline std::vector<std::uint8_t> reference_seal(
    std::uint64_t key, const std::vector<std::uint8_t>& plain) {
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  const auto round = [](std::uint64_t acc, std::uint64_t word) {
    acc += word * kP2;
    return ((acc << 31) | (acc >> 33)) * kP1;
  };

  // Tag: word w (little-endian, the last zero-padded) into lane w % 8,
  // then merge the lanes in order, add the length, avalanche.
  const std::size_t n = plain.size();
  std::uint64_t lanes[8];
  for (std::uint64_t l = 0; l < 8; ++l) lanes[l] = (l + 1) * kP1;
  for (std::size_t w = 0; 8 * w < n; ++w) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && 8 * w + b < n; ++b) {
      word |= std::uint64_t{plain[8 * w + b]} << (8 * b);
    }
    lanes[w % 8] = round(lanes[w % 8], word);
  }
  std::uint64_t tag = 0;
  for (std::uint64_t acc : lanes) tag = (tag ^ round(0, acc)) * kP1 + kP4;
  tag += n;
  tag = (tag ^ (tag >> 33)) * kP2;
  tag = (tag ^ (tag >> 29)) * kP3;
  tag ^= tag >> 32;

  std::vector<std::uint8_t> out = plain;
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(tag >> (8 * b)));
  }

  // Keystream: before each 8 bytes the state steps once, and the word
  // is SplitMix64's output for the state one step further on.
  std::uint64_t state = key;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) {
      state += kGamma;
      std::uint64_t z = state + kGamma;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
    out[i] ^= static_cast<std::uint8_t>(word >> (8 * (i % 8)));
  }
  return out;
}

}  // namespace fedcl::testing
