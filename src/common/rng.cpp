#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace fedcl {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over the label bytes, used to derive independent sub-streams.
std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Rng Rng::fork(std::string_view label, std::uint64_t index) const {
  std::uint64_t mix = state_;
  mix ^= hash_label(label);
  mix ^= index * 0xD1B54A32D192ED03ULL + 0x8CB92BA72F3D8DD7ULL;
  // Run the mixer once so adjacent indices diverge immediately.
  return Rng(splitmix64(mix));
}

std::uint64_t Rng::next_u64() { return splitmix64(state_); }

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FEDCL_CHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  FEDCL_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  double sin_theta, cos_theta;
#if defined(__GLIBC__)
  // glibc computes both in one call with results identical to separate
  // sin/cos, shaving a table lookup off every other draw.
  ::sincos(theta, &sin_theta, &cos_theta);
#else
  sin_theta = std::sin(theta);
  cos_theta = std::cos(theta);
#endif
  cached_normal_ = r * sin_theta;
  has_cached_normal_ = true;
  return r * cos_theta;
}

double Rng::normal(double mean, double stddev) {
  FEDCL_CHECK_GE(stddev, 0.0);
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  FEDCL_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  return uniform() < p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FEDCL_CHECK_LE(k, n);
  // Partial Fisher-Yates: step i swaps idx[i] with idx[j], j uniform in
  // [i, n), and idx[i] is the i-th pick. A cohort of an eighth of the
  // population or more walks the identity array itself: the array is
  // then no bigger than a table of displaced positions (two 16-byte
  // slots per pick), and a full cohort of 10^6 would need a 32 MiB
  // table against an 8 MiB array.
  if (k >= n / 8) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  // The same draws over a virtual identity array, idx[p] = p unless p
  // was displaced. Only displaced positions are stored, in an
  // open-addressed table of at least 2k slots (one insert per step, so
  // it stays at most half full). Position i is never read after step i,
  // so a step stores only idx[j]. O(k) time and memory for any n.
  constexpr std::size_t kEmpty = ~std::size_t{0};  // positions are < n
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * k, 2));
  const int shift = 64 - std::countr_zero(slots);
  std::vector<std::pair<std::size_t, std::size_t>> moved(slots, {kEmpty, 0});
  auto slot_of = [&](std::size_t pos) -> std::pair<std::size_t, std::size_t>& {
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(pos) * 0x9E3779B97F4A7C15ULL) >> shift);
    while (moved[h].first != pos && moved[h].first != kEmpty)
      h = (h + 1) & (slots - 1);
    return moved[h];
  };
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
    const auto& at_i = slot_of(i);
    const std::size_t value_i = at_i.first == i ? at_i.second : i;
    auto& at_j = slot_of(j);
    out[i] = at_j.first == j ? at_j.second : j;
    at_j = {j, value_i};
  }
  return out;
}

}  // namespace fedcl
