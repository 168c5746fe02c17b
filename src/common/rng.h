// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in fedcl (data synthesis, client sampling,
// DP noise, attack seeds) draws from an Rng seeded from a single
// experiment seed via named sub-streams, so runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace fedcl {

// SplitMix64-based generator. Small, fast, and statistically strong
// enough for simulation workloads (not for cryptography).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : state_(seed) {}

  // Derives an independent child stream, e.g. rng.fork("client", 7).
  Rng fork(std::string_view label, std::uint64_t index = 0) const;

  // Next raw 64-bit value.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  // Standard normal via Box-Muller (cached second value).
  double normal();
  // Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  // Bernoulli trial with success probability p.
  bool bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // k draws from [0, n) without replacement (k <= n): a partial
  // Fisher-Yates shuffle of 0..n-1, whose first k entries come back in
  // draw order. O(k) time and memory when k < n / 8, O(n) otherwise.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedcl
