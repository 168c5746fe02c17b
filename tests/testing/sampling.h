// Reference for Rng::sample_without_replacement: the dense partial
// Fisher-Yates shuffle over an explicit identity array, drawing from the
// same Rng calls. The library's sampler must return the same cohort and
// leave the Rng in the same state.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fedcl::testing {

inline std::vector<std::size_t> reference_sample_without_replacement(
    Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace fedcl::testing
