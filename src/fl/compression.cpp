#include "fl/compression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace fedcl::fl {

std::int64_t prune_smallest(TensorList& update, double prune_ratio) {
  FEDCL_CHECK(prune_ratio >= 0.0 && prune_ratio <= 1.0)
      << "prune_ratio " << prune_ratio;
  const std::int64_t total = tensor::list::total_numel(update);
  if (prune_ratio == 0.0 || total == 0) return total;
  const auto prune_count = static_cast<std::int64_t>(
      std::floor(prune_ratio * static_cast<double>(total)));
  if (prune_count == 0) return total;

  std::vector<float> magnitudes;
  magnitudes.reserve(static_cast<std::size_t>(total));
  for (const auto& t : update) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i)
      magnitudes.push_back(std::abs(p[i]));
  }
  // Threshold below which coordinates are dropped.
  auto nth = magnitudes.begin() + (prune_count - 1);
  std::nth_element(magnitudes.begin(), nth, magnitudes.end());
  const float threshold = *nth;

  // Zero everything strictly below the threshold, then drop ties at the
  // threshold until exactly prune_count coordinates are removed (keeps
  // the contract exact when many magnitudes are equal).
  std::int64_t removed = 0;
  for (auto& t : update) {
    float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (std::abs(p[i]) < threshold) {
        p[i] = 0.0f;
        ++removed;
      }
    }
  }
  for (auto& t : update) {
    if (removed >= prune_count) break;
    float* p = t.data();
    for (std::int64_t i = 0; i < t.numel() && removed < prune_count; ++i) {
      if (p[i] != 0.0f && std::abs(p[i]) == threshold) {
        p[i] = 0.0f;
        ++removed;
      }
    }
  }
  return total - prune_count;
}

double sparsity(const TensorList& update) {
  const std::int64_t total = tensor::list::total_numel(update);
  if (total == 0) return 0.0;
  std::int64_t zeros = 0;
  for (const auto& t : update) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (p[i] == 0.0f) ++zeros;
    }
  }
  return static_cast<double>(zeros) / static_cast<double>(total);
}

}  // namespace fedcl::fl
