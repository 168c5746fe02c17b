// Gradient compression for communication-efficient federated learning
// (the paper's Figure 5 experiment): insignificant gradients — those
// with the smallest magnitudes — are pruned before the update is
// shared.
#pragma once

#include <cstdint>

#include "tensor/tensor_list.h"

namespace fedcl::fl {

using tensor::list::TensorList;

// Zeroes the smallest-magnitude `prune_ratio` fraction of coordinates
// across the whole update (0 = no-op, 0.3 = paper's "compression ratio
// 30%"). Returns the number of coordinates kept.
std::int64_t prune_smallest(TensorList& update, double prune_ratio);

// Fraction of exactly-zero coordinates.
double sparsity(const TensorList& update);

}  // namespace fedcl::fl
