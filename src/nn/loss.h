// Loss functions and classification metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/autograd.h"

namespace fedcl::nn {

using tensor::Tensor;
using tensor::Var;

// Mean softmax cross-entropy over the batch. logits: [N,C]. Composed
// from differentiable primitives, so it supports double backward.
Var softmax_cross_entropy(const Var& logits, const std::vector<std::int64_t>& labels);

// Row-wise softmax probabilities (raw tensor, no graph).
Tensor softmax(const Tensor& logits);

// Argmax class per row.
std::vector<std::int64_t> predict(const Tensor& logits);

// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

}  // namespace fedcl::nn
