// Classification outputs of the raw logits: softmax, argmax, accuracy.
// The mean softmax cross-entropy and its gradients live in the tape
// engine (nn/per_example.h).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fedcl::nn {

using tensor::Tensor;

// Row-wise softmax probabilities: row max m, e = exp(z - m), S = the
// row's sum of e accumulated in double and rounded to float, e / S.
Tensor softmax(const Tensor& logits);

// Argmax class per row.
std::vector<std::int64_t> predict(const Tensor& logits);

// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

}  // namespace fedcl::nn
