// The batch gradient and accuracy entry points shared by the FL training
// loop, the DP policies and the benches.
//
// Both run on the tape engine (nn/per_example.h), the one model engine:
// compute_gradients is its batch reduction, evaluate_accuracy its raw
// forward. The autograd graph the tape is pinned to bitwise is a test
// oracle (tests/testing/reference.h).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

// Mean cross-entropy gradients for a batch: the tape engine's batch
// reduction (defined in per_example.cpp), bitwise equal to the autograd
// oracle's graph. Returns one tensor per model parameter
// (Sequential::parameters() order). out_loss, when non-null, receives
// the batch loss value. Throws fedcl::Error on a layer outside
// nn/layers.h or a label outside [0, classes).
TensorList compute_gradients(const Sequential& model, const Tensor& x,
                             const std::vector<std::int64_t>& labels,
                             double* out_loss = nullptr);

// Evaluates classification accuracy of the model over a dataset given
// as (x, labels), batched to bound peak memory, on the tape's raw
// forward (nn::forward).
double evaluate_accuracy(const Sequential& model, const Tensor& x,
                         const std::vector<std::int64_t>& labels,
                         std::int64_t batch = 64);

}  // namespace fedcl::nn
