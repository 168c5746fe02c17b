// Gradient computation and per-layer norm helpers shared by the FL
// training loop, the DP policies and the leakage attack surface.
//
// The batch gradient of local training comes from the tape engine
// (nn/per_example.h). Autograd serves the attack, which differentiates
// through backward, and the reference the engine is pinned to.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/autograd.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

using tensor::Gradients;
using tensor::Tensor;

// Mean cross-entropy gradients for a batch: the tape engine's batch
// reduction (defined in per_example.cpp), bitwise equal to
// compute_gradients_reference without building an autograd graph.
// Returns one tensor per model parameter (Sequential::parameters()
// order). out_loss, when non-null, receives the batch loss value.
// Throws fedcl::Error on a layer outside nn/layers.h or a label outside
// [0, classes).
TensorList compute_gradients(const Sequential& model, const Tensor& x,
                             const std::vector<std::int64_t>& labels,
                             double* out_loss = nullptr);

// The same gradients from one autograd graph: the reference the tape is
// pinned to. Only the sliced per-example reference, tests and
// bench_perf_hotpath call it.
TensorList compute_gradients_reference(const Sequential& model,
                                       const Tensor& x,
                                       const std::vector<std::int64_t>& labels,
                                       double* out_loss = nullptr);

// Same but keeps the graph (create_graph) and returns gradient Vars —
// what the reconstruction attack differentiates through.
std::vector<Var> compute_gradient_vars(const Sequential& model, const Var& x,
                                       const std::vector<std::int64_t>& labels);

// Evaluates classification accuracy of the model over a dataset given
// as (x, labels), batched to bound peak memory. No graph is recorded.
double evaluate_accuracy(const Sequential& model, const Tensor& x,
                         const std::vector<std::int64_t>& labels,
                         std::int64_t batch = 64);

}  // namespace fedcl::nn
