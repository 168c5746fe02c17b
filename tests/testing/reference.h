// The autograd oracle of the tape engine: each layer's forward written
// once more as a graph of testing/ops.h, and the gradients the tape is
// pinned to.
//
// The graph forward runs the kernels the tape's forward runs, in the
// same order, so its logits are bitwise the tape's
// (PerExampleEngine.ForwardLogitsMatchOracleBitwise); its batch
// gradient is bitwise the tape's batch reduction
// (PerExampleEngine.BatchGradientMatchesAutogradBitwise); and its double
// backward is the reference for the attack's forward-over-reverse pass
// (ModelGradCheck.GradientDotInputGrad*). bench_perf_hotpath's
// reference legs time it too.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor_list.h"
#include "testing/autograd.h"

namespace fedcl::nn {

using tensor::Var;

// The model's parameters as autograd leaves sharing their storage.
std::vector<Var> parameter_vars(const Sequential& model, bool requires_grad);

// The model's forward as one graph over the given parameter leaves
// (parameter_vars order). Throws fedcl::Error on a layer outside
// nn/layers.h and on an empty model.
Var graph_forward(const Sequential& model, const std::vector<Var>& params,
                  const Var& x);
// The same with constant parameters: a graph in x only.
Var graph_forward(const Sequential& model, const Var& x);

// Mean softmax cross-entropy over the batch. logits: [N,C]. Composed
// from differentiable primitives, so it supports double backward.
Var softmax_cross_entropy(const Var& logits,
                          const std::vector<std::int64_t>& labels);

// The mean cross-entropy gradients from one graph: the reference the
// tape's batch reduction is pinned to. out_loss, when non-null,
// receives the loss.
TensorList compute_gradients_reference(const Sequential& model,
                                       const Tensor& x,
                                       const std::vector<std::int64_t>& labels,
                                       double* out_loss = nullptr);

// The same gradients as graphs in x (create_graph): what the attack's
// double backward differentiates.
std::vector<Var> compute_gradient_vars(const Sequential& model, const Var& x,
                                       const std::vector<std::int64_t>& labels);

// B single-example graphs — the computation the per-example engine
// replaces — in row form for every parameter.
tensor::list::PerExampleGrads compute_per_example_gradients_sliced(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr);

// Overwrites example j's rows of a row-form batch from a TensorList in
// the original shapes.
void set_example(tensor::list::PerExampleGrads& grads, std::int64_t j,
                 const TensorList& example);

}  // namespace fedcl::nn
