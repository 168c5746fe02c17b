// The tape engine, the one model engine: one batched forward, one
// backward walk, two reductions, and a forward-over-reverse pass for the
// leakage attack.
//
// The forward runs the model's layers on raw tensors and records what
// each backward step needs (a tape); nn::forward runs it without
// recording. The backward walk is written once and runs the same dX
// step per layer for both reductions; they differ only in the seed and
// at the two parameterized layers (Linear, Conv):
//
//  - Per-example (Fed-CDP, Algorithm 2). The loss is seeded with each
//    example's own softmax-cross-entropy gradient (softmax(z) - onehot,
//    no 1/B). No layer mixes rows across the batch dimension, so the
//    batched backward delta restricted to example j IS that example's
//    delta, and its weight gradients are exact products:
//
//      Dense:  grad_W[j] = a_j^T delta_j            (outer product)
//      Conv:   grad_W[j] = cols_j^T delta_j         (im2col column slice)
//
//    A Linear layer hands over the factors it already holds,
//    activations A [B, in] and deltas Delta [B, out] (its bias shares
//    Delta), and never writes its [B, in * out] rows; a Conv layer
//    writes its [B, numel] rows. The DP policies clip, noise and
//    average either form in one pass (dp/fused_sanitize.h).
//
//  - Batch (every other policy, through nn::compute_gradients). The
//    seed is the autograd VJP of the mean loss written step for step
//    (row max, exp, a double row sum S, q = (1/B)/S, q*e, then -1/B
//    at the label), and Linear and Conv write dW = matmul_tn(A or
//    cols, Delta) and db = col_sum(Delta) over the whole batch. Every
//    step calls the kernel, or repeats the arithmetic, of the VJP it
//    replaces, so the result is bitwise the graph of the test-only
//    autograd oracle (tests/testing/reference.h), loss included
//    (PerExampleEngine.BatchGradientMatchesAutogradBitwise). The one
//    exception lies below every model-zoo shape: a Conv after the
//    first parameterized layer whose batch has fewer than 16 output
//    positions, where the oracle's matmul_nt takes its dot-product form
//    and the fused conv_input_grad does not (DESIGN.md §7).
//
// Both reductions take activation derivatives as autograd does (relu
// d * mask, sigmoid d * (y * (1 - y)), tanh d * (1 - y^2)) and stop dX
// at the first parameterized layer. per_example.cpp is compiled with
// -ffp-contract=off (src/nn/CMakeLists.txt): the oracle's separate ops
// never fuse a multiply-add, so under an FMA-capable -march the tape
// must not either.
//
// The attack's pass (input_grad_of_gradient_dot) reuses the batch
// reduction's forward and walk, keeping each node's delta, then carries
// a parameter tangent v forward through every layer and walks a second
// adjoint back to the input: Linear and Conv add delta V^T to their dX,
// activations add sigma''(a) a' delta, and the loss starts it with its
// Hessian-vector product. It is allclose, not bitwise, to the oracle's
// double backward (ModelGradCheck.GradientDotInputGrad*).
//
// The engine covers every layer class in nn/layers.h (Linear, Conv2d,
// AvgPool2d, Flatten, InputScale, activations); a model with any other
// Layer throws fedcl::Error, as does a label outside [0, classes).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

using tensor::Tensor;

// Per-example reduction. x: [B, ...], labels: size B. Returns every
// model parameter's per-example gradients, in Sequential::parameters()
// order: factors for Linear layers, rows for Conv layers. The factors
// share storage with x and the engine's intermediates. out_loss, when
// non-null, receives the mean cross-entropy loss.
tensor::list::PerExampleGrads compute_per_example_gradients(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr);

// The model's logits for x: the tape's forward without the tape.
Tensor forward(const Sequential& model, const Tensor& x);

// The tape's AvgPool2d steps on NHWC tensors, kernel == stride == k:
// the forward, and the input gradient for an output gradient g of an
// input of in_shape. Exposed so benches can time a pool by itself.
Tensor avg_pool(const Tensor& h, std::int64_t k);
Tensor avg_pool_grad(const Tensor& g, const tensor::Shape& in_shape,
                     std::int64_t k);

// grad_x <grad_theta L(x), v> for the mean cross-entropy L, where
// v = direction(g) is chosen from g = grad_theta L(x), the batch
// gradient of the same forward (bitwise compute_gradients'), one tensor
// per parameter in g's shapes. One tape forward and batch walk give g;
// the pass then carries v forward as a tangent and walks two adjoints
// back to x, two to three batch gradients in all. The gradient-matching
// objective ||mask * (g - g*)||^2 has input gradient
// grad_x <g, 2 mask * (g - g*)>. out_loss as in compute_gradients.
Tensor input_grad_of_gradient_dot(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels,
    const std::function<TensorList(const TensorList& grad)>& direction,
    double* out_loss = nullptr);

}  // namespace fedcl::nn
