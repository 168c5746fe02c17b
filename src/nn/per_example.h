// The tape gradient engine: one batched forward, one backward walk,
// two reductions.
//
// The forward runs the model's layers on raw tensors and records what
// each backward step needs (a tape). The backward walk is written once
// and runs the same dX step per layer for both reductions; they differ
// only in the seed and at the two parameterized layers (Linear, Conv):
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
//    seed is autograd's VJP of the mean loss written step for step
//    (row max, exp, a double row sum S, q = (1/B)/S, q*e, then -1/B
//    at the label), and Linear and Conv write dW = matmul_tn(A or
//    cols, Delta) and db = col_sum(Delta) over the whole batch. Every
//    step calls the kernel, or repeats the arithmetic, of the VJP it
//    replaces, so the result is bitwise the autograd graph's
//    (compute_gradients_reference), loss included
//    (PerExampleEngine.BatchGradientMatchesAutogradBitwise). The one
//    exception lies below every model-zoo shape: a Conv after the
//    first parameterized layer whose batch has fewer than 16 output
//    positions, where autograd's matmul_nt takes its dot-product form
//    and the fused conv_input_grad does not (DESIGN.md §7).
//
// Both reductions take activation derivatives as autograd does (relu
// d * mask, sigmoid d * (y * (1 - y)), tanh d * (1 - y^2)) and stop dX
// at the first parameterized layer. per_example.cpp is compiled with
// -ffp-contract=off (src/nn/CMakeLists.txt): autograd's separate ops
// never fuse a multiply-add, so under an FMA-capable -march the tape
// must not either.
//
// The engine covers every layer class in nn/layers.h (Linear, Conv2d,
// AvgPool2d, Flatten, InputScale, activations); a model with any other
// Layer throws fedcl::Error, as does a label outside [0, classes).
#pragma once

#include <cstdint>
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

// Reference implementation: B single-example autograd graphs — the
// exact computation the engine replaces — in row form for every
// parameter. Only the parity tests and bench_perf_hotpath's baseline
// legs call it.
tensor::list::PerExampleGrads compute_per_example_gradients_sliced(
    const Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr);

}  // namespace fedcl::nn
