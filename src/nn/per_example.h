// Batched per-example gradient engine (the Goodfellow trick).
//
// Fed-CDP (Algorithm 2) needs every example's own parameter gradient,
// not just the batch mean. The naive implementation runs B separate
// forward/backward graphs per local iteration. This engine runs ONE
// batched forward and ONE batched backward and recovers each example's
// weight gradients per layer from the cached input activations and
// output deltas:
//
//   Dense:  grad_W[j] = a_j^T delta_j            (outer product)
//   Conv:   grad_W[j] = cols_j^T delta_j         (im2col column slice)
//
// The loss is seeded with each example's own softmax-cross-entropy
// gradient (softmax(z) - onehot, no 1/B), and since no layer mixes
// rows across the batch dimension, the batched backward delta restricted
// to example j IS that example's delta — so the outer products above
// are exact, not approximations. Results match the sliced reference
// to float rounding (~1e-6 relative).
//
// Gradients come back in PerExampleGrads. A Linear layer hands over
// the factors it already holds, activations A [B, in] and deltas
// Delta [B, out] (its bias shares Delta), and never writes its
// [B, in * out] rows; a Conv layer writes its [B, numel] rows. The DP
// policies clip, noise and average either form in one pass
// (dp/fused_sanitize.h).
//
// This engine is the only per-example path of local training. It
// covers every layer class in nn/layers.h (Linear, Conv2d, AvgPool2d,
// MaxPool2d, Dropout, Flatten, InputScale, activations); a model with
// any other Layer throws fedcl::Error.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

using tensor::Tensor;

// Batched engine: one forward + one backward over the whole batch.
// x: [B, ...], labels: size B. Returns every model parameter's
// per-example gradients, in Sequential::parameters() order: factors
// for Linear layers, rows for Conv layers. The factors share storage
// with x and the engine's intermediates. out_loss,
// when non-null, receives the mean cross-entropy loss. Throws
// fedcl::Error on a layer outside nn/layers.h.
tensor::list::PerExampleGrads compute_per_example_gradients(
    Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr);

// Reference implementation: B single-example autograd graphs — the
// exact computation the engine replaces — in row form for every
// parameter. Only the parity tests and bench_perf_hotpath's baseline
// legs call it.
tensor::list::PerExampleGrads compute_per_example_gradients_sliced(
    Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr);

}  // namespace fedcl::nn
