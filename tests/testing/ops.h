// Differentiable operations on Var, the test oracle's ops.
//
// Every op's VJP is itself written with these ops, so gradients are
// differentiable graphs when backward(create_graph=true) is used.
// Shape contracts mirror the raw tensor functions in tensor.h and the
// ones below, which only the oracle reaches.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "testing/autograd.h"

namespace fedcl::tensor {

// ---- raw functions only the oracle's ops and their tests use ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
// 1 where a > 0 else 0 (the ReLU mask).
Tensor step_mask(const Tensor& a);
// Sum of a * b accumulated in double.
float dot(const Tensor& a, const Tensor& b);
// x: [N,C] -> [N,1]
Tensor row_sum(const Tensor& x);
// x: [N,C] -> [N,1], maximum per row
Tensor row_max(const Tensor& x);
// x: [N,1] -> [N,C] (repeat each row value C times)
Tensor broadcast_col(const Tensor& x, std::int64_t c);
// x: [C] -> [N,C]
Tensor broadcast_row(const Tensor& x, std::int64_t n);
// x: [1] -> given shape (repeat scalar)
Tensor expand_scalar(const Tensor& x, const Shape& shape);
// all-elements sum -> [1]
Tensor sum_all(const Tensor& x);
// x: [N,C], idx: size-N labels -> [N,1] with x[i, idx[i]]
Tensor pick(const Tensor& x, const std::vector<std::int64_t>& idx);
// s: [N,1], idx -> [N,C] zeros with s[i] at column idx[i]
Tensor scatter(const Tensor& s, const std::vector<std::int64_t>& idx,
               std::int64_t c);
// Adjoint of im2col: cols [N*OH*OW, KH*KW*C] -> [N, H, W, C], with
// overlapping patches accumulated one element at a time in row order,
// the order conv_input_grad's span scatter keeps.
Tensor col2im(const Tensor& cols, const ConvSpec& spec, std::int64_t n);

}  // namespace fedcl::tensor

namespace fedcl::tensor::ops {

// Constant leaf (requires_grad = false).
Var constant(Tensor value);

// ---- elementwise binary (same shape) ----
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);

// ---- scalar variants ----
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);

// ---- unary ----
Var neg(const Var& a);
Var exp(const Var& a);
Var log(const Var& a);
Var relu(const Var& a);
Var sigmoid(const Var& a);
Var tanh(const Var& a);
Var square(const Var& a);

// ---- linear algebra ----
Var matmul(const Var& a, const Var& b);
// a: [K,M], b: [K,N] -> a^T b. Transpose-aware: no transposed copy is
// materialized, and the VJPs of all three matmul variants are written
// in terms of each other, so backward passes stay copy-free too.
Var matmul_tn(const Var& a, const Var& b);
// a: [M,K], b: [N,K] -> a b^T.
Var matmul_nt(const Var& a, const Var& b);

// ---- shape ----
Var reshape(const Var& a, Shape shape);

// ---- reductions / broadcasts ----
Var sum_all(const Var& a);                        // -> [1]
Var expand_scalar(const Var& a, Shape shape);     // [1] -> shape
Var row_sum(const Var& a);                        // [N,C] -> [N,1]
Var broadcast_col(const Var& a, std::int64_t c);  // [N,1] -> [N,C]
Var col_sum(const Var& a);                        // [N,C] -> [C]
Var broadcast_row(const Var& a, std::int64_t n);  // [C] -> [N,C]
// x[N,C] + row vector b[C]
Var add_rowvec(const Var& x, const Var& b);
// Per-row max as a *constant* (used for numerically stable logsumexp;
// the max shift cancels analytically, so detaching it is exact).
Var row_max_detached(const Var& a);

// ---- indexing ----
Var pick(const Var& x, std::vector<std::int64_t> idx);  // [N,C] -> [N,1]
Var scatter(const Var& s, std::vector<std::int64_t> idx,
            std::int64_t c);  // [N,1] -> [N,C]

// ---- convolution support ----
Var im2col(const Var& x, const ConvSpec& spec);
Var col2im(const Var& cols, const ConvSpec& spec, std::int64_t n);

// ---- composites ----
// Sum of squares of all elements: sum_all(square(a)).
Var l2_norm_squared(const Var& a);

}  // namespace fedcl::tensor::ops
