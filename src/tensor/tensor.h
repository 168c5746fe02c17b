// Dense float32 tensor with shared, contiguous storage.
//
// This is the numeric substrate under the autograd engine (autograd.h)
// and the DP machinery. Tensors are cheap to copy (storage is shared);
// clone() deep-copies. All math functions allocate a fresh result; the
// *_  suffixed members mutate in place and are used by the SGD
// optimizer and update arithmetic on detached buffers only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/shape.h"

namespace fedcl {
class Rng;
}

namespace fedcl::tensor {

class Tensor {
 public:
  // Empty (undefined) tensor; defined() is false.
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor from_vector(Shape shape, std::vector<float> values);
  // i.i.d. N(mean, stddev^2) entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  // i.i.d. U[lo, hi) entries.
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f,
                        float hi = 1.0f);
  // 1-element tensor holding value.
  static Tensor scalar(float value);

  bool defined() const { return data_ != nullptr; }
  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return numel_; }
  std::size_t ndim() const { return shape_.size(); }
  std::int64_t dim(std::size_t i) const;

  float* data();
  const float* data() const;
  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  // Scalar value of a 1-element tensor.
  float item() const;
  std::vector<float> to_vector() const;

  // Shares storage; numel must match.
  Tensor reshape(Shape shape) const;
  // Deep copy.
  Tensor clone() const;

  // ---- in-place mutation (storage must not be aliased into a live
  // autograd graph; callers operate on detached buffers) ----
  Tensor& fill_(float value);
  Tensor& add_(const Tensor& other, float alpha = 1.0f);  // this += alpha*other
  Tensor& scale_(float s);

  // ---- reductions over all elements ----
  float sum() const;
  float l2_norm() const;

 private:
  Shape shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

// ---- elementwise binary (same shape) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---- elementwise with scalar ----
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary ----
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor relu(const Tensor& a);
// 1 where a > 0 else 0 (the ReLU mask).
Tensor step_mask(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);

// ---- linear algebra ----
// NN and TN products run one register-tiled body (tensor.cpp) and, for
// large shapes, split output rows across the shared compute pool. Each
// output element is one chain, acc = a_0 b_0 then acc += a_k b_k in
// ascending k, added into the output once; a step is one fused
// multiply-add where the kernel's ISA contracts (tensor/simd.h,
// fedcl_host_isa). No element depends on its row block, column or
// thread, so results are bitwise identical for any thread count.
// matmul_nt with fewer than 16 rows is the dot form (multiply, then
// add, never fused); with more, the NN chain over b^T.
// a: [M,K], b: [K,N] -> [M,N]
Tensor matmul(const Tensor& a, const Tensor& b);
// a: [K,M], b: [K,N] -> a^T b [M,N], without materializing a^T.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
// a: [M,K], b: [N,K] -> a b^T [M,N], without materializing b^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// Raw serial kernels over contiguous row-major buffers, accumulating
// into out (callers zero-initialize). The per-example gradient engine
// runs them on per-example sub-matrix slices of a batch buffer.
void matmul_nn_into(const float* a, const float* b, float* out,
                    std::int64_t m, std::int64_t k, std::int64_t n);
// a: [K,M] column-addressed -> out += a^T b, out: [M,N].
void matmul_tn_into(const float* a, const float* b, float* out,
                    std::int64_t k, std::int64_t m, std::int64_t n);

// Sum of the squares of p[0, n) in double, summed in eight lanes
// (tensor/simd.h gives the order); the same bits on every ISA. Behind
// Tensor::l2_norm and the clip norm of a per-example row.
double sum_squares(const float* p, std::int64_t n);

float dot(const Tensor& a, const Tensor& b);

// ---- structured reductions / broadcasts used by autograd vjps ----
// x: [N,C] -> [N,1]
Tensor row_sum(const Tensor& x);
// x: [N,C] -> [N,1], maximum per row
Tensor row_max(const Tensor& x);
// x: [N,1] -> [N,C] (repeat each row value C times)
Tensor broadcast_col(const Tensor& x, std::int64_t c);
// x: [N,C] -> [C] (sum over rows)
Tensor col_sum(const Tensor& x);
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

bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace fedcl::tensor
