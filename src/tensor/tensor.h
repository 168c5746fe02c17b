// Dense float32 tensor with shared, contiguous storage.
//
// This is the numeric substrate under the tape gradient engine
// (nn/per_example.h) and the DP machinery. Tensors are cheap to copy
// (storage is shared); clone() deep-copies. All math functions allocate
// a fresh result; the *_ suffixed members mutate in place, through
// every handle that shares the storage, and are used by the SGD step on
// a model's parameters and update arithmetic on detached buffers.
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

  // ---- in-place mutation (every handle sharing the storage sees it) ----
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

// ---- elementwise with scalar ----
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- elementwise unary ----
Tensor relu(const Tensor& a);
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

// x: [N,C] -> [C] (sum over rows): a bias gradient.
Tensor col_sum(const Tensor& x);

bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace fedcl::tensor
