// Helpers over ordered lists of tensors (one list entry per model
// parameter). Model updates, gradients and DP sanitization all operate
// on such lists.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace fedcl::tensor::list {

using TensorList = std::vector<Tensor>;

TensorList zeros_like(const TensorList& a);
TensorList clone(const TensorList& a);
// a += alpha * b (elementwise per entry; shapes must match).
void add_(TensorList& a, const TensorList& b, float alpha = 1.0f);
void scale_(TensorList& a, float s);
// L2 norm over the concatenation of all entries.
double l2_norm(const TensorList& a);
double l2_norm_subset(const TensorList& a, const std::vector<std::size_t>& idx);
std::int64_t total_numel(const TensorList& a);

std::vector<Shape> shapes_of(const TensorList& a);

bool allclose(const TensorList& a, const TensorList& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// One parameter's per-example gradients, in one of two forms.
//  - Rows: `rows` is a [B, numel] matrix whose row j is example j's
//    gradient, flattened (Conv layers, and the sliced reference).
//  - Factors (`rows` undefined): the gradient is never written out.
//    For a Linear weight [in, out], example j's gradient is the outer
//    product of row j of `a` [B, in] and row j of `delta` [B, out]:
//    element r * out + c is a[j, r] * delta[j, c], one float multiply.
//    For a Linear bias `a` is undefined and example j's gradient is
//    row j of `delta` itself (the weight's delta, shared).
struct PerExampleParam {
  Tensor rows;
  Tensor a;
  Tensor delta;

  bool factored() const { return !rows.defined(); }
};

// Batched per-example gradients of one local iteration, one entry per
// model parameter in Sequential::parameters() order. The DP sanitizer
// (dp/fused_sanitize.h) reads either form and writes only the batch
// mean, so a Linear layer's [B, in * out] rows never exist.
struct PerExampleGrads {
  std::int64_t batch = 0;
  // Original parameter shapes (example j's gradient of params[p]
  // reshapes to shapes[p]).
  std::vector<Shape> shapes;
  std::vector<PerExampleParam> params;

  bool empty() const { return params.empty(); }
  // Example j's gradient as a TensorList in the original shapes (copy;
  // factors are multiplied out).
  TensorList example(std::int64_t j) const;
};

// Zero-initialized row-form batch for the given parameter shapes.
PerExampleGrads make_per_example(std::int64_t batch,
                                 std::vector<Shape> shapes);

// `a` viewed as a one-example row-form batch: each tensor is its own
// [1, numel] row, sharing storage with `a` (no copy).
PerExampleGrads as_one_example(const TensorList& a);

}  // namespace fedcl::tensor::list
