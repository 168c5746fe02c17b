// Helpers over ordered lists of tensors (one list entry per model
// parameter). Model updates, gradients and DP sanitization all operate
// on such lists.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace fedcl {
class Rng;
}

namespace fedcl::tensor::list {

using TensorList = std::vector<Tensor>;

TensorList zeros_like(const TensorList& a);
TensorList clone(const TensorList& a);
// a += alpha * b (elementwise per entry; shapes must match).
void add_(TensorList& a, const TensorList& b, float alpha = 1.0f);
void scale_(TensorList& a, float s);
void add_gaussian_noise_(TensorList& a, Rng& rng, float stddev);
// L2 norm over the concatenation of all entries.
double l2_norm(const TensorList& a);
double l2_norm_subset(const TensorList& a, const std::vector<std::size_t>& idx);
std::int64_t total_numel(const TensorList& a);

// Concatenate all entries into one flat [total] tensor.
Tensor flatten(const TensorList& a);
// Inverse of flatten given the original shapes.
TensorList unflatten(const Tensor& flat, const std::vector<Shape>& shapes);
std::vector<Shape> shapes_of(const TensorList& a);

bool allclose(const TensorList& a, const TensorList& b, float atol = 1e-5f,
              float rtol = 1e-4f);

// Batched per-example gradients: for each model parameter p, rows[p]
// is a [B, numel(p)] matrix whose row j is example j's gradient of
// that parameter, flattened. This is the layout the batched Fed-CDP
// path works in — per-example clipping and noising operate on rows in
// place, so no per-example TensorList is ever materialized.
struct PerExampleGrads {
  std::int64_t batch = 0;
  // Original parameter shapes (row r of rows[p] reshapes to shapes[p]).
  std::vector<Shape> shapes;
  TensorList rows;

  bool empty() const { return rows.empty(); }
  // Example j's gradient as a TensorList in the original shapes (copy).
  TensorList example(std::int64_t j) const;
  // Overwrites example j's rows from a TensorList in original shapes.
  void set_example(std::int64_t j, const TensorList& grads);
  // Mean over examples, in the original parameter shapes.
  TensorList mean() const;
};

// Zero-initialized batched layout for the given parameter shapes.
PerExampleGrads make_per_example(std::int64_t batch,
                                 std::vector<Shape> shapes);

}  // namespace fedcl::tensor::list
