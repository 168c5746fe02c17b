// Runs a privacy policy's per-example hook on one example's gradient,
// and slices one example out of a batch.
//
// The hook takes a batch; a single example goes through it as a
// one-example batch, which draws the one noise key an example of a
// larger batch would draw from the same stream, and its sanitized
// gradient comes back as the hook's observed example.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "core/policy.h"
#include "tensor/tensor_list.h"

namespace fedcl::testing {

inline void sanitize_one_example(const core::PrivacyPolicy& policy,
                                 tensor::list::TensorList& grad,
                                 const core::ParamGroups& groups,
                                 std::int64_t round, Rng& rng) {
  grad = policy
             .sanitize_per_example_batch(tensor::list::as_one_example(grad),
                                         groups, round, rng, 0)
             .observed;
}

// Example j of a batch as a one-example batch in the same forms: row j
// of every rows, a and delta tensor, copied.
inline tensor::list::PerExampleGrads slice_example(
    const tensor::list::PerExampleGrads& grads, std::int64_t j) {
  auto row_of = [&](const tensor::Tensor& t) {
    if (!t.defined()) return tensor::Tensor();
    const std::int64_t width = t.numel() / grads.batch;
    tensor::Tensor row({1, width});
    std::memcpy(row.data(), t.data() + j * width,
                sizeof(float) * static_cast<std::size_t>(width));
    return row;
  };
  tensor::list::PerExampleGrads one;
  one.batch = 1;
  one.shapes = grads.shapes;
  for (const tensor::list::PerExampleParam& p : grads.params) {
    tensor::list::PerExampleParam& q = one.params.emplace_back();
    q.rows = row_of(p.rows);
    q.a = row_of(p.a);
    q.delta = row_of(p.delta);
  }
  return one;
}

}  // namespace fedcl::testing
