// Runs a privacy policy's per-example hook on one example's gradient.
//
// The hook takes batched [B, numel] rows; a single example goes through
// it as a one-row batch, which draws the one noise key a row of a
// larger batch would draw from the same stream.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "core/policy.h"
#include "tensor/tensor_list.h"

namespace fedcl::testing {

inline void sanitize_one_example(const core::PrivacyPolicy& policy,
                                 tensor::list::TensorList& grad,
                                 const core::ParamGroups& groups,
                                 std::int64_t round, Rng& rng) {
  tensor::list::PerExampleGrads rows =
      tensor::list::make_per_example(1, tensor::list::shapes_of(grad));
  rows.set_example(0, grad);
  policy.sanitize_per_example_batch(rows, groups, round, rng);
  grad = rows.example(0);
}

}  // namespace fedcl::testing
