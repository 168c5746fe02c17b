// Clip groups for L2-norm clipping, plus the clipping-bound schedules
// behind Fed-CDP(decay). The clip itself is part of the fused
// sanitizer (dp/fused_sanitize.h), which both policies run.
//
// Grouping follows the paper's Algorithms 1 and 2: each model layer m
// (weight + bias of one parameterized layer) is clipped independently
// to the bound C. Groups are expressed as parameter-index lists so
// this module does not depend on the nn layer types.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor_list.h"

namespace fedcl::dp {

using tensor::list::TensorList;
using ParamGroups = std::vector<std::vector<std::size_t>>;

// Treats all parameters as a single group.
ParamGroups single_group(std::size_t param_count);

// Clipping-bound schedule over federated rounds. Fed-CDP uses
// kConstant; Fed-CDP(decay) uses kLinear (paper: C=6 -> C=2 over T
// rounds). Exponential and step decay are provided for the ablation
// bench.
class ClippingSchedule {
 public:
  static ClippingSchedule constant(double c);
  // c0 at round 0 decaying linearly to c1 at round total_rounds-1.
  static ClippingSchedule linear(double c0, double c1,
                                 std::int64_t total_rounds);
  // c0 * rate^round (0 < rate <= 1).
  static ClippingSchedule exponential(double c0, double rate);
  // c0 scaled by `factor` every `every` rounds.
  static ClippingSchedule step(double c0, double factor, std::int64_t every);

  double bound_at(std::int64_t round) const;

 private:
  enum class Kind { kConstant, kLinear, kExponential, kStep };
  Kind kind_ = Kind::kConstant;
  double c0_ = 1.0;
  double c1_ = 1.0;
  double rate_ = 1.0;
  std::int64_t span_ = 1;
};

}  // namespace fedcl::dp
