// SGD optimizer stepping a model's parameters in place with externally
// supplied gradients.
//
// Gradients arrive as raw TensorLists because the DP policies sanitize
// them numerically (clip + noise) before the descent step — exactly
// Algorithm 2 lines 13-15.
#pragma once

#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

// Plain SGD, the paper's setting.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate);

  // params[i] += (-lr) * grads[i], in place, for every parameter of the
  // model; throws fedcl::Error on a count or shape mismatch.
  void step(Sequential& model, const TensorList& grads);

 private:
  double lr_;
};

}  // namespace fedcl::nn
