// SGD optimizer operating on a model's parameter Vars with externally
// supplied gradients.
//
// Gradients arrive as raw TensorLists (not Vars) because the DP
// policies sanitize them numerically (clip + noise) outside the graph
// before the descent step — exactly Algorithm 2 lines 13-15.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

// Plain SGD, the paper's setting.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate);

  // params[i] -= lr * grads[i].
  void step(std::vector<Var>& params, const TensorList& grads);

 private:
  double lr_;
};

}  // namespace fedcl::nn
