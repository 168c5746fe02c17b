#include "nn/optimizer.h"

#include "common/error.h"

namespace fedcl::nn {

SgdOptimizer::SgdOptimizer(double learning_rate) : lr_(learning_rate) {
  FEDCL_CHECK_GT(learning_rate, 0.0);
}

void SgdOptimizer::step(std::vector<Var>& params, const TensorList& grads) {
  FEDCL_CHECK_EQ(params.size(), grads.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    FEDCL_CHECK(params[i].value().shape() == grads[i].shape())
        << "grad shape mismatch at param " << i;
    tensor::Tensor updated = params[i].value().clone();
    updated.add_(grads[i], static_cast<float>(-lr_));
    params[i].set_value(std::move(updated));
  }
}

}  // namespace fedcl::nn
