#include "nn/optimizer.h"

#include "common/error.h"

namespace fedcl::nn {

SgdOptimizer::SgdOptimizer(double learning_rate) : lr_(learning_rate) {
  FEDCL_CHECK_GT(learning_rate, 0.0);
}

void SgdOptimizer::step(Sequential& model, const TensorList& grads) {
  const std::vector<Tensor>& params = model.parameters();
  FEDCL_CHECK_EQ(params.size(), grads.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    FEDCL_CHECK(params[i].shape() == grads[i].shape())
        << "grad shape mismatch at param " << i;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor p = params[i];  // shares the model's storage
    p.add_(grads[i], static_cast<float>(-lr_));
  }
}

}  // namespace fedcl::nn
