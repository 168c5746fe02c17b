#include "nn/layer.h"

#include <utility>

#include "common/error.h"

namespace fedcl::nn {

std::vector<Tensor> Layer::take_parameters() {
  FEDCL_CHECK(!taken_) << "layer " << name() << " is already in a model";
  taken_ = true;
  return std::exchange(params_, {});
}

Sequential& Sequential::add(std::shared_ptr<Layer> layer) {
  FEDCL_CHECK(layer != nullptr);
  std::vector<Tensor> ps = layer->take_parameters();
  if (!ps.empty()) {
    LayerGroup group;
    group.name = layer->name();
    for (Tensor& p : ps) {
      group.param_indices.push_back(params_.size());
      params_.push_back(std::move(p));
    }
    groups_.push_back(std::move(group));
  }
  layers_.push_back(std::move(layer));
  return *this;
}

const Layer& Sequential::layer(std::size_t i) const {
  FEDCL_CHECK_LT(i, layers_.size());
  return *layers_[i];
}

TensorList Sequential::weights() const { return tensor::list::clone(params_); }

void Sequential::set_weights(const TensorList& w) {
  FEDCL_CHECK_EQ(w.size(), params_.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    FEDCL_CHECK(w[i].shape() == params_[i].shape())
        << "weight " << i << " has shape " << tensor::shape_str(w[i].shape())
        << ", the model's parameter "
        << tensor::shape_str(params_[i].shape());
  }
  for (std::size_t i = 0; i < w.size(); ++i) params_[i] = w[i].clone();
}

}  // namespace fedcl::nn
