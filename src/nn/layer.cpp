#include "nn/layer.h"

#include "common/error.h"

namespace fedcl::nn {

Sequential& Sequential::add(std::shared_ptr<Layer> layer) {
  FEDCL_CHECK(layer != nullptr);
  std::vector<Var> ps = layer->parameters();
  if (!ps.empty()) {
    LayerGroup group;
    group.name = layer->name();
    for (Var& p : ps) {
      FEDCL_CHECK(p.requires_grad()) << "layer parameter must require grad";
      group.param_indices.push_back(params_.size());
      params_.push_back(p);
    }
    groups_.push_back(std::move(group));
  }
  layers_.push_back(std::move(layer));
  return *this;
}

Var Sequential::forward(const Var& x) const {
  FEDCL_CHECK(!layers_.empty()) << "forward on empty model";
  Var h = x;
  for (const auto& layer : layers_) h = layer->forward(h);
  return h;
}

const Layer& Sequential::layer(std::size_t i) const {
  FEDCL_CHECK_LT(i, layers_.size());
  return *layers_[i];
}

TensorList Sequential::weights() const {
  TensorList out;
  out.reserve(params_.size());
  for (const Var& p : params_) out.push_back(p.value().clone());
  return out;
}

void Sequential::set_weights(const TensorList& w) {
  FEDCL_CHECK_EQ(w.size(), params_.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    params_[i].set_value(w[i].clone());
  }
}

}  // namespace fedcl::nn
