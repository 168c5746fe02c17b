// Layer interface and the Sequential container that forms a model.
//
// A "layer" here matches the paper's per-layer clipping granularity
// (Algorithm 2 lines 7-12): each parameterized layer contributes one
// clip group m in 1..M, covering its weight and bias together.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/autograd.h"
#include "tensor/tensor_list.h"

namespace fedcl::nn {

using tensor::Var;
using tensor::list::TensorList;

class Layer {
 public:
  virtual ~Layer() = default;
  // A pure function of the input and the layer's weights.
  virtual Var forward(const Var& x) const = 0;
  // Trainable parameters in a stable order; empty for stateless layers.
  virtual std::vector<Var> parameters() const { return {}; }
  virtual std::string name() const = 0;
};

// Parameter indices belonging to one clip group (one model layer m).
struct LayerGroup {
  std::string name;
  std::vector<std::size_t> param_indices;
};

// A feed-forward stack of layers — the only model topology the paper's
// benchmarks need (CNN with 2 conv + 1 fc; MLP with 2 hidden layers).
class Sequential {
 public:
  Sequential() = default;

  Sequential& add(std::shared_ptr<Layer> layer);
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_shared<L>(std::forward<Args>(args)...));
  }

  Var forward(const Var& x) const;

  std::size_t layer_count() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const;

  // All trainable parameters, ordered by layer.
  const std::vector<Var>& parameters() const { return params_; }
  // One group per *parameterized* layer (M groups for an M-layer model).
  const std::vector<LayerGroup>& layer_groups() const { return groups_; }
  std::size_t parameter_count() const { return params_.size(); }

  // Deep copies of the parameter values (a model snapshot).
  TensorList weights() const;
  // Installs weights (shapes must match) — used to sync the global
  // model into clients each round.
  void set_weights(const TensorList& w);

 private:
  std::vector<std::shared_ptr<Layer>> layers_;
  std::vector<Var> params_;
  std::vector<LayerGroup> groups_;
};

}  // namespace fedcl::nn
