// Layer interface and the Sequential container that forms a model.
//
// A "layer" here matches the paper's per-layer clipping granularity
// (Algorithm 2 lines 7-12): each parameterized layer contributes one
// clip group m in 1..M, covering its weight and bias together.
//
// A layer is geometry only. Its parameters are plain Tensors that the
// Sequential owns; the tape engine (nn/per_example.h) runs every layer,
// forward and backward, from that geometry and those tensors.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor_list.h"

namespace fedcl::nn {

using tensor::Tensor;
using tensor::list::TensorList;

class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::string name() const = 0;

  // Moves out the trainable parameters the constructor initialized, in
  // a stable order (empty for stateless layers): Sequential::add takes
  // them over. Throws fedcl::Error on a second call, so one layer cannot
  // sit in two models, the second without its parameters.
  std::vector<Tensor> take_parameters();

 protected:
  std::vector<Tensor> params_;

 private:
  bool taken_ = false;
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

  std::size_t layer_count() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const;

  // All trainable parameters, ordered by layer. The handles share the
  // model's storage: SgdOptimizer steps it in place through them.
  const std::vector<Tensor>& parameters() const { return params_; }
  // One group per *parameterized* layer (M groups for an M-layer model).
  const std::vector<LayerGroup>& layer_groups() const { return groups_; }
  std::size_t parameter_count() const { return params_.size(); }

  // Deep copies of the parameter values (a model snapshot).
  TensorList weights() const;
  // Installs copies of w — used to sync the global model into clients
  // each round. Throws fedcl::Error unless w has one tensor per
  // parameter, each of that parameter's shape.
  void set_weights(const TensorList& w);

 private:
  std::vector<std::shared_ptr<Layer>> layers_;
  std::vector<Tensor> params_;
  std::vector<LayerGroup> groups_;
};

}  // namespace fedcl::nn
