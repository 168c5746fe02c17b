// The test oracle's define-by-run reverse-mode automatic
// differentiation, with support for higher-order gradients. No program
// code links it: the tape engine (nn/per_example.h) is the one model
// engine, and the parity tests pin it to this graph, bitwise for the
// batch gradient and allclose for the attack's forward-over-reverse
// pass (testing/reference.h builds the model graphs).
//
// Design notes:
//  - A Var is a shared handle to a Node holding the forward value, the
//    parent Vars and a VJP (vector-Jacobian product) callback.
//  - Every VJP is implemented *in terms of other ops* (ops.h), so
//    running backward(root, create_graph=true) produces gradients that
//    are themselves differentiable graphs: the reconstruction attack's
//    double backward, which the tape's pass is checked against.
//  - Gradients are returned in an external Gradients map rather than
//    stored on nodes. This avoids shared_ptr cycles (a node's gradient
//    graph usually references the node's parents, sometimes the node
//    itself) and makes successive backward passes independent.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace fedcl::tensor {

class Var;

namespace detail {

struct Node {
  // Iterative teardown: releasing a deep op chain through the implicit
  // destructor would recurse once per node (Var -> shared_ptr<Node> ->
  // parents -> Var ...) and overflow the stack around 20k ops.
  ~Node();

  Tensor value;
  bool requires_grad = false;
  std::vector<Var> parents;
  // Maps the upstream gradient to per-parent gradient contributions.
  // Entries for parents that do not require grad may be undefined Vars.
  std::function<std::vector<Var>(const Var&)> vjp;
  const char* op = "leaf";
};

}  // namespace detail

// Whether newly created ops record the graph (thread-local).
bool grad_mode_enabled();

// RAII switch of the grad mode, used by backward() and user code that
// wants inference-only forward passes.
class GradModeGuard {
 public:
  explicit GradModeGuard(bool enabled);
  ~GradModeGuard();
  GradModeGuard(const GradModeGuard&) = delete;
  GradModeGuard& operator=(const GradModeGuard&) = delete;

 private:
  bool previous_;
};

class Var {
 public:
  // Undefined handle.
  Var() = default;
  // Leaf holding a value. requires_grad leaves are the roots gradients
  // are reported for (parameters, attacked inputs).
  explicit Var(Tensor value, bool requires_grad = false);

  // Interior node; used by ops.
  static Var make_op(Tensor value, std::vector<Var> parents,
                     std::function<std::vector<Var>(const Var&)> vjp,
                     const char* op);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  const Shape& shape() const { return value().shape(); }
  std::int64_t numel() const { return value().numel(); }
  bool requires_grad() const;
  const char* op_name() const;
  bool is_leaf() const;

  // In-place update of a *leaf* value (optimizer step). Rejected for
  // interior nodes because it would silently corrupt recorded graphs.
  void set_value(Tensor value);

  const detail::Node* node() const { return node_.get(); }

 private:
  friend struct detail::Node;  // iterative graph teardown steals node_
  std::shared_ptr<detail::Node> node_;
};

// Result of a backward pass: gradient per reachable requires_grad node.
class Gradients {
 public:
  bool contains(const Var& v) const;
  // Gradient of the backward root w.r.t. v; FEDCL_CHECK-fails when the
  // node was not reached (use contains() to probe).
  Var of(const Var& v) const;
  std::size_t size() const { return grads_.size(); }

 private:
  friend Gradients backward(const Var& root, bool create_graph);
  std::unordered_map<const detail::Node*, Var> grads_;
};

// Reverse-mode sweep from a scalar root (numel == 1, requires_grad).
// With create_graph=true the returned gradients are differentiable
// graphs; otherwise they are constants.
Gradients backward(const Var& root, bool create_graph = false);

}  // namespace fedcl::tensor
