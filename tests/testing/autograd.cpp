#include "testing/autograd.h"

#include <unordered_set>

#include "common/error.h"
#include "testing/ops.h"

namespace fedcl::tensor {

namespace {
thread_local bool g_grad_mode = true;
}  // namespace

bool grad_mode_enabled() { return g_grad_mode; }

namespace detail {

Node::~Node() {
  // Clearing the VJP closure first is safe and shallow: its captured
  // Vars duplicate references the parents vector still holds, so no
  // node is released yet.
  vjp = nullptr;
  // Steal sole-owned parent nodes into an explicit worklist and retire
  // them one at a time. Each popped node has its own links severed the
  // same way before it is released, so the implicit recursive unwind
  // (this node -> parents -> their parents -> ...) never happens and
  // stack use stays constant regardless of graph depth.
  std::vector<std::shared_ptr<Node>> pending;
  auto steal_parents = [&pending](std::vector<Var>& parents) {
    for (Var& p : parents) {
      if (p.node_ != nullptr && p.node_.use_count() == 1) {
        pending.push_back(std::move(p.node_));
      }
    }
    parents.clear();
  };
  steal_parents(parents);
  while (!pending.empty()) {
    std::shared_ptr<Node> n = std::move(pending.back());
    pending.pop_back();
    n->vjp = nullptr;
    steal_parents(n->parents);
    // n releases here with no remaining links: trivial destructor body.
  }
}

}  // namespace detail

GradModeGuard::GradModeGuard(bool enabled) : previous_(g_grad_mode) {
  g_grad_mode = enabled;
}

GradModeGuard::~GradModeGuard() { g_grad_mode = previous_; }

Var::Var(Tensor value, bool requires_grad)
    : node_(std::make_shared<detail::Node>()) {
  FEDCL_CHECK(value.defined()) << "Var from undefined tensor";
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var Var::make_op(Tensor value, std::vector<Var> parents,
                 std::function<std::vector<Var>(const Var&)> vjp,
                 const char* op) {
  bool needs = false;
  if (g_grad_mode) {
    for (const Var& p : parents) {
      FEDCL_CHECK(p.defined()) << "undefined parent for op " << op;
      needs = needs || p.requires_grad();
    }
  }
  if (!needs) {
    // Truncate the graph: constant result, no recorded parents.
    return Var(std::move(value), /*requires_grad=*/false);
  }
  Var v;
  v.node_ = std::make_shared<detail::Node>();
  v.node_->value = std::move(value);
  v.node_->requires_grad = true;
  v.node_->parents = std::move(parents);
  v.node_->vjp = std::move(vjp);
  v.node_->op = op;
  return v;
}

const Tensor& Var::value() const {
  FEDCL_CHECK(defined()) << "value() on undefined Var";
  return node_->value;
}

bool Var::requires_grad() const { return defined() && node_->requires_grad; }

const char* Var::op_name() const {
  FEDCL_CHECK(defined());
  return node_->op;
}

bool Var::is_leaf() const {
  FEDCL_CHECK(defined());
  return node_->parents.empty() && !node_->vjp;
}

void Var::set_value(Tensor value) {
  FEDCL_CHECK(defined());
  FEDCL_CHECK(is_leaf()) << "set_value on interior node " << node_->op;
  FEDCL_CHECK(value.shape() == node_->value.shape())
      << "set_value shape mismatch";
  node_->value = std::move(value);
}

bool Gradients::contains(const Var& v) const {
  return v.defined() && grads_.count(v.node()) > 0;
}

Var Gradients::of(const Var& v) const {
  FEDCL_CHECK(v.defined());
  auto it = grads_.find(v.node());
  FEDCL_CHECK(it != grads_.end())
      << "no gradient recorded for node op=" << v.op_name()
      << " (not reachable from backward root or requires_grad=false)";
  return it->second;
}

namespace {

// Post-order (parents before node) over the requires_grad subgraph.
std::vector<const detail::Node*> topo_order(const detail::Node* root) {
  std::vector<const detail::Node*> order;
  std::unordered_set<const detail::Node*> visited;
  // Explicit stack DFS; frames carry the next parent index to explore.
  struct Frame {
    const detail::Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      const Var& p = f.node->parents[f.next_parent++];
      const detail::Node* pn = p.node();
      if (pn->requires_grad && visited.insert(pn).second) {
        stack.push_back({pn, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  return order;  // parents first, root last
}

}  // namespace

Gradients backward(const Var& root, bool create_graph) {
  FEDCL_CHECK(root.defined());
  FEDCL_CHECK(root.requires_grad())
      << "backward root does not require grad";
  FEDCL_CHECK_EQ(root.numel(), 1);

  Gradients out;
  auto& grads = out.grads_;

  GradModeGuard guard(create_graph);
  grads[root.node()] = Var(Tensor::ones(root.shape()));

  std::vector<const detail::Node*> order = topo_order(root.node());
  // Reverse topological: root first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const detail::Node* node = *it;
    auto git = grads.find(node);
    if (git == grads.end()) continue;  // unreachable from root's gradient
    if (!node->vjp) continue;          // leaf
    std::vector<Var> parent_grads = node->vjp(git->second);
    FEDCL_CHECK_EQ(parent_grads.size(), node->parents.size());
    for (std::size_t i = 0; i < node->parents.size(); ++i) {
      const Var& p = node->parents[i];
      if (!p.requires_grad()) continue;
      const Var& g = parent_grads[i];
      FEDCL_CHECK(g.defined())
          << "vjp of " << node->op << " returned no grad for parent " << i;
      FEDCL_CHECK(g.value().shape() == p.value().shape())
          << "vjp of " << node->op << ": grad shape "
          << shape_str(g.value().shape()) << " vs parent "
          << shape_str(p.value().shape());
      auto pit = grads.find(p.node());
      if (pit == grads.end()) {
        grads[p.node()] = g;
      } else {
        pit->second = ops::add(pit->second, g);
      }
    }
    // Interior gradients are not part of the public result; dropping
    // them here bounds memory. Leaves (parameters, inputs) stay.
    if (!node->parents.empty() && node != root.node()) grads.erase(node);
  }

  // The root's own gradient (ones) is rarely useful; keep it for
  // completeness only when the root is a leaf.
  if (!root.is_leaf()) grads.erase(root.node());
  return out;
}

}  // namespace fedcl::tensor
