#include "fl/tree_aggregation.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace fedcl::fl {

namespace {

// The one merge the whole module uses: older (left) += newer (right).
void merge_into(ReduceNode& older, ReduceNode&& newer) {
  tensor::list::add_(older.sum, newer.sum, 1.0f);
  older.weight += newer.weight;
  older.leaves += newer.leaves;
}

ReduceNode leaf_node(TensorList delta, double weight) {
  ReduceNode node;
  node.sum = std::move(delta);
  // Unweighted leaves keep their raw bytes: scaling by 1.0f would be a
  // no-op numerically but the branch documents the contract.
  if (weight != 1.0) {
    tensor::list::scale_(node.sum, static_cast<float>(weight));
  }
  node.weight = weight;
  node.leaves = 1;
  return node;
}

}  // namespace

bool is_power_of_two(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

void StreamingReducer::push(TensorList delta, double weight) {
  carry(leaf_node(std::move(delta), weight));
}

void StreamingReducer::push_node(ReduceNode node) {
  if (node.empty()) return;
  carry(std::move(node));
}

void StreamingReducer::carry(ReduceNode node) {
  for (std::size_t l = 0;; ++l) {
    if (l == levels_.size()) {
      levels_.push_back(std::move(node));
      break;
    }
    if (levels_[l].empty()) {
      levels_[l] = std::move(node);
      break;
    }
    // Slot occupied: merge (older slot on the left) and carry up.
    merge_into(levels_[l], std::move(node));
    node = std::move(levels_[l]);
    levels_[l] = ReduceNode{};
  }
  max_occupancy_ = std::max(max_occupancy_, occupancy());
}

int StreamingReducer::occupancy() const {
  int n = 0;
  for (const ReduceNode& node : levels_) {
    if (!node.empty()) ++n;
  }
  return n;
}

ReduceNode StreamingReducer::finalize() {
  // Fold lowest level first: each surviving level covers leaves that
  // come AFTER every higher level's leaves, so the running accumulator
  // is always the right operand of the next (older += newer) merge.
  ReduceNode acc;
  for (ReduceNode& level : levels_) {
    if (level.empty()) continue;
    if (acc.empty()) {
      acc = std::move(level);
    } else {
      merge_into(level, std::move(acc));
      acc = std::move(level);
    }
    level = ReduceNode{};
  }
  levels_.clear();
  return acc;
}

namespace {

// Perfect pairwise tree over deltas[begin, begin+size), size = 2^k.
ReduceNode perfect_tree(std::vector<TensorList>& deltas,
                        const std::vector<double>& weights, std::size_t begin,
                        std::size_t size) {
  if (size == 1) {
    return leaf_node(std::move(deltas[begin]), weights[begin]);
  }
  ReduceNode left = perfect_tree(deltas, weights, begin, size / 2);
  ReduceNode right =
      perfect_tree(deltas, weights, begin + size / 2, size - size / 2);
  merge_into(left, std::move(right));
  return left;
}

}  // namespace

ReduceNode reduce_buffered(std::vector<TensorList> deltas,
                           const std::vector<double>& weights) {
  FEDCL_CHECK_EQ(deltas.size(), weights.size());
  if (deltas.empty()) return ReduceNode{};
  // Tensor copies share storage, so the by-value parameter still
  // aliases the caller's tensors — and the in-place leaf scaling /
  // merges below would corrupt them. Detach before reducing.
  for (TensorList& d : deltas) d = tensor::list::clone(d);

  // Binary decomposition of n: perfect subtrees in leaf order,
  // largest first (matching the counter's level contents), ...
  std::vector<ReduceNode> blocks;
  std::size_t begin = 0;
  const std::size_t n = deltas.size();
  for (int bit = 62; bit >= 0; --bit) {
    const std::size_t size = static_cast<std::size_t>(1) << bit;
    if ((n & size) != 0) {
      blocks.push_back(perfect_tree(deltas, weights, begin, size));
      begin += size;
    }
  }
  // ... then folded last block first (the counter finalizes lowest
  // level — latest leaves — first).
  ReduceNode acc = std::move(blocks.back());
  for (std::size_t i = blocks.size() - 1; i-- > 0;) {
    merge_into(blocks[i], std::move(acc));
    acc = std::move(blocks[i]);
  }
  return acc;
}

TensorList finalize_mean(ReduceNode node) {
  FEDCL_CHECK(!node.empty()) << "cannot take the mean of zero updates";
  FEDCL_CHECK_GT(node.weight, 0.0);
  tensor::list::scale_(node.sum, static_cast<float>(1.0 / node.weight));
  return std::move(node.sum);
}

}  // namespace fedcl::fl