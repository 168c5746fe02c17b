// Pinned-order reductions for bounded-memory aggregation at scale.
//
// Both reductions in this module — the O(log K) streaming accumulator
// and the buffered recursive reference — execute the exact same float
// additions in the exact same association order: the canonical
// binary-counter pairwise tree over the leaf sequence. That makes
// "streaming == buffered" a bitwise identity, not an approximation
// (tests/scale_engine_test pins it across leaf counts).
//
// The sync engine's fold is two-tier: edge reducers over consecutive
// blocks of F leaves, whose partials a root reducer takes in block
// order (run_sync, fl/round_engine.cpp). Determinism boundary
// (DESIGN.md §7): that equals the flat counter when the blocks are
// aligned and power-of-two sized, which is why tree fan-outs are
// restricted to powers of two. With that restriction, an edge
// partial over leaves [bF, bF+F) occupies exactly the tree position
// the flat counter would have given those leaves, so pushing finished
// partials into the root in block order replays the flat schedule
// operation for operation. A block of one leaf is the degenerate case:
// push_node of a one-leaf partial is push.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor_list.h"

namespace fedcl::fl {

using tensor::list::TensorList;

// A partial reduction: sum = Σ w_i·delta_i over `leaves` consecutive
// leaves, weight = Σ w_i (accumulated in the same pinned order, so
// weights are bitwise reproducible too).
struct ReduceNode {
  TensorList sum;
  double weight = 0.0;
  std::int64_t leaves = 0;

  bool empty() const { return leaves == 0; }
};

// The fixed-size accumulator: a binary counter over pushed units.
// Level l holds the pending sum of 2^l consecutive units; pushing the
// (2k+1)-th unit at a level merges it up (older += newer). Memory is
// O(log n) nodes for n pushes, bitwise equal to the buffered
// reduction. It is every fold of both engines: run_sync's units and
// root, and run_async's buffer.
class StreamingReducer {
 public:
  // Pushes one leaf update. `delta` is consumed and mutated in place
  // (scaled by `weight` unless weight == 1.0, then merged into), so it
  // must own its storage — Tensor copies share storage; clone first if
  // the caller keeps a reference (tensor::list::clone).
  void push(TensorList delta, double weight);
  // Pushes a finished partial as a single unit (an edge aggregator's
  // result entering its parent). Empty nodes are ignored.
  void push_node(ReduceNode node);
  // Folds the surviving levels (lowest first) into one node and
  // resets the counter. Returns an empty node if nothing was pushed.
  ReduceNode finalize();

  int occupancy() const;
  // High-water occupancy across the reducer's lifetime (not reset by
  // finalize) — the bounded-memory witness asserted by the soak test.
  int max_occupancy() const { return max_occupancy_; }

 private:
  void carry(ReduceNode node);

  std::vector<ReduceNode> levels_;
  int max_occupancy_ = 0;
};

// Reference implementation: materializes the binary-counter tree
// recursively over fully buffered inputs. Deliberately shares no code
// with StreamingReducer so the bitwise pin between them is meaningful.
// Unlike push(), it detaches (deep-copies) its inputs, so the caller's
// tensors are never mutated.
ReduceNode reduce_buffered(std::vector<TensorList> deltas,
                           const std::vector<double>& weights);

// sum / Σw — the streaming mean. Checks the node is non-empty with
// positive total weight.
TensorList finalize_mean(ReduceNode node);

bool is_power_of_two(std::int64_t v);

}  // namespace fedcl::fl