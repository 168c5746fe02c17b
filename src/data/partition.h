// Non-IID shard partitioning of a dataset across federated clients.
//
// Mirrors the paper's setup (Section VII): examples are grouped by
// class into shards and each client receives shards from a small
// number of classes (2 for MNIST/CIFAR, ~15 for LFW), holding
// `data_per_client` examples total.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace fedcl::data {

struct PartitionSpec {
  std::int64_t num_clients = 0;
  std::int64_t data_per_client = 0;
  // Number of distinct classes per client; 0 means every client holds a
  // full copy of the dataset (the paper's breast-cancer setting).
  std::int64_t classes_per_client = 2;
};

// Lazily synthesizable shard plan. A client's shard is a pure
// function of (partition stream, client index): `Rng::fork` never
// advances the parent stream, so `indices_for(k)` can materialize any
// client's indices on demand, in any order and from any thread, and
// the bytes are identical to what the eager `partition()` below
// produced for that client. Construction cost is O(dataset), never
// O(num_clients) — this is what lets a million-client federation keep
// no per-client storage (fl/virtual_client.h).
class ShardPlan {
 public:
  ShardPlan(std::shared_ptr<const Dataset> base, const PartitionSpec& spec,
            const Rng& rng);

  std::int64_t num_clients() const { return spec_.num_clients; }
  // Every shard has the same size by construction.
  std::int64_t shard_size() const;

  // Thread-safe: each call forks a private stream from the stored
  // partition stream.
  std::vector<std::int64_t> indices_for(std::int64_t k) const;
  ClientData shard(std::int64_t k) const;

 private:
  std::shared_ptr<const Dataset> base_;
  PartitionSpec spec_;
  Rng rng_;  // the partition stream; only const-forked, never advanced
  // classes_per_client > 0: per-class index pools; else the shared
  // full-copy index list every client receives.
  std::vector<std::vector<std::int64_t>> by_class_;
  std::vector<std::int64_t> full_copy_;
};

// Deterministic for a given rng. Clients draw from class pools with
// replacement when a pool is smaller than the demand, so any
// num_clients is serviceable (matching the random shard assignment in
// the paper's simulator). Implemented as an eager walk over a
// ShardPlan, so the two paths cannot drift.
std::vector<ClientData> partition(std::shared_ptr<const Dataset> base,
                                  const PartitionSpec& spec, Rng& rng);

}  // namespace fedcl::data
