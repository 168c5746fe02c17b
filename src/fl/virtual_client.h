// Virtualized client model: every per-client artifact — data shard,
// fault schedule, per-round RNG streams — is a pure function of
// (seed, client_id), synthesized on demand with no per-client
// storage. A million-client federation costs O(dataset) to set up and
// O(clients actually touched) per round; the synthesized state is
// bitwise identical to what eager construction produced (pinned in
// tests/property_test.cpp and tests/scale_engine_test.cpp).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "data/partition.h"
#include "fl/client.h"
#include "fl/fault_injection.h"

namespace fedcl::fl {

class VirtualClientProvider {
 public:
  VirtualClientProvider(std::shared_ptr<const data::Dataset> base,
                        const data::PartitionSpec& spec, const Rng& part_rng,
                        LocalTrainConfig local, FaultInjectionConfig faults,
                        std::uint64_t seed);

  std::int64_t total_clients() const { return plan_.num_clients(); }
  // O(1): every shard has the same size by construction. A worker
  // reports it in each update (informational: the server weights every
  // update equally).
  std::int64_t data_size(std::int64_t id) const;
  // Materializes the client. Const and thread-safe: repeated calls
  // (from any thread) yield identical shards.
  Client client(std::int64_t id) const;

  const FaultPlan& fault_plan() const { return fault_plan_; }

  // The per-(round, client) streams shared by every engine (in-process
  // sync and async loops, net worker). Centralizing the fork labels
  // here is what keeps the engines bitwise interchangeable.
  static Rng training_stream(const Rng& round_rng, std::int64_t round,
                             std::int64_t id);
  // Delivery-fault draws (corrupt bytes / bit-flip positions), per
  // client so delivery runs on the pool and stays schedule-independent.
  static Rng delivery_fault_stream(const Rng& round_rng, std::int64_t round,
                                   std::int64_t id);

 private:
  data::ShardPlan plan_;
  LocalTrainConfig local_;
  FaultPlan fault_plan_;
};

}  // namespace fedcl::fl