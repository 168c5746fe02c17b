#include "fl/virtual_client.h"

#include <utility>

#include "common/error.h"

namespace fedcl::fl {

namespace {
std::uint64_t stream_index(std::int64_t round, std::int64_t id) {
  return static_cast<std::uint64_t>(round * 1000003 + id);
}
}  // namespace

VirtualClientProvider::VirtualClientProvider(
    std::shared_ptr<const data::Dataset> base, const data::PartitionSpec& spec,
    const Rng& part_rng, LocalTrainConfig local, FaultInjectionConfig faults,
    std::uint64_t seed)
    : plan_(std::move(base), spec, part_rng),
      local_(local),
      fault_plan_(faults, seed) {}

std::int64_t VirtualClientProvider::data_size(std::int64_t id) const {
  FEDCL_CHECK_GE(id, 0);
  FEDCL_CHECK_LT(id, plan_.num_clients());
  return plan_.shard_size();
}

Client VirtualClientProvider::client(std::int64_t id) const {
  return Client(id, plan_.shard(id), local_);
}

Rng VirtualClientProvider::training_stream(const Rng& round_rng,
                                           std::int64_t round,
                                           std::int64_t id) {
  return round_rng.fork("client", stream_index(round, id));
}

Rng VirtualClientProvider::delivery_fault_stream(const Rng& round_rng,
                                                 std::int64_t round,
                                                 std::int64_t id) {
  return round_rng.fork("fault-delivery", stream_index(round, id));
}

}  // namespace fedcl::fl