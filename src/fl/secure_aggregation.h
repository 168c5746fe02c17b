// Pairwise-masking secure aggregation (Bonawitz et al., CCS'17 —
// the paper's reference [22]), simulated without real cryptography.
//
// Every participant pair (i, j) derives the same mask stream from a
// shared session seed; client i adds the mask, client j subtracts it,
// so the masks cancel exactly in the server's sum while every
// individual masked update is indistinguishable from noise. This is
// the "cryptographic approaches secure the transport and the
// aggregation" point of Section II: a type-0 adversary at the server
// sees only masked updates, but type-1/2 leakage at the client is
// untouched — which is exactly what the extension bench demonstrates.
//
// The mask PRG is the library's SplitMix64 stream — NOT cryptographic;
// the simulation preserves the protocol's information flow, not its
// hardness assumptions. Dropout recovery (secret-sharing the seeds) is
// out of scope.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor_list.h"

namespace fedcl::fl {

class SecureAggregator {
 public:
  // participants: ids of the clients of this round (each pair derives
  // a shared mask from session_seed); shapes: the update tensor shapes.
  SecureAggregator(std::vector<std::int64_t> participants,
                   std::uint64_t session_seed,
                   std::vector<tensor::Shape> shapes);

  // Masks `update` in place for the given participant. The sum of all
  // participants' masked updates equals the sum of the originals.
  void mask(std::int64_t client_id, tensor::list::TensorList& update) const;

  // The mask a participant applies (useful for tests; sums to zero
  // over all participants).
  tensor::list::TensorList mask_for(std::int64_t client_id) const;

 private:
  std::vector<std::int64_t> participants_;
  std::uint64_t session_seed_;
  std::vector<tensor::Shape> shapes_;
};

}  // namespace fedcl::fl
