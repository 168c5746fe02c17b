#include "common/philox.h"

namespace fedcl {

namespace {

inline void philox_round(std::uint32_t (&c)[4], std::uint32_t k0,
                         std::uint32_t k1) {
  const std::uint64_t p0 = static_cast<std::uint64_t>(philox::kM0) * c[0];
  const std::uint64_t p1 = static_cast<std::uint64_t>(philox::kM1) * c[2];
  const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
  const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
  const std::uint32_t n0 = hi1 ^ c[1] ^ k0;
  const std::uint32_t n1 = lo1;
  const std::uint32_t n2 = hi0 ^ c[3] ^ k1;
  const std::uint32_t n3 = lo0;
  c[0] = n0;
  c[1] = n1;
  c[2] = n2;
  c[3] = n3;
}

}  // namespace

PhiloxBlock philox4x32(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3, std::uint32_t k0, std::uint32_t k1) {
  std::uint32_t c[4] = {c0, c1, c2, c3};
  for (int r = 0; r < philox::kRounds; ++r) {
    philox_round(c, k0, k1);
    k0 += philox::kW0;
    k1 += philox::kW1;
  }
  return PhiloxBlock{{c[0], c[1], c[2], c[3]}};
}

}  // namespace fedcl
