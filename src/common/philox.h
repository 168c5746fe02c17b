// Counter-based (stateless) random numbers for parallel noise.
//
// The sequential Rng in common/rng.h hands one SplitMix64 stream from
// draw to draw, which forces every consumer into a single visit order:
// per-example DP noise had to be generated example-major on one thread
// because element k's value depended on the k-1 draws before it. The
// Philox4x32-10 generator here removes that coupling. It is a pure
// function
//
//     (key, stream, counter)  ->  four 32-bit words
//
// with no carried state, so ANY thread can produce ANY noise element
// without stream hand-off, and the result is independent of visit
// order and thread count by construction.
//
// Keying scheme used by the DP sanitizers (see DESIGN.md §7):
//   key     = one 64-bit draw from the caller's Rng. The Rng is already
//             forked per (experiment seed, round, client), so the draw
//             encodes seed/client/round; consecutive sanitize calls and
//             consecutive examples get fresh keys in a fixed serial
//             order (one next_u64 per example; Fed-SDP's round update
//             is one example) while the expensive part — the Gaussian
//             fill itself — is order-free.
//   stream  = parameter-tensor index within the model.
//   counter = element block within the tensor. Each Philox block
//             yields four normals, so element i comes from block i >> 2:
//             words (0, 1) give elements 4k and 4k+1, words (2, 3)
//             give 4k+2 and 4k+3.
//
// The Gaussian transform is float32 Box-Muller over 32-bit uniforms,
// for one word pair (wr, wt):
//
//     u1 = wr * 2^-32 + 2^-33        in (0, 1], so log(u1) is finite
//     r  = sqrt(-2 ln u1)            <= sqrt(66 ln 2) ~= 6.76
//     z  = r cos(2 pi wt 2^-32),  r sin(2 pi wt 2^-32)
//
// with a polynomial log and a sincos whose range reduction is exact:
// wt counts 2^-32 turns, so its top two bits (rounded) name the
// quadrant and the signed remainder is the angle within +-pi/4. The
// generator therefore never draws |z| > 6.76, a Gaussian mass of about
// 1.3e-11 the accountant's untruncated mechanism assumes is there.
//
// The fill runs sixteen blocks (64 normals) at a time across SIMD lanes
// (GCC vector extensions, lowered to whatever ISA the including
// function targets). Every lane computes exactly the IEEE operation
// sequence a scalar loop would, so the result is bitwise the same on
// every ISA *provided the including source is compiled with
// -ffp-contract=off*: a contracted multiply-add would round once
// where the scalar reference rounds twice.
//
// Philox is the generator of JAX/XLA and cuRAND; 10 rounds of the
// 4x32 variant passes BigCrush. Not cryptographic.
#pragma once

#include <cstdint>

namespace fedcl {

struct PhiloxBlock {
  std::uint32_t v[4];
};

// One Philox4x32-10 block: counter (c0..c3) encrypted under key
// (k0, k1). Pure function, branch-free, ~20 32x32 multiplies.
PhiloxBlock philox4x32(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3, std::uint32_t k0, std::uint32_t k1);

namespace philox {

// Philox4x32 round constants (Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11).
constexpr std::uint32_t kM0 = 0xD2511F53u;
constexpr std::uint32_t kM1 = 0xCD9E8D57u;
constexpr std::uint32_t kW0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kW1 = 0xBB67AE85u;  // sqrt(3) - 1
constexpr int kRounds = 10;

// Blocks per lane-parallel chunk, and the normals they give.
constexpr int kLanes = 16;
constexpr int kChunk = 4 * kLanes;

typedef std::uint32_t U32x16 __attribute__((vector_size(64)));
typedef std::int32_t I32x16 __attribute__((vector_size(64)));
typedef std::uint64_t U64x16 __attribute__((vector_size(128)));
typedef float F32x16 __attribute__((vector_size(64)));

// Words of the sixteen blocks of one chunk: w[m][k] is word m of the
// chunk's k-th block.
struct Words {
  U32x16 w[4];
};

// The Philox counters of the blocks of chunk `chunk` of `stream`
// (blocks 16 chunk .. 16 chunk + 15: the low word never carries).
[[gnu::always_inline]] inline Words counters(std::uint64_t stream,
                                             std::uint64_t chunk) {
  const std::uint64_t first = chunk * kLanes;
  const U32x16 lane = {0, 1, 2,  3,  4,  5,  6,  7,
                       8, 9, 10, 11, 12, 13, 14, 15};
  Words c;
  c.w[0] = lane + static_cast<std::uint32_t>(first);
  c.w[1] = U32x16{} + static_cast<std::uint32_t>(first >> 32);
  c.w[2] = U32x16{} + static_cast<std::uint32_t>(stream);
  c.w[3] = U32x16{} + static_cast<std::uint32_t>(stream >> 32);
  return c;
}

// Philox4x32-10 on sixteen lanes with the portable 32x32 -> 64
// multiply; bitwise equal to philox4x32 per lane.
[[gnu::always_inline]] inline void encrypt(Words& c, std::uint64_t key) {
  std::uint32_t k0 = static_cast<std::uint32_t>(key);
  std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
  for (int r = 0; r < kRounds; ++r) {
    const U64x16 p0 = __builtin_convertvector(c.w[0], U64x16) * kM0;
    const U64x16 p1 = __builtin_convertvector(c.w[2], U64x16) * kM1;
    const U32x16 hi0 = __builtin_convertvector(p0 >> 32, U32x16);
    const U32x16 hi1 = __builtin_convertvector(p1 >> 32, U32x16);
    const U32x16 n1 = __builtin_convertvector(p1, U32x16);
    const U32x16 n3 = __builtin_convertvector(p0, U32x16);
    c.w[0] = hi1 ^ c.w[1] ^ k0;
    c.w[2] = hi0 ^ c.w[3] ^ k1;
    c.w[1] = n1;
    c.w[3] = n3;
    k0 += kW0;
    k1 += kW1;
  }
}

// Polynomial ln(u) for normal u in (0, 1] (Cephes logf): u = 2^e m with
// m in [sqrt(1/2), sqrt(2)), ln u = e ln 2 + ln m, ln m from a degree-9
// polynomial in f = m - 1 (max relative error ~1e-7). ln 2 is split so
// e * hi is exact.
constexpr float kSqrt2 = 1.41421356237f;
constexpr float kLogP[9] = {7.0376836292e-2f,  -1.1514610310e-1f,
                            1.1676998740e-1f,  -1.2420140846e-1f,
                            1.4249322787e-1f,  -1.6668057665e-1f,
                            2.0000714765e-1f,  -2.4999993993e-1f,
                            3.3333331174e-1f};
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

// sin and cos on [-pi/4, pi/4] (Cephes sinf/cosf, ~1 ulp), and one
// 2^-32 turn in radians.
constexpr float kSinP[3] = {-1.9515295891e-4f, 8.3321608736e-3f,
                            -1.6666654611e-1f};
constexpr float kCosP[3] = {2.443315711809948e-5f, -1.388731625493765e-3f,
                            4.166664568298827e-2f};
constexpr float kTurnPerWord = 1.46291807927e-9f;  // 2 pi / 2^32

[[gnu::always_inline]] inline void log_unit(const F32x16& u, F32x16& out) {
  const I32x16 bits = __builtin_bit_cast(I32x16, u);
  I32x16 e = (bits >> 23) - 127;
  F32x16 m = __builtin_bit_cast(F32x16, (bits & 0x007FFFFF) | 0x3F800000);
  const I32x16 big = m > kSqrt2;  // all-ones lanes: halve m, bump e
  m = big ? m * 0.5f : m;
  e -= big;
  const F32x16 f = m - 1.0f;
  const F32x16 fe = __builtin_convertvector(e, F32x16);
  const F32x16 z = f * f;
  F32x16 y = kLogP[0] * f + kLogP[1];
  for (int i = 2; i < 9; ++i) y = y * f + kLogP[i];
  y = y * f * z;
  y = y + kLn2Lo * fe;
  y = y - 0.5f * z;
  out = (f + y) + kLn2Hi * fe;
}

// cos and sin of 2 pi wt 2^-32.
[[gnu::always_inline]] inline void sincos_turn(const U32x16& wt,
                                               F32x16& cos_out,
                                               F32x16& sin_out) {
  const U32x16 q = (wt + 0x20000000u) >> 30;  // nearest quarter turn
  // Signed remainder in [-2^29, 2^29): the angle within +-pi/4.
  const I32x16 rem = __builtin_bit_cast(I32x16, wt - (q << 30));
  const F32x16 x = __builtin_convertvector(rem, F32x16) * kTurnPerWord;
  const F32x16 z = x * x;
  const F32x16 s = ((kSinP[0] * z + kSinP[1]) * z + kSinP[2]) * z * x + x;
  const F32x16 c =
      ((kCosP[0] * z + kCosP[1]) * z + kCosP[2]) * z * z - 0.5f * z + 1.0f;
  // Odd quadrants swap the pair; the sign bits follow the quadrant.
  const I32x16 odd = (I32x16)((q & 1u) != 0u);
  const F32x16 cq = odd ? s : c;
  const F32x16 sq = odd ? c : s;
  const U32x16 cos_sign = ((q + 1u) & 2u) << 30;
  const U32x16 sin_sign = (q & 2u) << 30;
  cos_out =
      __builtin_bit_cast(F32x16, __builtin_bit_cast(U32x16, cq) ^ cos_sign);
  sin_out =
      __builtin_bit_cast(F32x16, __builtin_bit_cast(U32x16, sq) ^ sin_sign);
}

// Box-Muller on the word pair (wr, wt) of sixteen blocks.
[[gnu::always_inline]] inline void box_muller(const U32x16& wr,
                                              const U32x16& wt, F32x16& z_cos,
                                              F32x16& z_sin) {
  const F32x16 u1 =
      __builtin_convertvector(wr, F32x16) * 0x1p-32f + 0x1p-33f;
  F32x16 ln_u1;
  log_unit(u1, ln_u1);
  const F32x16 t = -2.0f * ln_u1;
  F32x16 r;
  for (int k = 0; k < kLanes; ++k) r[k] = __builtin_sqrtf(t[k]);
  F32x16 c, s;
  sincos_turn(wt, c, s);
  z_cos = r * c;
  z_sin = r * s;
}

// The 64 normals of a chunk's encrypted words in element order:
// out[v] holds elements 16 v .. 16 v + 15, and element 4 k + m comes
// from lane k, word pair m / 2.
[[gnu::always_inline]] inline void normals(const Words& w, F32x16 (&out)[4]) {
  F32x16 z[4];
  box_muller(w.w[0], w.w[1], z[0], z[1]);
  box_muller(w.w[2], w.w[3], z[2], z[3]);
  // 4 x 16 transpose in two interleave stages.
  const I32x16 lo = {0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23};
  const I32x16 hi = lo + 8;
  const F32x16 a_lo = __builtin_shuffle(z[0], z[1], lo);
  const F32x16 a_hi = __builtin_shuffle(z[0], z[1], hi);
  const F32x16 b_lo = __builtin_shuffle(z[2], z[3], lo);
  const F32x16 b_hi = __builtin_shuffle(z[2], z[3], hi);
  const I32x16 pairs_lo = {0, 1, 16, 17, 2,  3,  18, 19,
                           4, 5, 20, 21, 6,  7,  22, 23};
  const I32x16 pairs_hi = pairs_lo + 8;
  out[0] = __builtin_shuffle(a_lo, b_lo, pairs_lo);
  out[1] = __builtin_shuffle(a_lo, b_lo, pairs_hi);
  out[2] = __builtin_shuffle(a_hi, b_hi, pairs_lo);
  out[3] = __builtin_shuffle(a_hi, b_hi, pairs_hi);
}

}  // namespace philox

}  // namespace fedcl
