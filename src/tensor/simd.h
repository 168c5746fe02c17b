// Shared SIMD dispatch attribute for the hot tensor kernels.
//
// Kernels marked FEDCL_KERNEL_CLONES are compiled once per x86-64 level
// and dispatched at load time (GNU ifunc) on the level the CPU reports,
// so a generic build still uses AVX2/FMA or AVX-512 where the CPU has
// them; the baseline clone keeps the binary portable. Clones may
// contract multiply-adds into FMA differently, so only mark kernels
// whose results are either tolerance-checked or reached identically by
// every caller that must agree bitwise (the fused-sanitize rule: every
// Fed-CDP example, in a batch of B or of one, runs the same kernel, so
// contraction cancels out of the comparison).
#pragma once

#include <cstdint>
#include <string>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#if defined(__SANITIZE_THREAD__)
// Under ThreadSanitizer the clones compile to the baseline only. GCC
// emits an ifunc resolver per cloned function; TSan instruments it,
// and the loader runs it before the TSan runtime is initialized, so a
// binary holding any clone segfaults at load (g++ 12). The v4 kernels
// below need no resolver, so they keep running under TSan, except the
// matmul one (tensor/tensor.cpp: FEDCL_MATMUL_V4).
#define FEDCL_KERNEL_CLONES
#define FEDCL_KERNELS_CLONED 0
#else
#define FEDCL_KERNEL_CLONES                                          \
  __attribute__((target_clones("default", "arch=x86-64-v3",          \
                               "arch=x86-64-v4")))
#define FEDCL_KERNELS_CLONED 1
#endif
// For kernels whose best tile shape differs by ISA (wider registers
// want wider/taller tiles), clones are not enough: the clone mechanism
// recompiles one body, it cannot change the blocking. Such kernels
// write the body once, always inline, and instantiate it a second time
// at the wider tile in a v4-targeted entry, branching on
// fedcl_cpu_has_v4() at the dispatch site. The wider instantiation
// must compute bitwise-identical per-element results (same ascending-k
// order, same contraction) so the branch never changes values, only
// speed.
#define FEDCL_KERNEL_V4 __attribute__((target("arch=x86-64-v4")))
#define FEDCL_HAVE_V4_KERNELS 1
inline bool fedcl_cpu_has_v4() {
  static const bool v = __builtin_cpu_supports("x86-64-v4") > 0;
  return v;
}
#else
#define FEDCL_KERNEL_CLONES
#define FEDCL_KERNELS_CLONED 0
#define FEDCL_KERNEL_V4
#define FEDCL_HAVE_V4_KERNELS 0
#endif

// The x86-64 level the CPU reports: "x86-64-v4", "x86-64-v3" or
// "baseline" ("non-x86" where the kernels have no ISA dispatch). It
// picks the clone a FEDCL_KERNEL_CLONES kernel runs and whether the v4
// kernels run.
inline const char* fedcl_cpu_level() {
#if FEDCL_HAVE_V4_KERNELS
  if (fedcl_cpu_has_v4()) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
  return "baseline";
#else
  return "non-x86";
#endif
}

// The run manifest's host.isa: the CPU's level, then "+clones" when
// this build compiled the clones. A matmul's bits depend on both (the
// v3 and v4 clones contract each multiply-add into one FMA, the
// baseline does not), so results compare bitwise only under one value.
inline std::string fedcl_host_isa() {
  return std::string(fedcl_cpu_level()) +
         (FEDCL_KERNELS_CLONED ? "+clones" : "");
}

namespace fedcl::tensor {

// Body of tensor::sum_squares (tensor.h), which clones it per ISA; kept
// here so the kernel test can compile it for each ISA too. Element i
// adds its square into double lane i mod 8, then the lanes combine as
// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)). A float's square
// is exact in double, so a contracted multiply-add rounds like the
// separate add and every ISA gives the same bits.
[[gnu::always_inline]] inline double sum_squares_lanes(const float* p,
                                                       std::int64_t n) {
  // Four two-lane accumulators rather than one eight-lane vector: GCC
  // keeps a loop-carried vector wider than the ISA's registers in
  // memory, and two lanes fit every ISA's.
  typedef float f4 __attribute__((vector_size(16), aligned(4), may_alias));
  typedef double d4 __attribute__((vector_size(32)));
  typedef double d2 __attribute__((vector_size(16)));
  d2 l01 = {}, l23 = {}, l45 = {}, l67 = {};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const d4 lo = __builtin_convertvector(*(const f4*)(p + i), d4);
    const d4 hi = __builtin_convertvector(*(const f4*)(p + i + 4), d4);
    const d2 x01 = __builtin_shufflevector(lo, lo, 0, 1);
    const d2 x23 = __builtin_shufflevector(lo, lo, 2, 3);
    const d2 x45 = __builtin_shufflevector(hi, hi, 0, 1);
    const d2 x67 = __builtin_shufflevector(hi, hi, 2, 3);
    l01 += x01 * x01;
    l23 += x23 * x23;
    l45 += x45 * x45;
    l67 += x67 * x67;
  }
  double lane[8] = {l01[0], l01[1], l23[0], l23[1],
                    l45[0], l45[1], l67[0], l67[1]};
  for (std::int64_t r = 0; i + r < n; ++r) {
    const double x = p[i + r];
    lane[r] += x * x;
  }
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

}  // namespace fedcl::tensor
