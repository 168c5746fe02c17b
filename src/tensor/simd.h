// Shared SIMD dispatch attribute for the hot tensor kernels.
//
// Kernels marked FEDCL_KERNEL_CLONES are compiled once per ISA level
// and dispatched at load time (GNU ifunc), so a generic build still
// uses AVX2/FMA or AVX-512 where the CPU has them; the baseline clone
// keeps the binary portable. Clones may contract multiply-adds into
// FMA differently, so only mark kernels whose results are either
// tolerance-checked or reached identically by every caller that must
// agree bitwise (the fused-sanitize rule: every Fed-CDP example, in a
// batch of B or of one, runs the same kernel, so contraction cancels
// out of the comparison).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#if defined(__SANITIZE_THREAD__)
// Under ThreadSanitizer the clones compile to the baseline only. GCC
// emits an ifunc resolver per cloned function; TSan instruments it,
// and the loader runs it before the TSan runtime is initialized, so a
// binary holding any clone segfaults at load (g++ 12). The v4 kernels
// below need no resolver, so they keep running under TSan, except the
// matmul ones (tensor/tensor.cpp: FEDCL_MATMUL_V4).
#define FEDCL_KERNEL_CLONES
#else
#define FEDCL_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=haswell", "arch=x86-64-v4")))
#endif
// For kernels whose best tile shape differs by ISA (wider registers
// want wider/taller tiles), clones are not enough: the clone mechanism
// recompiles one body, it cannot change the blocking. Such kernels
// provide an explicitly v4-targeted variant and branch on
// fedcl_cpu_has_v4() at the dispatch site. The variant must compute
// bitwise-identical per-element results (same ascending-k order, same
// contraction) so the branch never changes values, only speed.
#define FEDCL_KERNEL_V4 __attribute__((target("arch=x86-64-v4")))
#define FEDCL_HAVE_V4_KERNELS 1
inline bool fedcl_cpu_has_v4() {
  static const bool v = __builtin_cpu_supports("x86-64-v4") > 0;
  return v;
}
#else
#define FEDCL_KERNEL_CLONES
#define FEDCL_KERNEL_V4
#define FEDCL_HAVE_V4_KERNELS 0
#endif
