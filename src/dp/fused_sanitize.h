// Fused per-example clip+noise for the batched Fed-CDP hot path.
//
// Two passes over the [B, numel] per-example gradient rows, both
// parallel over examples:
//
//   1. batch_group_norms — read-only norm pass, same per-tensor
//      float-rounded accumulation as l2_norm_subset, so the clip
//      decisions match a norm taken on the example's TensorList;
//   2. batch_scale_noise — ONE read-modify-write traversal that
//      applies the clip scale AND the counter-based Gaussian noise
//      (common/philox.h) to each element, 64 elements per generated
//      chunk, never materializing a noise tensor.
//
// Every example runs the same kernel on its own rows with its own key,
// so B rows written in one call equal B one-row calls with the same
// keys, bit for bit, whatever the pool size or visit order.
//
// fused_sanitize.cpp is compiled with -ffp-contract=off (see
// src/dp/CMakeLists.txt), so every ISA variant of the noise kernel and
// the scalar reference in tests/testing/kernel_check.h round each
// operation alike.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/clipping.h"
#include "tensor/simd.h"
#include "tensor/tensor_list.h"

namespace fedcl {
class ThreadPool;
}

namespace fedcl::dp {

// One row of the scale+noise pass: d[i] = d[i] * scale + stddev * z_i
// for i in [0, n), where z_i is element i of the counter Gaussian of
// (key, stream). Takes the AVX-512 Philox where the CPU has it; every
// variant writes the same bits.
void scale_noise_row(float* d, std::int64_t n, float scale, float stddev,
                     std::uint64_t key, std::uint64_t stream);
// The variants behind it, exposed for the kernel checks: the portable
// one (compiled per ISA level), and the AVX-512 one, which may only be
// called when fedcl_cpu_has_v4().
void scale_noise_row_portable(float* d, std::int64_t n, float scale,
                              float stddev, std::uint64_t key,
                              std::uint64_t stream);
#if FEDCL_HAVE_V4_KERNELS
void scale_noise_row_v4(float* d, std::int64_t n, float scale, float stddev,
                        std::uint64_t key, std::uint64_t stream);
#endif

// Batched forms over the [B, numel] layout, parallelized over examples
// on `pool` (nullptr: the process compute pool). Results are bitwise
// independent of pool size and example visit order. norms / bounds /
// stddevs / keys are example-major: norms[j * groups.size() + g],
// bounds[j], stddevs[j], keys[j] (per-example entries support the
// adaptive policy, whose bound moves between examples).
std::vector<double> batch_group_norms(tensor::list::PerExampleGrads& grads,
                                      const ParamGroups& groups,
                                      ThreadPool* pool = nullptr);

void batch_scale_noise(tensor::list::PerExampleGrads& grads,
                       const ParamGroups& groups,
                       const std::vector<double>& norms,
                       const std::vector<double>& bounds,
                       const std::vector<double>& stddevs,
                       const std::vector<std::uint64_t>& keys,
                       ThreadPool* pool = nullptr);

}  // namespace fedcl::dp
