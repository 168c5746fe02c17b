// Fused per-example clip+noise for the batched Fed-CDP hot path.
//
// Two passes over the [B, numel] per-example gradient rows, both
// parallel over examples:
//
//   1. group_norms / batch_group_norms — read-only norm pass, same
//      per-tensor float-rounded accumulation as l2_norm_subset, so the
//      clip decisions match the sliced path bit for bit;
//   2. scale_noise / batch_scale_noise — ONE read-modify-write
//      traversal that applies the clip scale AND the counter-based
//      Gaussian noise (common/philox.h) to each element, 64 elements
//      per generated chunk, never materializing a noise tensor.
//
// The single-example hook and the batched hook run the SAME kernels
// over a ParamSpan view, which keeps the policies'
// `sanitize_per_example_batch` bitwise identical to a loop of
// `sanitize_per_example` calls without constraining the traversal
// order.
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

// Raw view of one example's gradient: pointer + element count per
// parameter tensor, in model parameter order.
struct ParamSpan {
  float* data = nullptr;
  std::int64_t numel = 0;
};
using ExampleView = std::vector<ParamSpan>;

ExampleView view_of(TensorList& grad);
ExampleView view_of_example(tensor::list::PerExampleGrads& grads,
                            std::int64_t j);

// Pre-clip joint L2 norm of each group (per-tensor sums rounded
// through float exactly like Tensor::l2_norm, then the joint sqrt).
std::vector<double> group_norms(const ExampleView& ex,
                                const ParamGroups& groups);

// Fused clip-scale + Philox-noise pass over one example. Groups whose
// norm exceeds `bound` are scaled by bound/norm; every element then
// receives N(0, stddev^2) noise keyed by (key, param index, element
// index). One traversal, order-free.
void scale_noise(const ExampleView& ex, const ParamGroups& groups,
                 const std::vector<double>& norms, double bound, double stddev,
                 std::uint64_t key);

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
