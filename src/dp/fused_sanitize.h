// Fused per-example clip+noise: Fed-CDP's batched hot path, and
// Fed-SDP's round update as a one-example batch
// (tensor::list::as_one_example), so one sampler draws all privacy
// noise.
//
// Two passes over the per-example gradients (tensor_list.h), neither of
// which writes a per-example row:
//
//   1. batch_group_norms — each example's pre-clip joint L2 norm per
//      clip group. A factored Linear tensor's norm is the norm of the
//      exact outer product, taken from its factors in O(in + out):
//      ||a_j||^2 ||delta_j||^2 for the weight and ||delta_j||^2 for the
//      bias (Goodfellow, arXiv:1510.01799), in double. A row-form
//      tensor's norm is its row's sum of squares (tensor::sum_squares,
//      the kernel behind Tensor::l2_norm), rounded through float as
//      l2_norm_subset rounds it. Per group the tensors' squared
//      norms add up, and the sqrt comes last.
//   2. batch_scale_noise — the one write. Per element it forms example
//      j's value v (float(a_r * delta_c) from factors, or the row's
//      element), then y = float(v * s_j), plus float(d_j * z) with z
//      example j's counter Gaussian (common/philox.h) on the rows
//      that draw, and adds y into the batch mean, examples in order
//      from 0; the mean is then multiplied by 1/B. Noise is generated
//      two 64-element chunks per step and never materialized.
//
// Algorithm 2 noises each of the B clipped gradients with
// N(0, stddev_j^2) and averages them. A sum of independent Gaussians
// is one Gaussian with the summed variance, so at most two rows draw:
// the observed example o at d_o = stddev_o, the row the type-2 probe
// reads, and the last other example at d = sqrt(sum_{j != o}
// stddev_j^2), the noise of all the others in one draw. The released
// mean has the distribution of B per-example draws, and (observed,
// mean) jointly too, from |params| or 2 |params| draws instead of
// B |params|. A probed call's mean therefore differs in bits from an
// unprobed one's. One example (Fed-SDP's update, B = 1) draws
// sqrt(stddev^2) = stddev on its own key, as before.
//
// Noise element i of parameter p for example j is a pure function of
// (keys[j], p, i), so results are bitwise independent of pool size and
// visit order. With no noise the mean equals scaling each example's
// rows in place and then averaging them in example order, bit for
// bit.
//
// fused_sanitize.cpp is compiled with -ffp-contract=off (see
// src/dp/CMakeLists.txt), so every ISA variant of the noise kernel and
// the scalar reference in tests/testing/kernel_check.h round each
// operation alike.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dp/clipping.h"
#include "tensor/simd.h"
#include "tensor/tensor_list.h"

namespace fedcl {
class ThreadPool;
}

namespace fedcl::dp {

// What the one-write pass hands back.
struct SanitizedBatch {
  // (1/B) sum_j y_j in the original parameter shapes: the local step
  // gradient.
  tensor::list::TensorList mean;
  // y_j of the one example asked for (the type-2 probe's view of the
  // sanitized per-example gradient); empty when none was.
  tensor::list::TensorList observed;
};

// One row of the scale+noise pass in place: d[i] = d[i] * scale +
// stddev * z_i for i in [0, n), where z_i is element i of the counter
// Gaussian of (key, stream). Takes the AVX-512 Philox where the CPU
// has it; every variant writes the same bits.
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

// Batched forms, parallel on `pool` (nullptr: the process compute
// pool). norms / bounds / stddevs / keys are example-major:
// norms[j * groups.size() + g], bounds[j], stddevs[j], keys[j]
// (both policies pass one bound and one stddev for every example).
std::vector<double> batch_group_norms(
    const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    ThreadPool* pool = nullptr);

// Example j's groups whose norm exceeds bounds[j] are scaled by
// float(bounds[j] / norm); stddevs[j] is the stddev of example j's
// share of the mean's noise (see the top of this file), 0 for none.
// `observe` names the example whose sanitized gradient, noised on its
// own key at its own stddev, comes back in `observed`.
SanitizedBatch batch_scale_noise(
    const tensor::list::PerExampleGrads& grads, const ParamGroups& groups,
    const std::vector<double>& norms, const std::vector<double>& bounds,
    const std::vector<double>& stddevs,
    const std::vector<std::uint64_t>& keys, ThreadPool* pool = nullptr,
    std::optional<std::int64_t> observe = std::nullopt);

// The raw batch mean (1/B) sum_j g_j: the same pass at scale 1 with no
// noise, on the process compute pool.
tensor::list::TensorList batch_mean(
    const tensor::list::PerExampleGrads& grads);

}  // namespace fedcl::dp
