#include "dp/fused_sanitize.h"

#if FEDCL_HAVE_V4_KERNELS
#include <immintrin.h>
#endif

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/philox.h"
#include "common/thread_pool.h"

namespace fedcl::dp {

namespace {

namespace px = philox;

// d[i] = d[i] * scale + stddev * z[i] over one chunk's worth of the row
// (`left` elements remain from d on). Full chunks run in vectors, the
// tail through a buffer; both issue the same two roundings per element.
[[gnu::always_inline]] inline void apply_chunk(float* d, std::int64_t left,
                                               float scale, float stddev,
                                               const px::F32x16 (&z)[4]) {
  if (left >= px::kChunk) {
    for (int v = 0; v < 4; ++v) {
      px::F32x16 x;
      std::memcpy(&x, d + 16 * v, sizeof(x));
      x = x * scale + stddev * z[v];
      std::memcpy(d + 16 * v, &x, sizeof(x));
    }
    return;
  }
  float buf[px::kChunk];
  std::memcpy(buf, z, sizeof(buf));
  for (std::int64_t i = 0; i < left; ++i) d[i] = d[i] * scale + stddev * buf[i];
}

#if FEDCL_HAVE_V4_KERNELS
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

// 32x32 -> 64 multiply of the low words of each 64-bit lane
// (vpmuludq). The portable U64x16 multiply lowers to vpmullq on
// AVX-512, which costs three times as much. The maskz form avoids
// the undefined passthrough GCC 12 warns about in _mm512_mul_epu32.
FEDCL_KERNEL_V4 [[gnu::always_inline]] inline U64x8 mul_lo32(const U64x8& a,
                                                            const U64x8& b) {
  return __builtin_bit_cast(
      U64x8, _mm512_maskz_mul_epu32(0xFF, __builtin_bit_cast(__m512i, a),
                                    __builtin_bit_cast(__m512i, b)));
}

// px::encrypt on AVX-512: each half of the chunk (8 blocks) keeps one
// 32-bit word per 64-bit lane, so a product's low and high words land
// in place without the even/odd blends. Upper lane halves carry
// don't-care bits: vpmuludq reads only the low 32.
FEDCL_KERNEL_V4 [[gnu::always_inline]] inline void encrypt_v4(
    px::Words& c, std::uint64_t key) {
  typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
  U64x8 w[2][4];
  for (int h = 0; h < 2; ++h) {
    for (int m = 0; m < 4; ++m) {
      U32x8 half;
      std::memcpy(&half, reinterpret_cast<const char*>(&c.w[m]) + 32 * h,
                  sizeof(half));
      w[h][m] = __builtin_convertvector(half, U64x8);
    }
  }
  const U64x8 m0 = U64x8{} + px::kM0;
  const U64x8 m1 = U64x8{} + px::kM1;
  std::uint32_t k0 = static_cast<std::uint32_t>(key);
  std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
  for (int r = 0; r < px::kRounds; ++r) {
    for (auto& h : w) {
      const U64x8 p0 = mul_lo32(h[0], m0);
      const U64x8 p1 = mul_lo32(h[2], m1);
      h[0] = (p1 >> 32) ^ h[1] ^ k0;
      h[2] = (p0 >> 32) ^ h[3] ^ k1;
      h[1] = p1;
      h[3] = p0;
    }
    k0 += px::kW0;
    k1 += px::kW1;
  }
  const px::I32x16 low_words = {0,  2,  4,  6,  8,  10, 12, 14,
                                16, 18, 20, 22, 24, 26, 28, 30};
  for (int m = 0; m < 4; ++m) {
    c.w[m] = __builtin_shuffle(__builtin_bit_cast(px::U32x16, w[0][m]),
                               __builtin_bit_cast(px::U32x16, w[1][m]),
                               low_words);
  }
}
#endif  // FEDCL_HAVE_V4_KERNELS

// Raw view of one example's gradient: pointer + element count per
// parameter tensor, in model parameter order.
struct ParamSpan {
  float* data = nullptr;
  std::int64_t numel = 0;
};
using ExampleView = std::vector<ParamSpan>;

ExampleView view_of_example(tensor::list::PerExampleGrads& grads,
                            std::int64_t j) {
  ExampleView ex;
  ex.reserve(grads.rows.size());
  for (auto& rows : grads.rows) {
    const std::int64_t width = rows.numel() / grads.batch;
    ex.push_back(ParamSpan{rows.data() + j * width, width});
  }
  return ex;
}

// Pre-clip joint L2 norm of each group of one example into
// norms[0, groups.size()).
void group_norms(const ExampleView& ex, const ParamGroups& groups,
                 double* norms) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    // Same accumulation order as l2_norm_subset: per-tensor sum of
    // squares rounded through float, joint sqrt last.
    double joint = 0.0;
    for (std::size_t p : groups[g]) {
      FEDCL_CHECK_LT(p, ex.size());
      const float* d = ex[p].data;
      double s = 0.0;
      for (std::int64_t i = 0; i < ex[p].numel; ++i)
        s += static_cast<double>(d[i]) * static_cast<double>(d[i]);
      const double tensor_norm =
          static_cast<double>(static_cast<float>(std::sqrt(s)));
      joint += tensor_norm * tensor_norm;
    }
    norms[g] = std::sqrt(joint);
  }
}

// Per-example kernel: per-param clip scales resolved from the group
// norms, then one fused traversal per tensor. `norms` points at
// this example's groups.size() entries.
void scale_noise_impl(const ExampleView& ex, const ParamGroups& groups,
                      const double* norms, double bound, double stddev,
                      std::uint64_t key) {
  // scale == 1.0f for unclipped params: x * 1.0f is exact, so the fused
  // loop below stays branch-free without perturbing unclipped values.
  std::vector<float> scales(ex.size(), 1.0f);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double norm = norms[g];
    if (norm > bound) {
      const float scale = static_cast<float>(bound / norm);
      for (std::size_t p : groups[g]) {
        FEDCL_CHECK_LT(p, ex.size());
        scales[p] = scale;
      }
    }
  }
  for (std::size_t p = 0; p < ex.size(); ++p) {
    float* d = ex[p].data;
    const std::int64_t n = ex[p].numel;
    const float s = scales[p];
    if (stddev == 0.0) {
      if (s != 1.0f) {
        for (std::int64_t i = 0; i < n; ++i) d[i] *= s;
      }
      continue;
    }
    scale_noise_row(d, n, s, static_cast<float>(stddev), key,
                    static_cast<std::uint64_t>(p));
  }
}

}  // namespace

FEDCL_KERNEL_CLONES
void scale_noise_row_portable(float* d, std::int64_t n, float scale,
                              float stddev, std::uint64_t key,
                              std::uint64_t stream) {
  for (std::int64_t base = 0; base < n; base += px::kChunk) {
    px::Words w = px::counters(stream, base / px::kChunk);
    px::encrypt(w, key);
    px::F32x16 z[4];
    px::normals(w, z);
    apply_chunk(d + base, n - base, scale, stddev, z);
  }
}

#if FEDCL_HAVE_V4_KERNELS
FEDCL_KERNEL_V4
void scale_noise_row_v4(float* d, std::int64_t n, float scale, float stddev,
                        std::uint64_t key, std::uint64_t stream) {
  for (std::int64_t base = 0; base < n; base += px::kChunk) {
    px::Words w = px::counters(stream, base / px::kChunk);
    encrypt_v4(w, key);
    px::F32x16 z[4];
    px::normals(w, z);
    apply_chunk(d + base, n - base, scale, stddev, z);
  }
}
#endif

void scale_noise_row(float* d, std::int64_t n, float scale, float stddev,
                     std::uint64_t key, std::uint64_t stream) {
#if FEDCL_HAVE_V4_KERNELS
  if (fedcl_cpu_has_v4()) {
    scale_noise_row_v4(d, n, scale, stddev, key, stream);
    return;
  }
#endif
  scale_noise_row_portable(d, n, scale, stddev, key, stream);
}

std::vector<double> batch_group_norms(tensor::list::PerExampleGrads& grads,
                                      const ParamGroups& groups,
                                      ThreadPool* pool) {
  const std::int64_t batch = grads.batch;
  std::vector<double> norms(static_cast<std::size_t>(batch) * groups.size());
  ThreadPool& p = pool != nullptr ? *pool : compute_pool();
  p.parallel_for_chunks(
      static_cast<std::size_t>(batch), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          group_norms(view_of_example(grads, static_cast<std::int64_t>(j)),
                      groups, norms.data() + j * groups.size());
        }
      });
  return norms;
}

void batch_scale_noise(tensor::list::PerExampleGrads& grads,
                       const ParamGroups& groups,
                       const std::vector<double>& norms,
                       const std::vector<double>& bounds,
                       const std::vector<double>& stddevs,
                       const std::vector<std::uint64_t>& keys,
                       ThreadPool* pool) {
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  FEDCL_CHECK_EQ(norms.size(), batch * groups.size());
  FEDCL_CHECK_EQ(bounds.size(), batch);
  FEDCL_CHECK_EQ(stddevs.size(), batch);
  FEDCL_CHECK_EQ(keys.size(), batch);
  ThreadPool& p = pool != nullptr ? *pool : compute_pool();
  p.parallel_for_chunks(batch, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const ExampleView ex =
          view_of_example(grads, static_cast<std::int64_t>(j));
      scale_noise_impl(ex, groups, norms.data() + j * groups.size(),
                       bounds[j], stddevs[j], keys[j]);
    }
  });
}

}  // namespace fedcl::dp
