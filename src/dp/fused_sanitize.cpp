#include "dp/fused_sanitize.h"

#if FEDCL_HAVE_V4_KERNELS
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/philox.h"
#include "common/thread_pool.h"

namespace fedcl::dp {

namespace {

namespace px = philox;

using tensor::list::PerExampleGrads;
using tensor::list::PerExampleParam;
using tensor::list::TensorList;

// Elements per step of the noise loop: two Philox chunks, so two
// independent encryptions are in flight.
constexpr std::int64_t kStep = 2 * px::kChunk;

// Example j's gradient of one parameter as the one-write pass reads
// it: a row (row-form rows, or a factored bias's delta row), or the
// two factors of an outer product with `cols` columns.
struct Source {
  const float* row = nullptr;
  const float* a = nullptr;
  const float* delta = nullptr;
  std::int64_t cols = 0;
};

Source source_of(const PerExampleParam& param, std::int64_t batch,
                 std::int64_t j) {
  if (!param.factored()) {
    return {.row = param.rows.data() + j * (param.rows.numel() / batch)};
  }
  const std::int64_t cols = param.delta.numel() / batch;
  if (!param.a.defined()) return {.row = param.delta.data() + j * cols};
  return {.a = param.a.data() + j * (param.a.numel() / batch),
          .delta = param.delta.data() + j * cols,
          .cols = cols};
}

// Elements [first, first + n) of the source: a pointer into the row,
// or the outer product multiplied out into buf.
[[gnu::always_inline]] inline const float* values(const Source& src,
                                                  std::int64_t first,
                                                  std::int64_t n,
                                                  float* buf) {
  if (src.row != nullptr) return src.row + first;
  std::int64_t r = first / src.cols, c = first % src.cols;
  for (std::int64_t k = 0; k < n; ++r, c = 0) {
    const std::int64_t run = std::min(src.cols - c, n - k);
    const float ar = src.a[r];
    for (std::int64_t t = 0; t < run; ++t) buf[k + t] = ar * src.delta[c + t];
    k += run;
  }
  return buf;
}

// y = v * scale + stddev * z over one chunk (`left` elements remain
// from v on), then acc += y where acc is non-null and out = y where
// out is non-null (out may alias v). Full chunks run in vectors, the
// tail element by element; both issue the same roundings.
[[gnu::always_inline]] inline void apply_chunk(const float* v,
                                               std::int64_t left,
                                               float scale, float stddev,
                                               const px::F32x16 (&z)[4],
                                               float* acc, float* out) {
  if (left >= px::kChunk) {
    for (int k = 0; k < 4; ++k) {
      px::F32x16 y;
      std::memcpy(&y, v + 16 * k, sizeof(y));
      y = y * scale + stddev * z[k];
      if (acc != nullptr) {
        px::F32x16 sum;
        std::memcpy(&sum, acc + 16 * k, sizeof(sum));
        sum += y;
        std::memcpy(acc + 16 * k, &sum, sizeof(sum));
      }
      if (out != nullptr) std::memcpy(out + 16 * k, &y, sizeof(y));
    }
    return;
  }
  float buf[px::kChunk];
  std::memcpy(buf, z, sizeof(buf));
  for (std::int64_t i = 0; i < left; ++i) {
    const float y = v[i] * scale + stddev * buf[i];
    if (acc != nullptr) acc[i] += y;
    if (out != nullptr) out[i] = y;
  }
}

// One step of the noise loop at element `base`: its values and the
// Philox counters of its one or two chunks.
struct Step {
  const float* v = nullptr;
  std::int64_t n = 0;
  int chunks = 0;
  px::Words w[2];
};

[[gnu::always_inline]] inline Step begin_step(const Source& src,
                                              std::int64_t base,
                                              std::int64_t hi,
                                              std::uint64_t stream,
                                              float* buf) {
  const std::int64_t n = std::min(kStep, hi - base);
  const auto chunk = static_cast<std::uint64_t>(base / px::kChunk);
  return {.v = values(src, base, n, buf),
          .n = n,
          .chunks = n > px::kChunk ? 2 : 1,
          .w = {px::counters(stream, chunk), px::counters(stream, chunk + 1)}};
}

// The encrypted step's normals applied at element `base`. Both chunks'
// Box-Muller chains are issued before either is applied, so they
// overlap too.
[[gnu::always_inline]] inline void finish_step(const Step& step,
                                               std::int64_t base,
                                               float scale, float stddev,
                                               float* acc, float* out) {
  px::F32x16 z[2][4];
  px::normals(step.w[0], z[0]);
  if (step.chunks == 2) px::normals(step.w[1], z[1]);
  for (int c = 0; c < step.chunks; ++c) {
    const std::int64_t at = base + c * px::kChunk;
    apply_chunk(step.v + c * px::kChunk, step.n - c * px::kChunk, scale,
                stddev, z[c], acc != nullptr ? acc + at : nullptr,
                out != nullptr ? out + at : nullptr);
  }
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

// px::encrypt on AVX-512 over N chunks at once: each half of a chunk
// (8 blocks) keeps one 32-bit word per 64-bit lane, so a product's low
// and high words land in place without the even/odd blends. Upper lane
// halves carry don't-care bits: vpmuludq reads only the low 32. The
// 2N halves are independent chains, so their multiplies overlap.
template <int N>
FEDCL_KERNEL_V4 [[gnu::always_inline]] inline void encrypt_v4(
    px::Words* c, std::uint64_t key) {
  typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
  U64x8 w[2 * N][4];
  for (int h = 0; h < 2 * N; ++h) {
    for (int m = 0; m < 4; ++m) {
      U32x8 half;
      std::memcpy(&half,
                  reinterpret_cast<const char*>(&c[h / 2].w[m]) + 32 * (h % 2),
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
  for (int i = 0; i < N; ++i) {
    for (int m = 0; m < 4; ++m) {
      c[i].w[m] =
          __builtin_shuffle(__builtin_bit_cast(px::U32x16, w[2 * i][m]),
                            __builtin_bit_cast(px::U32x16, w[2 * i + 1][m]),
                            low_words);
    }
  }
}
#endif  // FEDCL_HAVE_V4_KERNELS

// The noise loop over elements [lo, hi) of one example's gradient of
// parameter `stream` (lo a multiple of kChunk): apply_chunk with the
// element's counter Gaussian. The two variants differ only in the
// Philox encryption.
FEDCL_KERNEL_CLONES
void noise_range_portable(const Source& src, std::int64_t lo,
                          std::int64_t hi, float scale, float stddev,
                          std::uint64_t key, std::uint64_t stream,
                          float* acc, float* out) {
  float buf[kStep];
  for (std::int64_t base = lo; base < hi; base += kStep) {
    Step step = begin_step(src, base, hi, stream, buf);
    for (int c = 0; c < step.chunks; ++c) px::encrypt(step.w[c], key);
    finish_step(step, base, scale, stddev, acc, out);
  }
}

#if FEDCL_HAVE_V4_KERNELS
FEDCL_KERNEL_V4
void noise_range_v4(const Source& src, std::int64_t lo, std::int64_t hi,
                    float scale, float stddev, std::uint64_t key,
                    std::uint64_t stream, float* acc, float* out) {
  float buf[kStep];
  for (std::int64_t base = lo; base < hi; base += kStep) {
    Step step = begin_step(src, base, hi, stream, buf);
    if (step.chunks == 2) {
      encrypt_v4<2>(step.w, key);
    } else {
      encrypt_v4<1>(step.w, key);
    }
    finish_step(step, base, scale, stddev, acc, out);
  }
}
#endif

void noise_range(const Source& src, std::int64_t lo, std::int64_t hi,
                 float scale, float stddev, std::uint64_t key,
                 std::uint64_t stream, float* acc, float* out) {
#if FEDCL_HAVE_V4_KERNELS
  if (fedcl_cpu_has_v4()) {
    noise_range_v4(src, lo, hi, scale, stddev, key, stream, acc, out);
    return;
  }
#endif
  noise_range_portable(src, lo, hi, scale, stddev, key, stream, acc, out);
}

// The noise-free loop: y = v * scale, acc += y, out = y.
FEDCL_KERNEL_CLONES
void scale_range(const Source& src, std::int64_t lo, std::int64_t hi,
                 float scale, float* acc, float* out) {
  float buf[kStep];
  for (std::int64_t base = lo; base < hi; base += kStep) {
    const std::int64_t n = std::min(kStep, hi - base);
    const float* v = values(src, base, n, buf);
    for (std::int64_t i = 0; i < n; ++i) {
      const float y = v[i] * scale;
      acc[base + i] += y;
      if (out != nullptr) out[base + i] = y;
    }
  }
}

// Squared L2 norm of example j's gradient of one parameter, as the
// clip norm defines it (see the header).
double squared_norm(const PerExampleParam& param, std::int64_t batch,
                    std::int64_t j) {
  auto sum_sq = [](const float* d, std::int64_t n) {
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      s += static_cast<double>(d[i]) * static_cast<double>(d[i]);
    return s;
  };
  if (!param.factored()) {
    const std::int64_t width = param.rows.numel() / batch;
    const double tensor_norm = static_cast<double>(static_cast<float>(
        std::sqrt(tensor::sum_squares(param.rows.data() + j * width,
                                      width))));
    return tensor_norm * tensor_norm;
  }
  const std::int64_t cols = param.delta.numel() / batch;
  const double delta_sq = sum_sq(param.delta.data() + j * cols, cols);
  if (!param.a.defined()) return delta_sq;
  const std::int64_t in = param.a.numel() / batch;
  return sum_sq(param.a.data() + j * in, in) * delta_sq;
}

// Work per chunk below which a call stays on fewer threads, counted in
// Gaussian draws: a pool hand-off costs microseconds, as much as ~10k
// of them. A noise-free row costs about 1/kScaledPerDraw of a noised
// one (1/6 to 1/9 from factors, 1/11 to 1/16 from rows; Release, one
// thread).
constexpr std::int64_t kMinDrawsPerChunk = std::int64_t{1} << 14;
constexpr std::int64_t kScaledPerDraw = 8;

// The one write (see the header): mean[p] = (1/B) sum_j y_jp with
// y_jp = v * scales[j * P + p] + draws[j] * z, examples added in
// order from 0, where at most two examples draw: the observed one at
// its own stddev, and the last other one at the root of the summed
// variances of all others. Work units are kStep-element spans of one
// parameter, numbered across parameters; a unit runs every example,
// so each element's sum keeps its order whatever the split.
SanitizedBatch one_write(const PerExampleGrads& grads,
                         const std::vector<float>& scales,
                         const std::vector<double>& stddevs,
                         const std::vector<std::uint64_t>& keys,
                         ThreadPool* pool,
                         std::optional<std::int64_t> observe) {
  const std::int64_t batch = grads.batch;
  const std::size_t params = grads.params.size();
  FEDCL_CHECK_GT(batch, 0);
  FEDCL_CHECK_EQ(grads.shapes.size(), params);
  FEDCL_CHECK(!observe || (*observe >= 0 && *observe < batch))
      << "observed example " << *observe << " batch " << batch;
  SanitizedBatch out;
  std::vector<std::int64_t> first_unit(params + 1, 0);
  for (std::size_t p = 0; p < params; ++p) {
    out.mean.emplace_back(grads.shapes[p]);
    if (observe) out.observed.emplace_back(grads.shapes[p]);
    const std::int64_t numel = out.mean.back().numel();
    first_unit[p + 1] = first_unit[p] + (numel + kStep - 1) / kStep;
  }
  // A sum of independent N(0, s_j^2) is N(0, sum_j s_j^2), so the
  // examples other than the observed one share one draw.
  std::vector<double> draws(static_cast<std::size_t>(batch), 0.0);
  double rest_var = 0.0;
  std::int64_t last = -1;
  for (std::int64_t j = 0; j < batch; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (observe == j) {
      draws[ju] = stddevs[ju];
    } else {
      rest_var += stddevs[ju] * stddevs[ju];
      last = j;
    }
  }
  if (last >= 0) draws[static_cast<std::size_t>(last)] = std::sqrt(rest_var);
  const auto noised = static_cast<std::int64_t>(std::count_if(
      draws.begin(), draws.end(), [](double s) { return s != 0.0; }));
  // A unit's work in 1/kScaledPerDraw draws: kStep elements of every
  // row, the noised ones at full cost.
  const std::int64_t unit_work =
      kStep * (kScaledPerDraw * noised + batch - noised);
  const float inv = 1.0f / static_cast<float>(batch);
  const auto grain = static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinDrawsPerChunk * kScaledPerDraw / unit_work));
  ThreadPool& pl = pool != nullptr ? *pool : compute_pool();
  pl.parallel_for_chunks(
      static_cast<std::size_t>(first_unit[params]), grain,
      [&](std::size_t unit_begin, std::size_t unit_end) {
        const auto ub = static_cast<std::int64_t>(unit_begin);
        const auto ue = static_cast<std::int64_t>(unit_end);
        for (std::size_t p = 0; p < params; ++p) {
          if (first_unit[p + 1] <= ub || first_unit[p] >= ue) continue;
          float* acc = out.mean[p].data();
          const std::int64_t first = first_unit[p];
          const std::int64_t lo = (std::max(ub, first) - first) * kStep;
          const std::int64_t hi =
              std::min((std::min(ue, first_unit[p + 1]) - first) * kStep,
                       out.mean[p].numel());
          for (std::int64_t j = 0; j < batch; ++j) {
            const Source src = source_of(grads.params[p], batch, j);
            float* obs = observe == j ? out.observed[p].data() : nullptr;
            const auto ju = static_cast<std::size_t>(j);
            const float scale = scales[ju * params + p];
            if (draws[ju] == 0.0) {
              scale_range(src, lo, hi, scale, acc, obs);
            } else {
              noise_range(src, lo, hi, scale, static_cast<float>(draws[ju]),
                          keys[ju], static_cast<std::uint64_t>(p), acc, obs);
            }
          }
          for (std::int64_t i = lo; i < hi; ++i) acc[i] *= inv;
        }
      });
  return out;
}

}  // namespace

void scale_noise_row_portable(float* d, std::int64_t n, float scale,
                              float stddev, std::uint64_t key,
                              std::uint64_t stream) {
  noise_range_portable({.row = d}, 0, n, scale, stddev, key, stream,
                       /*acc=*/nullptr, /*out=*/d);
}

#if FEDCL_HAVE_V4_KERNELS
void scale_noise_row_v4(float* d, std::int64_t n, float scale, float stddev,
                        std::uint64_t key, std::uint64_t stream) {
  noise_range_v4({.row = d}, 0, n, scale, stddev, key, stream,
                 /*acc=*/nullptr, /*out=*/d);
}
#endif

void scale_noise_row(float* d, std::int64_t n, float scale, float stddev,
                     std::uint64_t key, std::uint64_t stream) {
  noise_range({.row = d}, 0, n, scale, stddev, key, stream, /*acc=*/nullptr,
              /*out=*/d);
}

std::vector<double> batch_group_norms(const PerExampleGrads& grads,
                                      const ParamGroups& groups,
                                      ThreadPool* pool) {
  const std::int64_t batch = grads.batch;
  for (const auto& group : groups) {
    for (std::size_t p : group) FEDCL_CHECK_LT(p, grads.params.size());
  }
  std::vector<double> norms(static_cast<std::size_t>(batch) * groups.size());
  ThreadPool& pl = pool != nullptr ? *pool : compute_pool();
  pl.parallel_for_chunks(
      static_cast<std::size_t>(batch), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          for (std::size_t g = 0; g < groups.size(); ++g) {
            double joint = 0.0;
            for (std::size_t p : groups[g]) {
              joint += squared_norm(grads.params[p], batch,
                                    static_cast<std::int64_t>(j));
            }
            norms[j * groups.size() + g] = std::sqrt(joint);
          }
        }
      });
  return norms;
}

SanitizedBatch batch_scale_noise(const PerExampleGrads& grads,
                                 const ParamGroups& groups,
                                 const std::vector<double>& norms,
                                 const std::vector<double>& bounds,
                                 const std::vector<double>& stddevs,
                                 const std::vector<std::uint64_t>& keys,
                                 ThreadPool* pool,
                                 std::optional<std::int64_t> observe) {
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  const std::size_t params = grads.params.size();
  FEDCL_CHECK_EQ(norms.size(), batch * groups.size());
  FEDCL_CHECK_EQ(bounds.size(), batch);
  FEDCL_CHECK_EQ(stddevs.size(), batch);
  FEDCL_CHECK_EQ(keys.size(), batch);
  // scale 1.0f for unclipped params: v * 1.0f is exact.
  std::vector<float> scales(batch * params, 1.0f);
  for (std::size_t j = 0; j < batch; ++j) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t p : groups[g]) FEDCL_CHECK_LT(p, params);
      const double norm = norms[j * groups.size() + g];
      if (norm > bounds[j]) {
        for (std::size_t p : groups[g])
          scales[j * params + p] = static_cast<float>(bounds[j] / norm);
      }
    }
  }
  return one_write(grads, scales, stddevs, keys, pool, observe);
}

TensorList batch_mean(const PerExampleGrads& grads) {
  const auto batch = static_cast<std::size_t>(grads.batch);
  return one_write(grads, std::vector<float>(batch * grads.params.size(), 1.0f),
                   std::vector<double>(batch, 0.0),
                   std::vector<std::uint64_t>(batch, 0), /*pool=*/nullptr,
                   std::nullopt)
      .mean;
}

}  // namespace fedcl::dp
