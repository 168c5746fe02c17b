// Fast-vs-naive kernel checking helpers shared by tests.
//
// Each optimized kernel (blocked matmul, span-based im2col, the
// fused DP sanitizer and its counter Gaussian) is checked against a
// deliberately naive reference: straight loops, double accumulation
// where the reference is numerical, and the exact float order where the
// comparison must be bitwise. Inputs come from seeded per-op RNG fills
// so every shape in a sweep exercises different data.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/philox.h"
#include "common/rng.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/tensor_list.h"

namespace fedcl::testing {

using tensor::ConvSpec;
using tensor::Shape;
using tensor::Tensor;
using tensor::list::PerExampleGrads;
using tensor::list::TensorList;

// Seeded standard-normal fill; one fresh Rng per op keeps checks
// independent of evaluation order in a sweep.
inline Tensor rng_fill(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(shape, rng);
}

// C = A B in double precision, naive triple loop.
inline std::vector<double> naive_matmul_nn(const float* a, const float* b,
                                           std::int64_t m, std::int64_t k,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < n; ++j)
        c[i * n + j] += static_cast<double>(a[i * k + kk]) *
                        static_cast<double>(b[kk * n + j]);
  return c;
}

// C = A^T B, A: [k, m].
inline std::vector<double> naive_matmul_tn(const float* a, const float* b,
                                           std::int64_t k, std::int64_t m,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j)
        c[i * n + j] += static_cast<double>(a[kk * m + i]) *
                        static_cast<double>(b[kk * n + j]);
  return c;
}

// C = A B^T, B: [n, k].
inline std::vector<double> naive_matmul_nt(const float* a, const float* b,
                                           std::int64_t m, std::int64_t k,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t kk = 0; kk < k; ++kk)
        c[i * n + j] += static_cast<double>(a[i * k + kk]) *
                        static_cast<double>(b[j * k + kk]);
  return c;
}

// C = A B^T in float, one dot product per output, ascending k: the
// arithmetic every small-m matmul_nt output must reproduce bit for bit.
inline std::vector<float> dot_form_matmul_nt(const float* a, const float* b,
                                             std::int64_t m, std::int64_t k,
                                             std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk)
        s += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] = s;
    }
  return c;
}

// tensor::sum_squares in straight scalar code: element i's square into
// double lane i mod 8, lanes combined as
// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
inline double reference_sum_squares(const float* p, std::int64_t n) {
  double lane[8] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = p[i];
    lane[i % 8] += x * x;
  }
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

// Float kernels accumulate k terms in single precision; bound the
// comparison by a k-scaled tolerance around the double reference.
inline void expect_matmul_close(const Tensor& got,
                                const std::vector<double>& ref,
                                std::int64_t k, const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), ref.size()) << what;
  const double tol = 1e-5 * std::sqrt(static_cast<double>(k)) + 1e-6;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(ref[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(got.at(i), ref[static_cast<std::size_t>(i)], tol * scale)
        << what << " element " << i;
  }
}

// The original per-element im2col, kept verbatim as the reference for
// the span-based fast path (which must match it bitwise — it moves the
// same floats, just in larger pieces).
inline Tensor naive_im2col(const Tensor& x, const ConvSpec& spec) {
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  Tensor cols({n * oh * ow, patch});
  const float* px = x.data();
  float* pc = cols.data();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  for (std::int64_t b = 0; b < n; ++b) {
    const float* img = px + b * spec.in_h * hw_stride;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        float* row = pc + ((b * oh + y) * ow + xo) * patch;
        const std::int64_t ys = y * spec.stride - spec.pad;
        const std::int64_t xs = xo * spec.stride - spec.pad;
        std::int64_t k = 0;
        for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
          const std::int64_t yy = ys + kh;
          for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw) {
            const std::int64_t xx = xs + kw;
            if (yy >= 0 && yy < spec.in_h && xx >= 0 && xx < spec.in_w) {
              const float* src = img + yy * hw_stride + xx * spec.in_c;
              for (std::int64_t c = 0; c < spec.in_c; ++c) row[k++] = src[c];
            } else {
              for (std::int64_t c = 0; c < spec.in_c; ++c) row[k++] = 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

// Scalar reference of the counter Gaussian (common/philox.h), one
// element at a time: the KAT-pinned scalar Philox block, then float
// Box-Muller as straight-line code, with branches where the lane
// kernel uses masks and shuffles. The vectorized fill must match it
// bitwise. That holds because IEEE add, multiply, sqrt and int->float
// conversion round the same on every ISA, and because both sides are
// compiled without FMA contraction (tests/CMakeLists.txt,
// src/dp/CMakeLists.txt).
inline float reference_log(float u) {
  std::int32_t bits;
  std::memcpy(&bits, &u, sizeof(bits));
  std::int32_t e = (bits >> 23) - 127;
  const std::int32_t mantissa = (bits & 0x007FFFFF) | 0x3F800000;
  float m;
  std::memcpy(&m, &mantissa, sizeof(m));
  if (m > philox::kSqrt2) {
    m = m * 0.5f;
    e += 1;
  }
  const float f = m - 1.0f;
  const float fe = static_cast<float>(e);
  const float z = f * f;
  float y = philox::kLogP[0];
  for (int i = 1; i < 9; ++i) y = y * f + philox::kLogP[i];
  y = y * f * z;
  y = y + philox::kLn2Lo * fe;
  y = y - 0.5f * z;
  return (f + y) + philox::kLn2Hi * fe;
}

// sqrt(-2 ln u1) with u1 = wr 2^-32 + 2^-33.
inline float reference_radius(std::uint32_t wr) {
  const float u1 = static_cast<float>(wr) * 0x1p-32f + 0x1p-33f;
  return std::sqrt(-2.0f * reference_log(u1));
}

// cos and sin of wt 2^-32 turns.
inline void reference_sincos(std::uint32_t wt, float* cos_out,
                             float* sin_out) {
  const std::uint32_t quadrant = (wt + 0x20000000u) >> 30;
  const std::int32_t rem = static_cast<std::int32_t>(wt - (quadrant << 30));
  const float x = static_cast<float>(rem) * philox::kTurnPerWord;
  const float z = x * x;
  const float s =
      ((philox::kSinP[0] * z + philox::kSinP[1]) * z + philox::kSinP[2]) * z *
          x +
      x;
  const float c =
      ((philox::kCosP[0] * z + philox::kCosP[1]) * z + philox::kCosP[2]) * z *
          z -
      0.5f * z + 1.0f;
  switch (quadrant) {
    case 0:
      *cos_out = c;
      *sin_out = s;
      break;
    case 1:
      *cos_out = -s;
      *sin_out = c;
      break;
    case 2:
      *cos_out = -c;
      *sin_out = -s;
      break;
    default:
      *cos_out = s;
      *sin_out = -c;
      break;
  }
}

// Element i of the Gaussian stream (key, stream): block i >> 2, word
// pair (i & 2), cosine or sine leg (i & 1).
inline float reference_normal(std::uint64_t key, std::uint64_t stream,
                              std::uint64_t i) {
  const std::uint64_t block = i >> 2;
  const PhiloxBlock b =
      philox4x32(static_cast<std::uint32_t>(block),
                 static_cast<std::uint32_t>(block >> 32),
                 static_cast<std::uint32_t>(stream),
                 static_cast<std::uint32_t>(stream >> 32),
                 static_cast<std::uint32_t>(key),
                 static_cast<std::uint32_t>(key >> 32));
  const std::uint32_t wr = (i & 2) ? b.v[2] : b.v[0];
  const std::uint32_t wt = (i & 2) ? b.v[3] : b.v[1];
  float c, s;
  reference_sincos(wt, &c, &s);
  const float r = reference_radius(wr);
  return (i & 1) ? r * s : r * c;
}

// Scalar reference of the clip norms (dp::batch_group_norms), straight
// loops in the kernel's order: a factored tensor's squared norm from
// its factors in double, serial sums, ||a_j||^2 ||delta_j||^2 for a
// weight and ||delta_j||^2 for a bias; a row's sum of squares in the
// eight lanes of reference_sum_squares with the tensor norm rounded
// through float; per group the squared norms summed, sqrt last.
// Example-major, like the kernel's output.
inline std::vector<double> reference_group_norms(
    const PerExampleGrads& grads,
    const std::vector<std::vector<std::size_t>>& groups) {
  auto sum_sq = [&](const Tensor& t, std::int64_t j) {
    const std::int64_t width = t.numel() / grads.batch;
    double s = 0.0;
    for (std::int64_t i = 0; i < width; ++i) {
      const double v = t.at(j * width + i);
      s += v * v;
    }
    return s;
  };
  std::vector<double> norms;
  for (std::int64_t j = 0; j < grads.batch; ++j) {
    for (const auto& group : groups) {
      double joint = 0.0;
      for (std::size_t p : group) {
        const tensor::list::PerExampleParam& param = grads.params[p];
        if (!param.factored()) {
          const std::int64_t width = param.rows.numel() / grads.batch;
          const double tensor_norm =
              static_cast<double>(static_cast<float>(std::sqrt(
                  reference_sum_squares(param.rows.data() + j * width,
                                        width))));
          joint += tensor_norm * tensor_norm;
        } else if (!param.a.defined()) {
          joint += sum_sq(param.delta, j);
        } else {
          joint += sum_sq(param.a, j) * sum_sq(param.delta, j);
        }
      }
      norms.push_back(std::sqrt(joint));
    }
  }
  return norms;
}

// The row path the one-write pass replaced, per example: example j's
// gradient multiplied out into rows (example(j)), each group whose
// norm exceeds bounds[j] scaled by float(bounds[j] / norm), then noised
// in place, d = d * scale + stddev * z with the scalar reference
// normal; stddev 0 only scales. Row j is what the pass returns when it
// observes example j. With no noise the rows' mean is the pass's mean;
// with noise it is Algorithm 2's mean of B per-example draws, which
// the pass matches in distribution only (reference_one_draw_mean).
inline std::vector<TensorList> reference_sanitized_rows(
    const PerExampleGrads& grads,
    const std::vector<std::vector<std::size_t>>& groups,
    const std::vector<double>& norms, const std::vector<double>& bounds,
    const std::vector<double>& stddevs,
    const std::vector<std::uint64_t>& keys) {
  std::vector<TensorList> rows;
  for (std::int64_t j = 0; j < grads.batch; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    TensorList ex = grads.example(j);
    std::vector<float> scales(ex.size(), 1.0f);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double norm = norms[ju * groups.size() + g];
      if (norm > bounds[ju]) {
        for (std::size_t p : groups[g])
          scales[p] = static_cast<float>(bounds[ju] / norm);
      }
    }
    for (std::size_t p = 0; p < ex.size(); ++p) {
      for (std::int64_t i = 0; i < ex[p].numel(); ++i) {
        float& d = ex[p].at(i);
        if (stddevs[ju] == 0.0) {
          if (scales[p] != 1.0f) d *= scales[p];
        } else {
          d = d * scales[p] +
              static_cast<float>(stddevs[ju]) *
                  reference_normal(keys[ju], p, static_cast<std::uint64_t>(i));
        }
      }
    }
    rows.push_back(std::move(ex));
  }
  return rows;
}

// Their batch mean, formed as the row path formed it: zero, then each
// example added in order from 0, then multiplied by 1/B.
inline TensorList reference_row_mean(const std::vector<TensorList>& rows) {
  TensorList mean;
  for (const Tensor& t : rows.front()) mean.emplace_back(t.shape());
  for (const TensorList& ex : rows) {
    for (std::size_t p = 0; p < mean.size(); ++p) {
      for (std::int64_t i = 0; i < mean[p].numel(); ++i)
        mean[p].at(i) += ex[p].at(i);
    }
  }
  const float inv = 1.0f / static_cast<float>(rows.size());
  for (Tensor& t : mean) {
    for (std::int64_t i = 0; i < t.numel(); ++i) t.at(i) *= inv;
  }
  return mean;
}

// The mean the one-write pass releases (dp/fused_sanitize.h), from the
// scalar pieces above: the noise of every example but `observe` drawn
// once, on the last such example's row and key at
// sqrt(sum_{j != observe} stddevs[j]^2) (summed in example order, in
// double), the observed example's on its own row and key at its own
// stddev, no other row noised; then the row path's mean.
inline TensorList reference_one_draw_mean(
    const PerExampleGrads& grads,
    const std::vector<std::vector<std::size_t>>& groups,
    const std::vector<double>& norms, const std::vector<double>& bounds,
    const std::vector<double>& stddevs,
    const std::vector<std::uint64_t>& keys,
    std::optional<std::int64_t> observe) {
  std::vector<double> draws(stddevs.size(), 0.0);
  double rest_var = 0.0;
  std::int64_t last = -1;
  for (std::int64_t j = 0; j < grads.batch; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (observe == j) {
      draws[ju] = stddevs[ju];
    } else {
      rest_var += stddevs[ju] * stddevs[ju];
      last = j;
    }
  }
  if (last >= 0) draws[static_cast<std::size_t>(last)] = std::sqrt(rest_var);
  return reference_row_mean(
      reference_sanitized_rows(grads, groups, norms, bounds, draws, keys));
}

// Bitwise equality of two TensorLists (memcmp per tensor).
inline void expect_bitwise_equal(const TensorList& got,
                                 const TensorList& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].numel(), want[p].numel()) << what << " param " << p;
    for (std::int64_t i = 0; i < got[p].numel(); ++i) {
      ASSERT_EQ(std::memcmp(&got[p].data()[i], &want[p].data()[i],
                            sizeof(float)),
                0)
          << what << " param " << p << " element " << i << ": "
          << got[p].at(i) << " vs " << want[p].at(i);
    }
  }
}

}  // namespace fedcl::testing
