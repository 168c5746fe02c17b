#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace fedcl::tensor {

namespace {

// Work threshold (total floats moved) below which the batch loop stays
// serial; small unfoldings are dominated by pool handoff latency.
constexpr std::int64_t kParallelFloats = 1 << 15;

// Unfolds one image. For each (output row, kh) the valid kw range
// [kw_lo, kw_hi) maps to one contiguous span of the NHWC source row,
// so the body is clamped memset / memcpy / memset instead of per-
// element bounds checks.
// Row segments of at most this many floats are copied with inline
// loops: at conv1-like shapes (in_c=1, kernel 5 -> 5-float segments)
// the libc memset/memcpy call overhead costs more than the move.
constexpr std::int64_t kInlineSegFloats = 16;

void im2col_image(const float* img, float* cols, const ConvSpec& spec) {
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  const std::int64_t row_seg = spec.kernel_w * spec.in_c;
  const bool inline_seg = row_seg <= kInlineSegFloats;
  for (std::int64_t y = 0; y < oh; ++y) {
    const std::int64_t ys = y * spec.stride - spec.pad;
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      float* row = cols + (y * ow + xo) * patch;
      const std::int64_t xs = xo * spec.stride - spec.pad;
      const std::int64_t kw_lo = std::max<std::int64_t>(0, -xs);
      const std::int64_t kw_hi =
          std::min(spec.kernel_w, spec.in_w - xs);
      const std::int64_t lo = kw_lo * spec.in_c;
      const std::int64_t hi = kw_hi * spec.in_c;
      const float* col_base = img + xs * spec.in_c;
      for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
        float* seg = row + kh * row_seg;
        const std::int64_t yy = ys + kh;
        if (yy < 0 || yy >= spec.in_h || kw_lo >= kw_hi) {
          if (inline_seg) {
            for (std::int64_t i = 0; i < row_seg; ++i) seg[i] = 0.0f;
          } else {
            std::memset(seg, 0, static_cast<std::size_t>(row_seg) *
                                    sizeof(float));
          }
          continue;
        }
        const float* src = col_base + yy * hw_stride;
        if (inline_seg) {
          std::int64_t i = 0;
          for (; i < lo; ++i) seg[i] = 0.0f;
          for (; i < hi; ++i) seg[i] = src[i];
          for (; i < row_seg; ++i) seg[i] = 0.0f;
          continue;
        }
        if (lo > 0)
          std::memset(seg, 0, static_cast<std::size_t>(lo) * sizeof(float));
        std::memcpy(seg + lo, src + lo,
                    static_cast<std::size_t>(hi - lo) * sizeof(float));
        if (hi < row_seg)
          std::memset(seg + hi, 0,
                      static_cast<std::size_t>(row_seg - hi) * sizeof(float));
      }
    }
  }
}

// Folds one image's unfolded gradient back, span-adds in the same
// (y, xo, kh, kw, c) order as the naive triple loop — col2im output is
// therefore bitwise independent of the blocking.
FEDCL_KERNEL_CLONES
void span_add(float* __restrict dst, const float* __restrict src,
              std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void col2im_image(const float* cols, float* img, const ConvSpec& spec) {
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  const std::int64_t row_seg = spec.kernel_w * spec.in_c;
  for (std::int64_t y = 0; y < oh; ++y) {
    const std::int64_t ys = y * spec.stride - spec.pad;
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      const float* row = cols + (y * ow + xo) * patch;
      const std::int64_t xs = xo * spec.stride - spec.pad;
      const std::int64_t kw_lo = std::max<std::int64_t>(0, -xs);
      const std::int64_t kw_hi =
          std::min(spec.kernel_w, spec.in_w - xs);
      if (kw_lo >= kw_hi) continue;
      const std::int64_t lo = kw_lo * spec.in_c;
      const std::int64_t hi = kw_hi * spec.in_c;
      for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
        const std::int64_t yy = ys + kh;
        if (yy < 0 || yy >= spec.in_h) continue;
        span_add(img + yy * hw_stride + xs * spec.in_c + lo,
                 row + kh * row_seg + lo, hi - lo);
      }
    }
  }
}

void for_each_image(std::int64_t n, std::int64_t floats_per_image,
                    const std::function<void(std::int64_t)>& body) {
  ThreadPool& pool = compute_pool();
  if (n * floats_per_image < kParallelFloats || pool.size() <= 1) {
    for (std::int64_t b = 0; b < n; ++b) body(b);
    return;
  }
  pool.parallel_for_chunks(static_cast<std::size_t>(n), /*grain=*/1,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t b = begin; b < end; ++b)
                               body(static_cast<std::int64_t>(b));
                           });
}

}  // namespace

void ConvSpec::validate() const {
  FEDCL_CHECK_GT(in_h, 0);
  FEDCL_CHECK_GT(in_w, 0);
  FEDCL_CHECK_GT(in_c, 0);
  FEDCL_CHECK_GT(kernel_h, 0);
  FEDCL_CHECK_GT(kernel_w, 0);
  FEDCL_CHECK_GT(stride, 0);
  FEDCL_CHECK_GE(pad, 0);
  FEDCL_CHECK_GT(out_h(), 0);
  FEDCL_CHECK_GT(out_w(), 0);
}

Tensor im2col(const Tensor& x, const ConvSpec& spec) {
  spec.validate();
  FEDCL_CHECK_EQ(x.ndim(), 4u);
  const std::int64_t n = x.dim(0);
  FEDCL_CHECK_EQ(x.dim(1), spec.in_h);
  FEDCL_CHECK_EQ(x.dim(2), spec.in_w);
  FEDCL_CHECK_EQ(x.dim(3), spec.in_c);

  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t per_image = oh * ow * patch;
  Tensor cols({n * oh * ow, patch});
  const float* px = x.data();
  float* pc = cols.data();
  const std::int64_t img_stride = spec.in_h * spec.in_w * spec.in_c;
  for_each_image(n, per_image, [&](std::int64_t b) {
    im2col_image(px + b * img_stride, pc + b * per_image, spec);
  });
  return cols;
}

Tensor conv_input_grad(const Tensor& delta, const Tensor& w,
                       const ConvSpec& spec, std::int64_t n) {
  spec.validate();
  FEDCL_CHECK_EQ(delta.ndim(), 2u);
  FEDCL_CHECK_EQ(w.ndim(), 2u);
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t oc = w.dim(1);
  FEDCL_CHECK_EQ(delta.dim(0), n * oh * ow);
  FEDCL_CHECK_EQ(delta.dim(1), oc);
  FEDCL_CHECK_EQ(w.dim(0), patch);

  // w [patch, oc] transposed once up front so every per-image tile is
  // a plain NN matmul with ascending-oc accumulation.
  std::vector<float> wt(static_cast<std::size_t>(oc) * patch);
  const float* pw = w.data();
  for (std::int64_t p = 0; p < patch; ++p)
    for (std::int64_t c = 0; c < oc; ++c) wt[c * patch + p] = pw[p * oc + c];

  Tensor x({n, spec.in_h, spec.in_w, spec.in_c});
  const float* pd = delta.data();
  float* px = x.data();
  const std::int64_t rows = oh * ow;
  const std::int64_t img_stride = spec.in_h * spec.in_w * spec.in_c;
  ThreadPool& pool = compute_pool();
  const bool parallel =
      n > 1 && n * rows * oc * patch >= (1 << 18) && pool.size() > 1;
  auto image = [&](std::int64_t b, std::vector<float>& scratch) {
    std::memset(scratch.data(), 0,
                static_cast<std::size_t>(rows) * patch * sizeof(float));
    matmul_nn_into(pd + b * rows * oc, wt.data(), scratch.data(), rows, oc,
                   patch);
    col2im_image(scratch.data(), px + b * img_stride, spec);
  };
  if (!parallel) {
    std::vector<float> scratch(static_cast<std::size_t>(rows) * patch);
    for (std::int64_t b = 0; b < n; ++b) image(b, scratch);
    return x;
  }
  pool.parallel_for_chunks(static_cast<std::size_t>(n), /*grain=*/1,
                           [&](std::size_t begin, std::size_t end) {
                             std::vector<float> scratch(
                                 static_cast<std::size_t>(rows) * patch);
                             for (std::size_t b = begin; b < end; ++b)
                               image(static_cast<std::int64_t>(b), scratch);
                           });
  return x;
}

}  // namespace fedcl::tensor
