#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"

namespace fedcl::tensor {

namespace {

// One image with `pad` zero rows above and below and `pad` zero columns
// left and right, so every (output pixel, kh) segment of the unfolding
// lies inside it. Unpadded convolutions read and write the image itself.
struct Bordered {
  std::int64_t row_floats = 0;  // one bordered row: (in_w + 2 pad) * in_c
  std::vector<float> buf;       // (in_h + 2 pad) rows; empty when pad == 0

  explicit Bordered(const ConvSpec& spec)
      : row_floats((spec.in_w + 2 * spec.pad) * spec.in_c) {
    if (spec.pad > 0) {
      buf.assign(static_cast<std::size_t>(
                     (spec.in_h + 2 * spec.pad) * row_floats),
                 0.0f);
    }
  }

  // The first in-image element of row 0.
  float* interior(const ConvSpec& spec) {
    return buf.data() + spec.pad * row_floats + spec.pad * spec.in_c;
  }
};

// Runs fn with the segment length kernel_w * in_c as a compile-time
// constant for the zoo's 5-wide kernels on 1, 3 or 8 channels, so each
// segment is a few fixed-size vector moves instead of a counted loop or
// a libc call; any other length runs the same body with a run-time
// count.
template <class Fn>
void with_segment_length(std::int64_t seg, const Fn& fn) {
  switch (seg) {
    case 5:
      fn(std::integral_constant<std::int64_t, 5>());
      return;
    case 15:
      fn(std::integral_constant<std::int64_t, 15>());
      return;
    case 40:
      fn(std::integral_constant<std::int64_t, 40>());
      return;
    default:
      fn(seg);
  }
}

// The (output pixel, kh) segment at output row y, column xo: its first
// element in an image whose rows are `row_floats` apart, with (0, 0)
// the top-left corner of the bordered image.
std::int64_t segment_offset(const ConvSpec& spec, std::int64_t row_floats,
                            std::int64_t y, std::int64_t xo) {
  return y * spec.stride * row_floats + xo * spec.stride * spec.in_c;
}

// Unfolds one image: every (output pixel, kh) segment is one copy of
// seg = kernel_w * in_c floats from the bordered image. The border's
// zeros are the out-of-image taps.
template <class Len>
void im2col_image(const float* img, float* __restrict cols,
                  const ConvSpec& spec, Bordered& border, Len seg) {
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t in_row = spec.in_w * spec.in_c;
  const float* src = img;
  if (spec.pad > 0) {
    float* dst = border.interior(spec);
    for (std::int64_t r = 0; r < spec.in_h; ++r) {
      std::memcpy(dst + r * border.row_floats, img + r * in_row,
                  static_cast<std::size_t>(in_row) * sizeof(float));
    }
    src = border.buf.data();
  }
  const std::int64_t row_floats = border.row_floats;
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      float* __restrict row = cols + (y * ow + xo) * patch;
      const float* base = src + segment_offset(spec, row_floats, y, xo);
      for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
        const float* from = base + kh * row_floats;
        float* __restrict to = row + kh * seg;
        for (std::int64_t i = 0; i < seg; ++i) to[i] = from[i];
      }
    }
  }
}

// Folds one image's unfolded gradient back into the zero-initialized
// image `img`. Each (output pixel, kh) segment is one span add into the
// bordered image, in the naive loop's (y, xo, kh, kw, c) order, so
// every in-image element gets the same adds in the same order and the
// result is bitwise the naive col2im's; the adds that land on the
// border are dropped with it.
template <class Len>
void col2im_image(const float* __restrict cols, float* img,
                  const ConvSpec& spec, Bordered& border, Len seg) {
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  const std::int64_t in_row = spec.in_w * spec.in_c;
  float* dst = img;
  if (spec.pad > 0) {
    std::fill(border.buf.begin(), border.buf.end(), 0.0f);
    dst = border.buf.data();
  }
  const std::int64_t row_floats = border.row_floats;
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      const float* __restrict row = cols + (y * ow + xo) * patch;
      float* base = dst + segment_offset(spec, row_floats, y, xo);
      for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
        float* __restrict to = base + kh * row_floats;
        const float* from = row + kh * seg;
        for (std::int64_t i = 0; i < seg; ++i) to[i] += from[i];
      }
    }
  }
  if (spec.pad > 0) {
    const float* from = border.interior(spec);
    for (std::int64_t r = 0; r < spec.in_h; ++r) {
      std::memcpy(img + r * in_row, from + r * row_floats,
                  static_cast<std::size_t>(in_row) * sizeof(float));
    }
  }
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
  compute_pool().parallel_for_work(
      static_cast<std::size_t>(n), per_image,
      [&](std::size_t begin, std::size_t end) {
        Bordered border(spec);
        with_segment_length(spec.kernel_w * spec.in_c, [&](auto seg) {
          for (std::size_t b = begin; b < end; ++b) {
            const auto i = static_cast<std::int64_t>(b);
            im2col_image(px + i * img_stride, pc + i * per_image, spec,
                         border, seg);
          }
        });
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
  compute_pool().parallel_for_work(
      static_cast<std::size_t>(n), rows * oc * patch,
      [&](std::size_t begin, std::size_t end) {
        std::vector<float> scratch(static_cast<std::size_t>(rows) * patch);
        Bordered border(spec);
        with_segment_length(spec.kernel_w * spec.in_c, [&](auto seg) {
          for (std::size_t b = begin; b < end; ++b) {
            const auto i = static_cast<std::int64_t>(b);
            std::fill(scratch.begin(), scratch.end(), 0.0f);
            matmul_nn_into(pd + i * rows * oc, wt.data(), scratch.data(),
                           rows, oc, patch);
            col2im_image(scratch.data(), px + i * img_stride, spec, border,
                         seg);
          }
        });
      });
  return x;
}

}  // namespace fedcl::tensor
