// im2col and the fused conv input gradient for NHWC convolution.
//
// A conv layer is im2col + matmul forward; its input gradient is the
// adjoint scatter of the patch gradients (col2im), fused with their
// matmul in conv_input_grad. Both work on a zero-bordered copy of each
// image (pad zero rows and columns on every side; an unpadded
// convolution uses the image itself). In NHWC the kw range of one
// (output pixel, kh) pair is one contiguous span of kernel_w * in_c
// floats of a bordered row, so im2col is one copy per segment and the
// scatter one span add, with no bounds checks: the border supplies
// im2col's zeros and absorbs the scatter's out-of-image adds, which are
// dropped with it. Images are independent, so both parallelize over
// the batch above the pool's work threshold with bitwise-stable
// results (per-image work is serial and identical to the
// single-threaded order, and the scatter adds in the naive loop's
// order).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace fedcl::tensor {

struct ConvSpec {
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t in_c = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
  // Number of columns in the unfolded matrix.
  std::int64_t patch_size() const { return kernel_h * kernel_w * in_c; }
  void validate() const;
};

// x: [N, H, W, C] (NHWC) -> [N * OH * OW, KH*KW*C].
// Row r = ((n * OH + oh) * OW + ow); within a row, elements are laid out
// (kh, kw, c), matching an NHWC weight tensor reshaped to
// [KH*KW*C, OC].
Tensor im2col(const Tensor& x, const ConvSpec& spec);

// Fused conv input gradient: col2im(delta @ w^T) without materializing
// the [N*OH*OW, KH*KW*C] unfolded gradient. delta is the output
// gradient flattened to [N*OH*OW, OC]; w is the conv weight reshaped
// to [KH*KW*C, OC]. Each image's patch-gradient tile is computed into
// a scratch buffer and scattered immediately, so the working set is
// one image instead of the whole batch. Parallel over images with a
// fixed per-image accumulation order, so results are independent of
// thread count.
Tensor conv_input_grad(const Tensor& delta, const Tensor& w,
                       const ConvSpec& spec, std::int64_t n);

}  // namespace fedcl::tensor
