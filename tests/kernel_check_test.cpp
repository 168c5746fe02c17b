// Fast-vs-naive checks for the optimized kernels (matmul variants,
// span-based im2col, fused conv input gradient, fused DP
// sanitizer) and the counter-based Philox Gaussian: bitwise against the
// scalar reference, plus its distribution and tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/philox.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "dp/fused_sanitize.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_list.h"
#include "testing/kernel_check.h"
#include "testing/ops.h"
#include "testing/sanitize.h"

namespace fedcl {
namespace {

namespace t = fedcl::tensor;
using t::ConvSpec;
using t::Tensor;
using t::list::PerExampleGrads;
using t::list::TensorList;
using testing::expect_matmul_close;
using testing::naive_im2col;
using testing::naive_matmul_nn;
using testing::naive_matmul_nt;
using testing::naive_matmul_tn;
using testing::reference_group_norms;
using testing::reference_normal;
using testing::reference_one_draw_mean;
using testing::reference_radius;
using testing::reference_row_mean;
using testing::reference_sanitized_rows;
using testing::rng_fill;

// Shape sweep covering the kernel regimes: tiny (serial, below the
// k-block), deep-k (multiple 128-blocks), wide-n, and one size past
// the m*k*n >= 2^18 threading threshold.
struct MmShape {
  std::int64_t m, k, n;
};
const MmShape kShapes[] = {
    {1, 1, 1}, {3, 5, 2}, {7, 300, 9}, {17, 64, 33}, {64, 130, 48},
};

TEST(KernelCheck, MatmulNNMatchesNaive) {
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.m, s.k}, 101 + s.m);
    const Tensor b = rng_fill({s.k, s.n}, 202 + s.n);
    const Tensor c = t::matmul(a, b);
    expect_matmul_close(c, naive_matmul_nn(a.data(), b.data(), s.m, s.k, s.n),
                        s.k, "matmul_nn");
  }
}

TEST(KernelCheck, MatmulTNMatchesNaive) {
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.k, s.m}, 303 + s.m);
    const Tensor b = rng_fill({s.k, s.n}, 404 + s.n);
    const Tensor c = t::matmul_tn(a, b);
    expect_matmul_close(c, naive_matmul_tn(a.data(), b.data(), s.k, s.m, s.n),
                        s.k, "matmul_tn");
  }
}

TEST(KernelCheck, MatmulNTMatchesNaive) {
  // m below and above the pack threshold (16) exercises both the
  // dot-product and packed-transpose NT paths.
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.m, s.k}, 505 + s.m);
    const Tensor b = rng_fill({s.n, s.k}, 606 + s.n);
    const Tensor c = t::matmul_nt(a, b);
    expect_matmul_close(c, naive_matmul_nt(a.data(), b.data(), s.m, s.k, s.n),
                        s.k, "matmul_nt");
  }
}

// The three product forms.
enum class Form { kNN, kTN, kNT };

const char* form_name(Form form) {
  switch (form) {
    case Form::kNN:
      return "NN";
    case Form::kTN:
      return "TN";
    case Form::kNT:
      return "NT";
  }
  return "?";
}

// A is [m, k] for NN and NT and [k, m] for TN; B is [k, n], or [n, k]
// for NT.
Tensor product(Form form, const Tensor& a, const Tensor& b) {
  switch (form) {
    case Form::kNN:
      return t::matmul(a, b);
    case Form::kTN:
      return t::matmul_tn(a, b);
    case Form::kNT:
      return t::matmul_nt(a, b);
  }
  return {};
}

// Random A and B of an [m, k] by [k, n] product in `form`'s layout.
std::pair<Tensor, Tensor> random_operands(Form form, std::int64_t m,
                                          std::int64_t k, std::int64_t n,
                                          std::uint64_t seed) {
  return {form == Form::kTN ? rng_fill({k, m}, seed) : rng_fill({m, k}, seed),
          form == Form::kNT ? rng_fill({n, k}, seed + 1)
                            : rng_fill({k, n}, seed + 1)};
}

// The A operand of output rows [r0, r1): A's rows, or for TN its
// columns.
Tensor rows_of_a(Form form, const Tensor& a, std::int64_t r0,
                 std::int64_t r1) {
  if (form != Form::kTN) {
    const std::int64_t k = a.dim(1);
    Tensor s({r1 - r0, k});
    std::memcpy(s.data(), a.data() + r0 * k,
                sizeof(float) * static_cast<std::size_t>((r1 - r0) * k));
    return s;
  }
  const std::int64_t k = a.dim(0), m = a.dim(1);
  Tensor s({k, r1 - r0});
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t i = r0; i < r1; ++i)
      s.data()[kk * (r1 - r0) + i - r0] = a.data()[kk * m + i];
  return s;
}

// Output element (i, j) as the one chain of tensor.h: acc = 0, then
// acc = fma(a, b, acc) in ascending k where the kernels contract, or
// acc = acc + a * b where they do not (this file compiles with
// -ffp-contract=off), added to `init` once.
float one_chain(Form form, const Tensor& a, const Tensor& b, std::int64_t i,
                std::int64_t j, bool fused, float init = 0.0f) {
  const std::int64_t m = form == Form::kTN ? a.dim(1) : a.dim(0);
  const std::int64_t k = form == Form::kTN ? a.dim(0) : a.dim(1);
  const std::int64_t n = form == Form::kNT ? b.dim(0) : b.dim(1);
  const float* pa = a.data() + (form == Form::kTN ? i : i * k);
  const std::int64_t ak = form == Form::kTN ? m : 1;
  const float* pb = b.data() + (form == Form::kNT ? j * k : j);
  const std::int64_t bk = form == Form::kNT ? 1 : n;
  float acc = 0.0f;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    acc = fused ? std::fma(pa[kk * ak], pb[kk * bk], acc)
                : acc + pa[kk * ak] * pb[kk * bk];
  }
  return init + acc;
}

// Whether the NN/TN kernels this process dispatches fuse each chain
// step: the v3 and v4 clones and the v4 entry contract, the baseline
// clone does not, and neither does a ThreadSanitizer build, which
// compiles no clones and skips the v4 entry, unless the whole build
// targets an FMA ISA.
bool kernels_fuse() {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  return true;
#else
  return FEDCL_KERNELS_CLONED &&
         std::strcmp(fedcl_cpu_level(), "baseline") != 0;
#endif
}

// Consecutive row slices of [0, m), min_rows - 1 rows longer than a
// cycle of lengths that starts them off the 4- and 8-row grids; the
// last slice takes a remainder shorter than min_rows.
std::vector<std::pair<std::int64_t, std::int64_t>> row_slices(
    std::int64_t m, std::int64_t min_rows) {
  const std::int64_t lengths[] = {3, 2, 9, 1, 5, 13, 6, 17};
  std::vector<std::pair<std::int64_t, std::int64_t>> slices;
  std::int64_t r0 = 0;
  for (std::size_t s = 0; r0 < m; ++s) {
    std::int64_t r1 = r0 + min_rows - 1 + lengths[s % 8];
    if (m - r1 < min_rows) r1 = m;
    slices.emplace_back(r0, r1);
    r0 = r1;
  }
  return slices;
}

// Product `form` of a and b equals, byte for byte, the stacked products
// of its row slices, and (NN and TN at every m, NT on its packed path)
// every element is the one chain; NN and TN's raw kernels add it into a
// nonzero output once. NT below kNtPackRows rows is the dot form
// (SmallMatmulNtIsBitwiseTheDotForm), so its slices stay on their side
// of that boundary. Returns the elements whose fused and unfused chains
// differ, so the caller can see the chain check had power.
std::int64_t expect_row_slices_are_the_whole(Form form, const Tensor& a,
                                             const Tensor& b,
                                             std::uint64_t seed) {
  constexpr std::int64_t kNtPackRows = 16;
  const Tensor whole = product(form, a, b);
  const std::int64_t m = whole.dim(0), n = whole.dim(1);
  const std::int64_t k = form == Form::kTN ? a.dim(0) : a.dim(1);
  const std::string shape = std::string(form_name(form)) +
                            " m=" + std::to_string(m) +
                            " k=" + std::to_string(k) +
                            " n=" + std::to_string(n);
  const bool packed_nt = form == Form::kNT && m >= kNtPackRows;
  for (const auto& [r0, r1] : row_slices(m, packed_nt ? kNtPackRows : 1)) {
    const Tensor part = product(form, rows_of_a(form, a, r0, r1), b);
    const auto bytes = sizeof(float) * static_cast<std::size_t>(part.numel());
    EXPECT_EQ(std::memcmp(part.data(), whole.data() + r0 * n, bytes), 0)
        << shape << ": rows [" << r0 << ", " << r1 << ") alone differ";
  }
  if (form == Form::kNT && !packed_nt) return 0;
  const bool fused = kernels_fuse();
  Tensor init;
  Tensor into;
  if (form != Form::kNT) {
    init = rng_fill({m, n}, seed);
    into = init.clone();
    if (form == Form::kNN) {
      t::matmul_nn_into(a.data(), b.data(), into.data(), m, k, n);
    } else {
      t::matmul_tn_into(a.data(), b.data(), into.data(), k, m, n);
    }
  }
  std::int64_t separable = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float want = one_chain(form, a, b, i, j, fused);
      separable += want != one_chain(form, a, b, i, j, !fused);
      const float got = whole.data()[i * n + j];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << shape << " element (" << i << ", " << j << "): " << got
          << " is not the " << (fused ? "fused" : "unfused") << " chain "
          << want;
      if (form == Form::kNT) continue;
      const float want_into = one_chain(form, a, b, i, j, fused,
                                        init.data()[i * n + j]);
      const float got_into = into.data()[i * n + j];
      EXPECT_EQ(std::memcmp(&got_into, &want_into, sizeof(float)), 0)
          << shape << " element (" << i << ", " << j
          << ") of the raw kernel";
    }
  }
  return separable;
}

TEST(KernelCheck, MatmulRowSlicesAreBitwiseTheWhole) {
  // Shapes span m mod 8 (and both sides of NT's 16-row pack threshold),
  // k mod 8 and n mod 16, then one product past the threading
  // threshold, which the pool splits into row chunks off the 8-row grid.
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= 24; ++m) ms.push_back(m);
  ms.insert(ms.end(), {31, 37});
  std::vector<std::int64_t> ks;
  for (std::int64_t k = 1; k <= 20; ++k) ks.push_back(k);
  ks.push_back(33);
  const std::int64_t ns[] = {1, 2, 7, 8, 9, 10, 16, 17, 25, 62};
  std::int64_t separable = 0;
  std::uint64_t seed = 7000;
  for (const Form form : {Form::kNN, Form::kTN, Form::kNT}) {
    for (const std::int64_t m : ms) {
      for (const std::int64_t k : ks) {
        for (const std::int64_t n : ns) {
          seed += 3;
          const auto [a, b] = random_operands(form, m, k, n, seed);
          separable += expect_row_slices_are_the_whole(form, a, b, seed + 2);
          if (HasFailure()) return;
        }
      }
    }
  }
  for (const Form form : {Form::kNN, Form::kTN, Form::kNT}) {
    const std::int64_t m = 7490, k = 5, n = 7;
    ASSERT_GE(m * k * n, std::int64_t{1} << 18);
    const auto [a, b] = random_operands(form, m, k, n, 91);
    separable += expect_row_slices_are_the_whole(form, a, b, 93);
    if (HasFailure()) return;
  }
  // Some chains in the sweep round differently fused and unfused, so the
  // chain check tells the two apart.
  EXPECT_GT(separable, 0);
}

const ConvSpec kConvSpecs[] = {
    // in_h, in_w, in_c, kh, kw, stride, pad
    {8, 8, 1, 3, 3, 1, 1},    // all-interior plus border clamping
    {8, 8, 3, 5, 5, 1, 2},    // the model-zoo conv shape, multi-channel
    {9, 7, 2, 3, 3, 2, 1},    // non-square, strided
    {6, 6, 4, 2, 2, 2, 0},    // pad-free tiling
    {5, 5, 1, 5, 5, 1, 4},    // pad wider than the image interior
    {12, 12, 1, 5, 5, 1, 2},  // the zoo's 12x12 MNIST CNN, conv1
    {6, 6, 8, 5, 5, 1, 2},    // ... and its conv2
    {28, 28, 1, 5, 5, 1, 2},  // the 28x28 CNN, conv1
    {14, 14, 8, 5, 5, 1, 2},  // ... and its conv2
    {11, 10, 3, 5, 5, 2, 2},  // strided with a two-wide border
};

// Batch sizes for a conv check: one image, a few, and enough images of
// `work_per_image` that the batch loop reaches the pool's work
// threshold and takes its parallel branch on a pool of several threads.
std::vector<std::int64_t> conv_batches(std::int64_t work_per_image) {
  return {1, 3, ThreadPool::kMinParallelWork / work_per_image + 1};
}

TEST(KernelCheck, Im2colMatchesNaiveBitwise) {
  for (const auto& spec : kConvSpecs) {
    for (std::int64_t n : conv_batches(spec.out_h() * spec.out_w() *
                                       spec.patch_size())) {
      SCOPED_TRACE(::testing::Message()
                   << spec.in_h << "x" << spec.in_w << "x" << spec.in_c
                   << " stride " << spec.stride << " pad " << spec.pad
                   << " n " << n);
      const Tensor x =
          rng_fill({n, spec.in_h, spec.in_w, spec.in_c}, 700 + spec.pad);
      const Tensor fast = t::im2col(x, spec);
      const Tensor naive = naive_im2col(x, spec);
      ASSERT_EQ(fast.numel(), naive.numel());
      ASSERT_EQ(std::memcmp(fast.data(), naive.data(),
                            static_cast<std::size_t>(fast.numel()) *
                                sizeof(float)),
                0);
    }
  }
}

TEST(KernelCheck, Im2colCol2imAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for the linear maps to be mutual
  // adjoints — the property conv backward depends on.
  const ConvSpec spec{8, 8, 2, 3, 3, 1, 1};
  const std::int64_t n = 2;
  const Tensor x = rng_fill({n, spec.in_h, spec.in_w, spec.in_c}, 900);
  const Tensor y = rng_fill(
      {n * spec.out_h() * spec.out_w(), spec.patch_size()}, 901);
  const Tensor cx = t::im2col(x, spec);
  const Tensor cy = t::col2im(y, spec, n);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i)
    lhs += static_cast<double>(cx.at(i)) * static_cast<double>(y.at(i));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x.at(i)) * static_cast<double>(cy.at(i));
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(KernelCheck, ConvInputGradMatchesUnfused) {
  for (const auto& spec : kConvSpecs) {
    const std::int64_t n = 3, oc = 4;
    const std::int64_t rows = n * spec.out_h() * spec.out_w();
    const Tensor delta = rng_fill({rows, oc}, 1000 + spec.in_c);
    const Tensor w = rng_fill({spec.patch_size(), oc}, 1001 + spec.in_c);
    const Tensor fused = t::conv_input_grad(delta, w, spec, n);
    const Tensor dcols = t::matmul_nt(delta, w);
    const Tensor unfused = t::col2im(dcols, spec, n);
    ASSERT_EQ(fused.numel(), unfused.numel());
    for (std::int64_t i = 0; i < fused.numel(); ++i) {
      EXPECT_NEAR(fused.at(i), unfused.at(i),
                  1e-5 * std::max(1.0, std::abs(
                             static_cast<double>(unfused.at(i)))))
          << "element " << i;
    }
  }
}

// conv_input_grad, byte for byte, against its two halves done by hand:
// each image's patch-gradient tile from matmul_nn_into (delta's rows
// times w transposed, into a zeroed buffer, as conv_input_grad computes
// it), then the naive col2im loop's element-at-a-time scatter. The
// bordered scatter must give every in-image element the same adds in
// the same order, at every batch size and on either pool branch.
TEST(KernelCheck, ConvInputGradMatchesNaiveScatterBitwise) {
  for (const auto& spec : kConvSpecs) {
    const std::int64_t oc = 4;
    const std::int64_t rows = spec.out_h() * spec.out_w();
    const std::int64_t patch = spec.patch_size();
    for (std::int64_t n : conv_batches(rows * oc * patch)) {
      SCOPED_TRACE(::testing::Message()
                   << spec.in_h << "x" << spec.in_w << "x" << spec.in_c
                   << " stride " << spec.stride << " pad " << spec.pad
                   << " n " << n);
      const Tensor delta = rng_fill({n * rows, oc}, 1100 + spec.in_c);
      const Tensor w = rng_fill({patch, oc}, 1101 + spec.in_c);
      std::vector<float> wt(static_cast<std::size_t>(oc * patch));
      for (std::int64_t p = 0; p < patch; ++p) {
        for (std::int64_t c = 0; c < oc; ++c) {
          wt[static_cast<std::size_t>(c * patch + p)] = w.at(p * oc + c);
        }
      }
      Tensor tiles({n * rows, patch});
      for (std::int64_t b = 0; b < n; ++b) {
        t::matmul_nn_into(delta.data() + b * rows * oc, wt.data(),
                          tiles.data() + b * rows * patch, rows, oc, patch);
      }
      const Tensor expected = t::col2im(tiles, spec, n);
      const Tensor fused = t::conv_input_grad(delta, w, spec, n);
      ASSERT_EQ(fused.numel(), expected.numel());
      ASSERT_EQ(std::memcmp(fused.data(), expected.data(),
                            static_cast<std::size_t>(fused.numel()) *
                                sizeof(float)),
                0);
    }
  }
}

// A batch in both forms: a factored Linear layer (weight [in, out]
// from a [B, in] and delta [B, out], the bias sharing delta) and a
// row-form Conv layer (weight rows of width 25 * oc, bias rows of oc).
// The default widths straddle the 128-element noise step; `wide`
// makes every parameter span enough steps to split across threads.
PerExampleGrads sample_grads(std::int64_t batch, std::uint64_t seed,
                             bool wide = false) {
  const std::int64_t in = wide ? 40 : 9, out = wide ? 200 : 70;
  const std::int64_t oc = wide ? 80 : 6;
  Rng rng(seed);
  PerExampleGrads grads;
  grads.batch = batch;
  grads.shapes = {{in, out}, {out}, {25, oc}, {oc}};
  grads.params.resize(4);
  const Tensor delta = Tensor::randn({batch, out}, rng);
  grads.params[0].a = Tensor::randn({batch, in}, rng);
  grads.params[0].delta = delta;
  grads.params[1].delta = delta;
  grads.params[2].rows = Tensor::randn({batch, 25 * oc}, rng);
  grads.params[3].rows = Tensor::randn({batch, oc}, rng);
  return grads;
}

const dp::ParamGroups kSampleGroups = {{0, 1}, {2, 3}};

// Per-example bounds halfway between the example's two group norms,
// so one group clips and the other passes through.
std::vector<double> straddling_bounds(const std::vector<double>& norms,
                                      std::int64_t batch) {
  std::vector<double> bounds;
  for (std::int64_t j = 0; j < batch; ++j) {
    const auto at = static_cast<std::size_t>(j) * 2;
    bounds.push_back(0.5 * (norms[at] + norms[at + 1]));
  }
  return bounds;
}

std::vector<std::uint64_t> sample_keys(std::int64_t batch) {
  std::vector<std::uint64_t> keys;
  for (std::int64_t j = 0; j < batch; ++j)
    keys.push_back(0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(j + 3));
  return keys;
}

TEST(KernelCheck, FactorNormsMatchMaterializedProduct) {
  // A factored Linear tensor's clip norm is the norm of the exact outer
  // product: against a double-precision norm of the materialized
  // product it agrees to 1e-12 relative, and it is bitwise the scalar
  // factor reference (which also pins the row-form Conv norms).
  for (std::int64_t batch : {1, 3, 8}) {
    const PerExampleGrads grads = sample_grads(batch, 40 + batch);
    const std::vector<double> norms =
        dp::batch_group_norms(grads, kSampleGroups);
    const std::vector<double> reference =
        reference_group_norms(grads, kSampleGroups);
    ASSERT_EQ(norms.size(), reference.size());
    for (std::size_t i = 0; i < norms.size(); ++i) {
      EXPECT_EQ(std::memcmp(&norms[i], &reference[i], sizeof(double)), 0)
          << "batch " << batch << " norm " << i;
    }
    const std::int64_t in = grads.shapes[0][0], out = grads.shapes[0][1];
    for (std::int64_t j = 0; j < batch; ++j) {
      double sq = 0.0;
      for (std::int64_t r = 0; r < in; ++r) {
        for (std::int64_t c = 0; c < out; ++c) {
          const double v =
              static_cast<double>(grads.params[0].a.at(j * in + r)) *
              static_cast<double>(grads.params[0].delta.at(j * out + c));
          sq += v * v;
        }
      }
      for (std::int64_t c = 0; c < out; ++c) {
        const double v = grads.params[1].delta.at(j * out + c);
        sq += v * v;
      }
      const double materialized = std::sqrt(sq);
      const double factor = norms[static_cast<std::size_t>(j) * 2];
      EXPECT_LE(std::abs(factor - materialized), 1e-12 * materialized)
          << "batch " << batch << " example " << j;
    }
  }
}

TEST(KernelCheck, FusedSanitizeMatchesNaiveReference) {
  // The one-write mean against straight loops at equal norms and keys:
  // every example multiplied out into rows, clipped and noised in place
  // with the scalar reference normal, then averaged in example order.
  // With no noise that is the row path the pass replaced. With noise
  // the examples other than the observed one draw once, on the last
  // one's key, at the root of their summed variance
  // (reference_one_draw_mean). Bit for bit, over a factored weight, its
  // shared-delta bias and row-form Conv params, B in {1, 3, 8}, pools of
  // 1, 2 and 8 threads, unobserved and observing the first or the last
  // example; the observed example's sanitized gradient is bitwise its
  // per-example reference row.
  for (std::int64_t batch : {1, 3, 8}) {
    const PerExampleGrads grads = sample_grads(batch, 42, /*wide=*/true);
    const std::vector<double> norms =
        dp::batch_group_norms(grads, kSampleGroups);
    const std::vector<double> bounds = straddling_bounds(norms, batch);
    const std::vector<std::uint64_t> keys = sample_keys(batch);
    for (const double stddev : {0.0, 0.6}) {
      const std::vector<double> stddevs(static_cast<std::size_t>(batch),
                                        stddev);
      const std::vector<TensorList> rows = reference_sanitized_rows(
          grads, kSampleGroups, norms, bounds, stddevs, keys);
      for (const std::optional<std::int64_t> observe :
           {std::optional<std::int64_t>(), std::optional<std::int64_t>(0),
            std::optional<std::int64_t>(batch - 1)}) {
        const TensorList mean =
            stddev == 0.0
                ? reference_row_mean(rows)
                : reference_one_draw_mean(grads, kSampleGroups, norms, bounds,
                                          stddevs, keys, observe);
        for (std::size_t threads : {1, 2, 8}) {
          SCOPED_TRACE("batch " + std::to_string(batch) + " stddev " +
                       std::to_string(stddev) + " observe " +
                       (observe ? std::to_string(*observe) : "none") +
                       " threads " + std::to_string(threads));
          ThreadPool pool(threads);
          const dp::SanitizedBatch out =
              dp::batch_scale_noise(grads, kSampleGroups, norms, bounds,
                                    stddevs, keys, &pool, observe);
          testing::expect_bitwise_equal(out.mean, mean, "mean");
          if (observe) {
            testing::expect_bitwise_equal(
                out.observed, rows[static_cast<std::size_t>(*observe)],
                "observed");
          } else {
            EXPECT_TRUE(out.observed.empty());
          }
        }
      }
    }
  }
  // Unit scale and no noise is the raw batch mean.
  const PerExampleGrads grads = sample_grads(3, 43);
  const std::vector<double> no_clip(3, 1e30), no_noise(3, 0.0);
  testing::expect_bitwise_equal(
      dp::batch_mean(grads),
      reference_row_mean(reference_sanitized_rows(
          grads, kSampleGroups, dp::batch_group_norms(grads, kSampleGroups),
          no_clip, no_noise, sample_keys(3))),
      "raw mean");
}

TEST(KernelCheck, FusedSingleExampleMatchesBatchRow) {
  // The probe's view: example j's sanitized gradient out of a B-example
  // pass is bitwise a one-example sanitize of example j under its key
  // (the type-2 observer sees exactly what that example contributes).
  const std::int64_t batch = 3;
  const PerExampleGrads grads = sample_grads(batch, 7);
  const std::vector<double> norms = dp::batch_group_norms(grads, kSampleGroups);
  const std::vector<double> bounds = straddling_bounds(norms, batch);
  const std::vector<double> stddevs(batch, 0.5);
  const std::vector<std::uint64_t> keys = sample_keys(batch);
  for (std::int64_t j = 0; j < batch; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    const dp::SanitizedBatch all = dp::batch_scale_noise(
        grads, kSampleGroups, norms, bounds, stddevs, keys, nullptr, j);
    const PerExampleGrads one = testing::slice_example(grads, j);
    const dp::SanitizedBatch alone = dp::batch_scale_noise(
        one, kSampleGroups, dp::batch_group_norms(one, kSampleGroups),
        {bounds[ju]}, {stddevs[ju]}, {keys[ju]}, nullptr, 0);
    testing::expect_bitwise_equal(all.observed, alone.observed, "observed");
    testing::expect_bitwise_equal(all.observed, alone.mean, "one-example mean");
  }
}

using NoiseRowFn = void (*)(float*, std::int64_t, float, float, std::uint64_t,
                            std::uint64_t);

// A noise-row kernel against the scalar reference at every row width
// from 0 to 260, i.e. every tail of the 64-element chunk in one- and
// two-chunk steps, and a few whole steps; elements past the row must
// stay untouched.
void expect_noise_row_matches_reference(NoiseRowFn row_fn, const char* what) {
  const float scale = 0.75f, stddev = 1.25f;
  struct Keying {
    std::uint64_t key, stream;
  };
  const Keying keyings[] = {{0x0123456789ABCDEFull, 2},
                            {7, 0x100000003ull}};
  const std::int64_t kGuard = 8;
  for (const Keying& k : keyings) {
    for (std::int64_t width = 0; width <= 260; ++width) {
      const Tensor init = rng_fill({width + kGuard}, 3000 + width);
      std::vector<float> row(init.data(), init.data() + width + kGuard);
      row_fn(row.data(), width, scale, stddev, k.key, k.stream);
      for (std::int64_t i = 0; i < width + kGuard; ++i) {
        const float expected =
            i < width ? init.at(i) * scale +
                            stddev * reference_normal(
                                         k.key, k.stream,
                                         static_cast<std::uint64_t>(i))
                      : init.at(i);
        ASSERT_EQ(row[static_cast<std::size_t>(i)], expected)
            << what << " width " << width << " element " << i;
      }
    }
  }
}

TEST(KernelCheck, NoiseRowMatchesScalarReferenceAtEveryTail) {
  expect_noise_row_matches_reference(dp::scale_noise_row, "dispatched");
  expect_noise_row_matches_reference(dp::scale_noise_row_portable,
                                     "portable");
}

TEST(KernelCheck, NoiseRowV4MatchesScalarReference) {
#if FEDCL_HAVE_V4_KERNELS
  if (!fedcl_cpu_has_v4()) GTEST_SKIP() << "CPU lacks x86-64-v4";
  expect_noise_row_matches_reference(dp::scale_noise_row_v4, "v4");
#else
  GTEST_SKIP() << "no explicit v4 kernels in this build";
#endif
}

TEST(PhiloxNoise, KnownAnswerVectors) {
  // Random123 kat_vectors for philox4x32-10.
  const PhiloxBlock zero = philox4x32(0, 0, 0, 0, 0, 0);
  EXPECT_EQ(zero.v[0], 0x6627e8d5u);
  EXPECT_EQ(zero.v[1], 0xe169c58du);
  EXPECT_EQ(zero.v[2], 0xbc57ac4cu);
  EXPECT_EQ(zero.v[3], 0x9b00dbd8u);
  const PhiloxBlock ones = philox4x32(0xffffffffu, 0xffffffffu, 0xffffffffu,
                                      0xffffffffu, 0xffffffffu, 0xffffffffu);
  EXPECT_EQ(ones.v[0], 0x408f276du);
  EXPECT_EQ(ones.v[1], 0x41c83b0eu);
  EXPECT_EQ(ones.v[2], 0xa20bc7c6u);
  EXPECT_EQ(ones.v[3], 0x6d5451fdu);
}

TEST(PhiloxNoise, BitwiseIdenticalAcrossThreadCounts) {
  const std::int64_t batch = 16;
  const PerExampleGrads grads = sample_grads(batch, 1234, /*wide=*/true);
  const std::vector<std::uint64_t> keys = sample_keys(batch);
  auto run = [&](std::size_t n_threads) {
    ThreadPool pool(n_threads);
    const std::vector<double> norms =
        dp::batch_group_norms(grads, kSampleGroups, &pool);
    return dp::batch_scale_noise(grads, kSampleGroups, norms,
                                 std::vector<double>(batch, 1.0),
                                 std::vector<double>(batch, 0.75), keys,
                                 &pool, /*observe=*/5);
  };
  const dp::SanitizedBatch g1 = run(1);
  for (std::size_t threads : {2, 8}) {
    const dp::SanitizedBatch g = run(threads);
    testing::expect_bitwise_equal(g.mean, g1.mean, "mean");
    testing::expect_bitwise_equal(g.observed, g1.observed, "observed");
  }
}

// Standard normals z_0 .. z_{n-1} of (key, stream) through the shipped
// row kernel: 0 * 1 + 1 * z is exactly z.
std::vector<float> noise_fill(std::uint64_t key, std::uint64_t stream,
                              std::int64_t n) {
  std::vector<float> z(static_cast<std::size_t>(n), 0.0f);
  dp::scale_noise_row(z.data(), n, 1.0f, 1.0f, key, stream);
  return z;
}

TEST(PhiloxNoise, IndependentOfVisitOrder) {
  // Element i of a stream has one value no matter how it is reached:
  // a long fill, a short fill ending mid-chunk, and random access to
  // the reference in reverse.
  const std::uint64_t key = 0xDEADBEEFu;
  const std::vector<float> fill = noise_fill(key, 3, 200);
  const std::vector<float> prefix = noise_fill(key, 3, 33);
  for (std::int64_t i = 199; i >= 0; --i) {
    const std::size_t at = static_cast<std::size_t>(i);
    EXPECT_EQ(fill[at], reference_normal(key, 3, static_cast<std::uint64_t>(i)))
        << "element " << i;
    if (i < 33) {
      EXPECT_EQ(prefix[at], fill[at]) << "element " << i;
    }
  }
  // Streams do not collide: same element index, different stream.
  EXPECT_NE(fill[0], noise_fill(key, 4, 1)[0]);
  // Keys do not collide either.
  EXPECT_NE(fill[0], noise_fill(0xDEADBEF0u, 3, 1)[0]);
}

// First four moments of the samples z against N(0, 1), each within
// five standard errors (sqrt(1/n), sqrt(2/n), sqrt(6/n), sqrt(24/n)).
template <typename T>
void expect_standard_normal_moments(const std::vector<T>& z) {
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (T v : z) {
    const double x = v;
    m1 += x;
    m2 += x * x;
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  const double dn = static_cast<double>(z.size());
  m1 /= dn;
  m2 /= dn;
  m3 /= dn;
  m4 /= dn;
  const double var = m2 - m1 * m1;
  const double skew =
      (m3 - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1) / std::pow(var, 1.5);
  const double kurt =
      (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 * m1 * m1 * m1) /
      (var * var);
  EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / dn));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / dn));
  EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0 / dn));
  EXPECT_NEAR(kurt, 3.0, 5.0 * std::sqrt(24.0 / dn));
}

// Kolmogorov-Smirnov distance of the samples z from N(0, 1) below its
// critical value at alpha = 0.001, 1.95 / sqrt(n).
template <typename T>
void expect_standard_normal_ks(std::vector<T> z) {
  std::sort(z.begin(), z.end());
  double d = 0.0;
  const double dn = static_cast<double>(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf =
        0.5 * std::erfc(-static_cast<double>(z[i]) / std::sqrt(2.0));
    d = std::max({d, static_cast<double>(i + 1) / dn - cdf,
                  cdf - static_cast<double>(i) / dn});
  }
  EXPECT_LT(d, 1.95 / std::sqrt(dn));
}

TEST(PhiloxNoise, MomentsAreSane) {
  expect_standard_normal_moments(
      noise_fill(31337, 0, std::int64_t{1} << 22));
}

TEST(PhiloxNoise, KolmogorovSmirnovAgainstStandardNormal) {
  expect_standard_normal_ks(noise_fill(4242, 1, std::int64_t{1} << 22));
}

TEST(PhiloxNoise, TailReachAndRadialAccuracy) {
  // The radial map of the shipped transform, read off the cosine leg at
  // angle word 0 (cos = 1, sin = 0 exactly), over the 2^16 smallest
  // radial words, which carry every radius above 4.7. Against double
  // precision it stays within 2e-7 relative (about two float ulps; the
  // worst case measured is 7.2e-8): the uniform is exact there, so only
  // the log polynomial and the sqrt round.
  const philox::U32x16 angle = {};
  for (std::uint32_t base = 0; base < (1u << 16); base += philox::kLanes) {
    philox::U32x16 wr;
    for (int k = 0; k < philox::kLanes; ++k)
      wr[k] = base + static_cast<std::uint32_t>(k);
    philox::F32x16 z_cos, z_sin;
    philox::box_muller(wr, angle, z_cos, z_sin);
    for (int k = 0; k < philox::kLanes; ++k) {
      const double u1 = static_cast<double>(wr[k]) * 0x1p-32 + 0x1p-33;
      const double r = std::sqrt(-2.0 * std::log(u1));
      ASSERT_NEAR(z_cos[k], r, 2e-7 * r) << "radial word " << wr[k];
      ASSERT_EQ(z_sin[k], 0.0f) << "radial word " << wr[k];
      ASSERT_EQ(z_cos[k], reference_radius(wr[k])) << "radial word " << wr[k];
    }
  }
  // The smallest uniform (2^-33) reaches sqrt(66 ln 2) = 6.7636.
  EXPECT_GE(reference_radius(0), 6.7f);
  EXPECT_NEAR(reference_radius(0), std::sqrt(66.0 * std::log(2.0)), 1e-5);
}

TEST(PhiloxNoise, EveryExampleRowCarriesItsOwnNoise) {
  // Fed-CDP noises each example's gradient (Algorithm 2 line 14), which
  // is what defeats type-2 leakage: on a zero gradient every example's
  // sanitized gradient must have variance sigma^2 C^2, and examples
  // must be independent. Summing B draws into one N(0, B sigma^2 C^2)
  // draw on the batch would leave the examples unprotected and fails
  // here. Each example is read through the hook's per-example output,
  // one B = 8 call per example from the same stream.
  const double clip = 3.0, sigma = 0.5;
  const double var = sigma * sigma * clip * clip;
  core::FedCdpPolicy policy(clip, sigma);
  const std::int64_t batch = 8;
  PerExampleGrads grads;
  grads.batch = batch;
  grads.shapes = {{64, 32}, {32}};
  grads.params.resize(2);
  grads.params[0].a = Tensor({batch, 64});
  grads.params[0].delta = Tensor({batch, 32});
  grads.params[1].delta = grads.params[0].delta;
  std::vector<std::vector<double>> examples;
  for (std::int64_t j = 0; j < batch; ++j) {
    Rng rng(99);
    const TensorList y = policy
                             .sanitize_per_example_batch(
                                 grads, {{0, 1}}, /*round=*/0, rng, j)
                             .observed;
    std::vector<double>& flat = examples.emplace_back();
    for (const Tensor& t : y) {
      for (std::int64_t i = 0; i < t.numel(); ++i) flat.push_back(t.at(i));
    }
  }
  const std::size_t width = examples.front().size();
  ASSERT_EQ(width, 64u * 32u + 32u);
  for (std::int64_t j = 0; j < batch; ++j) {
    const auto& row = examples[static_cast<std::size_t>(j)];
    const auto& next = examples[static_cast<std::size_t>((j + 1) % batch)];
    double sum_sq = 0.0, cross = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      sum_sq += row[i] * row[i];
      cross += row[i] * next[i];
    }
    const double n = static_cast<double>(width);
    // Five standard errors: sqrt(2/n) relative for the variance,
    // sqrt(1/n) for the correlation.
    EXPECT_NEAR(sum_sq / n / var, 1.0, 5.0 * std::sqrt(2.0 / n))
        << "example " << j;
    EXPECT_NEAR(cross / n / var, 0.0, 5.0 * std::sqrt(1.0 / n))
        << "examples " << j << " and " << (j + 1) % batch;
  }
}

TEST(PhiloxNoise, MeanNoiseHasTheDistributionOfPerExampleDraws) {
  // Algorithm 2 averages B clipped gradients, each noised with
  // N(0, sigma^2 C^2), so the step gradient's noise has stddev
  // sigma C / sqrt(B), and the example a type-2 probe observes
  // covaries with it at sigma^2 C^2 / B. The sanitizer draws the
  // noise of every unobserved example once; on zero gradients, through
  // the Fed-CDP hook, at B in {1, 3, 5, 32}, unprobed and probed, the
  // mean's noise must still have both: its first four moments within
  // five standard errors of N(0, sigma^2 C^2 / B), a KS distance below
  // the alpha = 0.001 critical value, and the covariance within five
  // standard errors (sqrt((B + 1) / n) relative).
  const double clip = 3.0, sigma = 0.5;
  const double var = sigma * sigma * clip * clip;
  const core::FedCdpPolicy policy(clip, sigma);
  const std::int64_t in = 512, out = 512;
  for (const std::int64_t batch : {1, 3, 5, 32}) {
    PerExampleGrads grads;
    grads.batch = batch;
    grads.shapes = {{in, out}};
    grads.params.resize(1);
    grads.params[0].a = Tensor({batch, in});
    grads.params[0].delta = Tensor({batch, out});
    for (const std::optional<std::int64_t> observe :
         {std::optional<std::int64_t>(),
          std::optional<std::int64_t>(batch / 2)}) {
      SCOPED_TRACE("batch " + std::to_string(batch) +
                   (observe ? " observed" : " unobserved"));
      Rng rng(7000 + static_cast<std::uint64_t>(batch));
      const dp::SanitizedBatch s = policy.sanitize_per_example_batch(
          grads, {{0}}, /*round=*/0, rng, observe);
      const Tensor& mean = s.mean[0];
      const auto n = static_cast<std::size_t>(mean.numel());
      const double dn = static_cast<double>(n);
      const double mean_sd = std::sqrt(var / static_cast<double>(batch));
      std::vector<double> z(n);
      for (std::size_t i = 0; i < n; ++i)
        z[i] = mean.at(static_cast<std::int64_t>(i)) / mean_sd;
      expect_standard_normal_moments(z);
      expect_standard_normal_ks(std::move(z));
      if (observe) {
        const Tensor& seen = s.observed[0];
        double cross = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto at = static_cast<std::int64_t>(i);
          cross += static_cast<double>(seen.at(at)) * mean.at(at);
        }
        EXPECT_NEAR(cross / dn / (var / static_cast<double>(batch)), 1.0,
                    5.0 * std::sqrt(static_cast<double>(batch + 1) / dn));
      }
    }
  }
}

}  // namespace
}  // namespace fedcl
