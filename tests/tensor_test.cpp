#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "testing/kernel_check.h"
#include "testing/ops.h"

namespace fedcl::tensor {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.0f);
  Tensor empty;
  EXPECT_FALSE(empty.defined());
}

TEST(Tensor, Factories) {
  EXPECT_EQ(Tensor::ones({2, 2}).sum(), 4.0f);
  EXPECT_EQ(Tensor::full({3}, 2.5f).at(1), 2.5f);
  EXPECT_EQ(Tensor::scalar(7.0f).item(), 7.0f);
  Tensor v = Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(v.at(3), 4.0f);
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, RandnStats) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
  double m = t.sum() / t.numel();
  EXPECT_NEAR(m, 1.0, 0.1);
}

TEST(Tensor, UniformRange) {
  Rng rng(2);
  Tensor t = Tensor::uniform({1000}, rng, -1.0f, 1.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.at(i), -1.0f);
    EXPECT_LT(t.at(i), 1.0f);
  }
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshape({3, 2});
  r.at(0) = 42.0f;
  EXPECT_EQ(t.at(0), 42.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::ones({3});
  Tensor c = t.clone();
  c.at(0) = 9.0f;
  EXPECT_EQ(t.at(0), 1.0f);
}

bool aligned64(const Tensor& t) {
  return reinterpret_cast<std::uintptr_t>(t.data()) % 64 == 0;
}

TEST(Tensor, StorageIs64ByteAligned) {
  // Small blocks come from the allocator, blocks of 16384 floats and up
  // from the per-thread cache; both start on a 64-byte boundary.
  for (std::int64_t n = 1; n <= 4096; ++n) {
    ASSERT_TRUE(aligned64(Tensor({n}))) << "numel " << n;
  }
  const std::int64_t big = std::int64_t{1} << 14;
  const float* first = nullptr;
  {
    Tensor t({big});
    ASSERT_TRUE(aligned64(t));
    first = t.data();
    t.fill_(3.0f);
  }
  // The released block comes back from the cache, aligned and zeroed.
  const Tensor again({big});
  EXPECT_EQ(again.data(), first);
  EXPECT_TRUE(aligned64(again));
  for (std::int64_t i = 0; i < big; ++i) ASSERT_EQ(again.at(i), 0.0f);
}

TEST(Tensor, InPlaceOps) {
  Tensor t = Tensor::ones({3});
  t.scale_(2.0f);
  EXPECT_EQ(t.at(1), 2.0f);
  t.add_(Tensor::ones({3}), 0.5f);
  EXPECT_EQ(t.at(2), 2.5f);
  t.fill_(-1.0f);
  EXPECT_EQ(t.sum(), -3.0f);
}

TEST(Tensor, ElementwiseBinary) {
  Tensor a = Tensor::from_vector({2}, {1, 2});
  Tensor b = Tensor::from_vector({2}, {3, 5});
  EXPECT_EQ(add(a, b).at(1), 7.0f);
  EXPECT_EQ(sub(a, b).at(0), -2.0f);
  EXPECT_EQ(mul(a, b).at(1), 10.0f);
  EXPECT_NEAR(div(a, b).at(0), 1.0f / 3.0f, 1e-6);
  EXPECT_THROW(add(a, Tensor::ones({3})), Error);
}

TEST(Tensor, ElementwiseUnary) {
  Tensor a = Tensor::from_vector({3}, {-1, 0, 2});
  EXPECT_EQ(neg(a).at(0), 1.0f);
  EXPECT_EQ(relu(a).at(0), 0.0f);
  EXPECT_EQ(relu(a).at(2), 2.0f);
  EXPECT_EQ(step_mask(a).at(0), 0.0f);
  EXPECT_EQ(step_mask(a).at(2), 1.0f);
  EXPECT_NEAR(exp(a).at(2), std::exp(2.0f), 1e-5);
  EXPECT_NEAR(sigmoid(a).at(1), 0.5f, 1e-6);
  EXPECT_NEAR(tanh(a).at(2), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(log(exp(a)).at(0), -1.0f, 1e-5);
}

TEST(Tensor, ScalarOps) {
  Tensor a = Tensor::from_vector({2}, {1, 2});
  EXPECT_EQ(add_scalar(a, 1.0f).at(1), 3.0f);
  EXPECT_EQ(mul_scalar(a, -2.0f).at(0), -2.0f);
}

TEST(Tensor, Matmul) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at(0), 58.0f);
  EXPECT_EQ(c.at(1), 64.0f);
  EXPECT_EQ(c.at(2), 139.0f);
  EXPECT_EQ(c.at(3), 154.0f);
  EXPECT_THROW(matmul(a, a), Error);
}

TEST(Tensor, DotAndNorms) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 2});
  EXPECT_EQ(dot(a, a), 9.0f);
  EXPECT_EQ(a.l2_norm(), 3.0f);
}

TEST(Tensor, RowColReductions) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor rs = row_sum(x);
  EXPECT_EQ(rs.shape(), (Shape{2, 1}));
  EXPECT_EQ(rs.at(0), 6.0f);
  EXPECT_EQ(rs.at(1), 15.0f);
  Tensor rm = row_max(x);
  EXPECT_EQ(rm.at(0), 3.0f);
  EXPECT_EQ(rm.at(1), 6.0f);
  Tensor cs = col_sum(x);
  EXPECT_EQ(cs.shape(), (Shape{3}));
  EXPECT_EQ(cs.at(0), 5.0f);
  EXPECT_EQ(cs.at(2), 9.0f);
}

TEST(Tensor, Broadcasts) {
  Tensor col = Tensor::from_vector({2, 1}, {1, 2});
  Tensor bc = broadcast_col(col, 3);
  EXPECT_EQ(bc.shape(), (Shape{2, 3}));
  EXPECT_EQ(bc.at(2), 1.0f);
  EXPECT_EQ(bc.at(3), 2.0f);
  Tensor row = Tensor::from_vector({3}, {1, 2, 3});
  Tensor br = broadcast_row(row, 2);
  EXPECT_EQ(br.shape(), (Shape{2, 3}));
  EXPECT_EQ(br.at(5), 3.0f);
  Tensor es = expand_scalar(Tensor::scalar(4.0f), {2, 2});
  EXPECT_EQ(es.sum(), 16.0f);
}

TEST(Tensor, PickAndScatter) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor p = pick(x, {2, 0});
  EXPECT_EQ(p.at(0), 3.0f);
  EXPECT_EQ(p.at(1), 4.0f);
  Tensor s = scatter(p, {2, 0}, 3);
  EXPECT_EQ(s.at(2), 3.0f);
  EXPECT_EQ(s.at(3), 4.0f);
  EXPECT_EQ(s.at(0), 0.0f);
  EXPECT_THROW(pick(x, {3, 0}), Error);
}

TEST(Tensor, Allclose) {
  Tensor a = Tensor::ones({3});
  Tensor b = a.clone();
  EXPECT_TRUE(allclose(a, b));
  b.at(0) = 1.1f;
  EXPECT_FALSE(allclose(a, b));
  EXPECT_FALSE(allclose(a, Tensor::ones({4})));
}

// ---- im2col / col2im ----

TEST(Im2col, IdentityKernel) {
  // 1x1 kernel stride 1: im2col is a flatten.
  ConvSpec spec{.in_h = 2, .in_w = 2, .in_c = 3, .kernel_h = 1, .kernel_w = 1};
  Rng rng(4);
  Tensor x = Tensor::randn({1, 2, 2, 3}, rng);
  Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 3}));
  EXPECT_TRUE(allclose(cols.reshape({12}), x.reshape({12})));
}

TEST(Im2col, KnownPatch) {
  // 3x3 single-channel image, 2x2 kernel, stride 1 -> 4 patches.
  ConvSpec spec{.in_h = 3, .in_w = 3, .in_c = 1, .kernel_h = 2, .kernel_w = 2};
  Tensor x = Tensor::from_vector({1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  // First patch: rows (1,2),(4,5).
  EXPECT_EQ(cols.at(0), 1.0f);
  EXPECT_EQ(cols.at(1), 2.0f);
  EXPECT_EQ(cols.at(2), 4.0f);
  EXPECT_EQ(cols.at(3), 5.0f);
  // Last patch: (5,6),(8,9).
  EXPECT_EQ(cols.at(12), 5.0f);
  EXPECT_EQ(cols.at(15), 9.0f);
}

TEST(Im2col, Padding) {
  ConvSpec spec{.in_h = 2, .in_w = 2, .in_c = 1, .kernel_h = 3, .kernel_w = 3,
                .stride = 1, .pad = 1};
  EXPECT_EQ(spec.out_h(), 2);
  Tensor x = Tensor::from_vector({1, 2, 2, 1}, {1, 2, 3, 4});
  Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 9}));
  // Top-left patch has zeros in first row/col; center is x[0,0]=1.
  EXPECT_EQ(cols.at(0), 0.0f);
  EXPECT_EQ(cols.at(4), 1.0f);
}

TEST(Im2col, Col2imAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property the autograd vjp relies on.
  ConvSpec spec{.in_h = 5, .in_w = 4, .in_c = 2, .kernel_h = 3, .kernel_w = 2,
                .stride = 2, .pad = 1};
  Rng rng(5);
  Tensor x = Tensor::randn({2, 5, 4, 2}, rng);
  Tensor cols = im2col(x, spec);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back = col2im(y, spec, 2);
  EXPECT_NEAR(dot(cols, y), dot(x, back), 1e-3);
}

TEST(Im2col, SpecValidation) {
  ConvSpec bad{.in_h = 2, .in_w = 2, .in_c = 1, .kernel_h = 5, .kernel_w = 5};
  EXPECT_THROW(bad.validate(), Error);
}

// The kernel checks below live here, not in kernel_check_test: this file
// compiles with the library's own floating-point contraction, so the
// per-ISA copies of the norm kernel contract as its clones do, and the
// dot-form reference rounds as a default build of the library does.

// Lengths 0..40 cover every lane tail of one and several 8-wide steps;
// 4130 is the cancer MLP's parameter count.
std::vector<std::int64_t> norm_lengths() {
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(4130);
  return lengths;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KernelCheck, SumSquaresFollowsItsLaneOrder) {
  EXPECT_EQ(sum_squares(nullptr, 0), 0.0);
  EXPECT_EQ(Tensor({0}).l2_norm(), 0.0f);
  for (const std::int64_t n : norm_lengths()) {
    Rng rng(900 + static_cast<std::uint64_t>(n));
    const Tensor x = Tensor::randn({n}, rng);
    const double got = sum_squares(x.data(), n);
    EXPECT_TRUE(same_bits(got, testing::reference_sum_squares(x.data(), n)))
        << "n=" << n;
    EXPECT_EQ(x.l2_norm(), static_cast<float>(std::sqrt(got))) << "n=" << n;
    // Against a long-double sum: at most one rounding per add, so a
    // lane of ceil(n/8) terms and the three-level combine stay within
    // (n/8 + 3) units of 2^-53 of the exact sum.
    long double exact = 0.0L;
    for (std::int64_t i = 0; i < n; ++i)
      exact += static_cast<long double>(x.at(i)) * x.at(i);
    EXPECT_LE(std::abs(static_cast<long double>(got) - exact),
              static_cast<long double>(n / 8 + 3) * 0x1p-53L * exact)
        << "n=" << n;
  }
}

// The clone body built for the ISAs of FEDCL_KERNEL_CLONES. GCC inlines
// an always_inline body across ISA extensions but not across an arch=
// change, so these name the extensions the clones compile with.
double sum_squares_baseline(const float* p, std::int64_t n) {
  return sum_squares_lanes(p, n);
}
#if FEDCL_HAVE_V4_KERNELS
__attribute__((target("avx2,fma"))) double sum_squares_avx2(const float* p,
                                                           std::int64_t n) {
  return sum_squares_lanes(p, n);
}
__attribute__((target("avx512f,avx512vl,avx512dq,avx512bw,avx2,fma")))
double sum_squares_avx512(const float* p, std::int64_t n) {
  return sum_squares_lanes(p, n);
}
#endif

TEST(KernelCheck, SumSquaresIsTheSameOnEveryIsa) {
  // The baseline, AVX2+FMA and AVX-512 builds of the clone body give the
  // bits of the dispatched kernel: squares are exact in double, so FMA
  // contraction changes nothing.
  for (const std::int64_t n : norm_lengths()) {
    Rng rng(1900 + static_cast<std::uint64_t>(n));
    const Tensor x = Tensor::randn({n}, rng, 0.0f, 3.0f);
    const double want = sum_squares(x.data(), n);
    EXPECT_TRUE(same_bits(sum_squares_baseline(x.data(), n), want))
        << "n=" << n;
#if FEDCL_HAVE_V4_KERNELS
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      EXPECT_TRUE(same_bits(sum_squares_avx2(x.data(), n), want))
          << "n=" << n;
    }
    if (fedcl_cpu_has_v4()) {
      EXPECT_TRUE(same_bits(sum_squares_avx512(x.data(), n), want))
          << "n=" << n;
    }
#endif
  }
}

TEST(KernelCheck, SumSquaresPropagatesNaNAndInf) {
  for (const std::int64_t n : {1, 7, 8, 9, 33, 4130}) {
    for (const std::int64_t at : {std::int64_t{0}, n / 2, n - 1}) {
      Tensor x = Tensor::ones({n});
      x.at(at) = std::numeric_limits<float>::quiet_NaN();
      EXPECT_TRUE(std::isnan(x.l2_norm())) << "n=" << n << " at " << at;
      x.at(at) = -std::numeric_limits<float>::infinity();
      EXPECT_EQ(x.l2_norm(), std::numeric_limits<float>::infinity())
          << "n=" << n << " at " << at;
    }
  }
}

TEST(KernelCheck, SmallMatmulNtIsBitwiseTheDotForm) {
  // Every m below the pack threshold, with column counts around the
  // four-column step; k = 300 puts the larger shapes past the threading
  // threshold, where row ranges split across the pool.
  std::uint64_t seed = 40;
  for (std::int64_t m = 1; m < 16; ++m) {
    for (const std::int64_t n : {1, 2, 3, 5, 33, 64}) {
      for (const std::int64_t k : {1, 2, 7, 32, 105, 300}) {
        Rng rng(++seed);
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({n, k}, rng);
        const std::vector<float> want =
            testing::dot_form_matmul_nt(a.data(), b.data(), m, k, n);
        const Tensor c = matmul_nt(a, b);
        ASSERT_EQ(
            std::memcmp(c.data(), want.data(), want.size() * sizeof(float)),
            0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace fedcl::tensor
