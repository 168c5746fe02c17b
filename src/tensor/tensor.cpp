#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace fedcl::tensor {

namespace {

// Large blocks are recycled through a per-thread free list. The
// batched per-example engine allocates multi-megabyte intermediates
// (im2col unfoldings, per-example gradient rows) on every local
// iteration; glibc serves blocks of that size with mmap/munmap, so
// without recycling each reuse pays a page-fault sweep over freshly
// mapped memory. Blocks below the threshold stay with plain new[] —
// the allocator already recycles those well.
constexpr std::int64_t kBlockCacheMinFloats = 1 << 14;  // 64 KiB
constexpr std::size_t kBlockCacheMaxBytes = std::size_t{64} << 20;

// Every block starts on a 64-byte (cache-line, AVX-512 vector)
// boundary, so where a buffer lands cannot change how the kernels that
// stream it run. A block is a plain new[] with room to slide its start
// to the boundary (new[] already aligns to 16): glibc's aligned
// operator new bypasses its per-thread cache, which fragmented the heap
// of runs that make many small tensors.
constexpr std::size_t kStorageAlign = 64;
constexpr std::size_t kSlackBytes =
    kStorageAlign - __STDCPP_DEFAULT_NEW_ALIGNMENT__;

struct Block {
  float* base = nullptr;  // what new[] returned; delete[] takes this
  float* data = nullptr;  // the aligned start
};

Block new_block(std::int64_t n) {
  Block b;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
  b.base = new float[(bytes + kSlackBytes) / sizeof(float)];
  void* p = b.base;
  std::size_t space = bytes + kSlackBytes;
  b.data = static_cast<float*>(std::align(kStorageAlign, bytes, p, space));
  FEDCL_CHECK(b.data != nullptr);
  std::memset(b.data, 0, bytes);
  return b;
}

struct BlockCache {
  std::unordered_map<std::int64_t, std::vector<Block>> free_by_size;
  std::size_t bytes = 0;
  ~BlockCache() {
    for (auto& [size, blocks] : free_by_size)
      for (const Block& b : blocks) delete[] b.base;
  }
};

BlockCache& block_cache() {
  thread_local BlockCache cache;
  return cache;
}

std::shared_ptr<float[]> alloc_storage(std::int64_t n) {
  FEDCL_CHECK_GE(n, 0);
  if (n >= kBlockCacheMinFloats) {
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
    BlockCache& cache = block_cache();
    Block b;
    auto it = cache.free_by_size.find(n);
    if (it != cache.free_by_size.end() && !it->second.empty()) {
      b = it->second.back();
      it->second.pop_back();
      cache.bytes -= bytes;
      std::memset(b.data, 0, bytes);
    } else {
      b = new_block(n);
    }
    // The deleter may run on a different thread than the allocation;
    // each thread returns blocks to its own cache, which keeps both
    // sides lock-free.
    return std::shared_ptr<float[]>(b.data, [n, bytes, b](float*) {
      BlockCache& cache = block_cache();
      if (cache.bytes + bytes <= kBlockCacheMaxBytes) {
        cache.free_by_size[n].push_back(b);
        cache.bytes += bytes;
      } else {
        delete[] b.base;
      }
    });
  }
  const Block b = new_block(n);
  return std::shared_ptr<float[]>(b.data,
                                  [base = b.base](float*) { delete[] base; });
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  FEDCL_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << shape_str(a.shape()) << " vs "
      << shape_str(b.shape());
}

template <typename F>
Tensor unary_op(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      data_(alloc_storage(numel_)) {
  for (std::int64_t d : shape_) FEDCL_CHECK_GE(d, 0);
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> values) {
  Tensor t(std::move(shape));
  FEDCL_CHECK_EQ(t.numel(), static_cast<std::int64_t>(values.size()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i)
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::scalar(float value) { return full({1}, value); }

std::int64_t Tensor::dim(std::size_t i) const {
  FEDCL_CHECK_LT(i, shape_.size());
  return shape_[i];
}

float* Tensor::data() {
  FEDCL_CHECK(defined());
  return data_.get();
}

const float* Tensor::data() const {
  FEDCL_CHECK(defined());
  return data_.get();
}

float& Tensor::at(std::int64_t i) {
  FEDCL_CHECK(i >= 0 && i < numel_) << "index " << i << " numel " << numel_;
  return data()[i];
}

float Tensor::at(std::int64_t i) const {
  FEDCL_CHECK(i >= 0 && i < numel_) << "index " << i << " numel " << numel_;
  return data()[i];
}

float Tensor::item() const {
  FEDCL_CHECK_EQ(numel_, 1);
  return data()[0];
}

std::vector<float> Tensor::to_vector() const {
  FEDCL_CHECK(defined());
  return std::vector<float>(data(), data() + numel_);
}

Tensor Tensor::reshape(Shape shape) const {
  FEDCL_CHECK(defined());
  FEDCL_CHECK_EQ(shape_numel(shape), numel_);
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = numel_;
  t.data_ = data_;  // shared storage
  return t;
}

Tensor Tensor::clone() const {
  FEDCL_CHECK(defined());
  Tensor t(shape_);
  std::memcpy(t.data(), data(), sizeof(float) * static_cast<std::size_t>(numel_));
  return t;
}

Tensor& Tensor::fill_(float value) {
  std::fill(data(), data() + numel_, value);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other, float alpha) {
  check_same_shape(*this, other, "add_");
  float* p = data();
  const float* q = other.data();
  for (std::int64_t i = 0; i < numel_; ++i) p[i] += alpha * q[i];
  return *this;
}

Tensor& Tensor::scale_(float s) {
  float* p = data();
  for (std::int64_t i = 0; i < numel_; ++i) p[i] *= s;
  return *this;
}

float Tensor::sum() const {
  const float* p = data();
  double s = 0.0;
  for (std::int64_t i = 0; i < numel_; ++i) s += p[i];
  return static_cast<float>(s);
}

FEDCL_KERNEL_CLONES
double sum_squares(const float* p, std::int64_t n) {
  return sum_squares_lanes(p, n);
}

float Tensor::l2_norm() const {
  return static_cast<float>(std::sqrt(sum_squares(data(), numel_)));
}

// ---- free functions ----

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; });
}

Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor sigmoid(const Tensor& a) {
  return unary_op(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor tanh(const Tensor& a) {
  return unary_op(a, [](float x) { return std::tanh(x); });
}

namespace {

// Flop threshold (m*k*n) below which threading overhead dominates and
// the kernels stay serial.
constexpr std::int64_t kParallelFlops = 1 << 18;
// Output-row count at or above which matmul_nt packs B^T into a
// scratch buffer and reuses the NN kernel; below it the transpose
// cost is not amortized, and matmul_nt_rows packs A's rows instead
// and computes the dot products four rows to a vector.
constexpr std::int64_t kNtPackRows = 16;

// The NN and TN products share one register-tiled body: R output rows
// by one vector of columns live in accumulators for the whole k sweep,
// so each element has its own multiply-add chain and the tile gives the
// core R independent vectors of chains to hide FMA latency behind. It
// is instantiated at two tile shapes, 4x8 in the cloned entry and 8x16
// in the x86-64-v4 one; the last n % 8 columns run through it as one
// 8-lane tile over a zero-padded copy of B's tail columns, so no column
// is left to scalar code. Every output element is therefore one lane's
// chain, acc = 0 then acc += a_ik * b_kj in ascending k, added into
// `out` once, whatever its row block, column tile or the pool's row
// split: results are bitwise identical for any thread count. Where the
// entry's ISA has FMA, GCC contracts each step (and only the step) into
// one fused multiply-add.
//
// Lanes<W>::V is the vector of W floats. Loads and stores through it
// need only float alignment; the template argument is the lane count,
// as a vector type passed as a template argument loses those attributes.
template <int W>
struct Lanes;
template <>
struct Lanes<8> {
  typedef float V __attribute__((vector_size(32), aligned(4), may_alias));
};
template <>
struct Lanes<16> {
  typedef float V __attribute__((vector_size(64), aligned(4), may_alias));
};

// The v4 entry hands its last m % 8 rows to the cloned one, which under
// ThreadSanitizer compiles to its baseline body and does not contract
// (tensor/simd.h), so TSan builds run every row on the cloned entry.
#if FEDCL_HAVE_V4_KERNELS && !defined(__SANITIZE_THREAD__)
#define FEDCL_MATMUL_V4 1
#else
#define FEDCL_MATMUL_V4 0
#endif

// out[m,n] += op(A) B with B [k,n]. NN reads row i of A [m,k], TN reads
// column i of A [k,m]. `tail` holds B's last n % 8 columns, k-major and
// zero-padded to 8.
struct Product {
  const float* a;
  const float* b;
  const float* tail;
  float* out;
  std::int64_t k, m, n;
  bool tn;
};

// Rows [i, i + R) by W columns from j0, reading B's columns from
// `bcol` with row stride `ldb`; stores the first `cols` lanes. NN reads
// A's rows through `ar`, TN its columns from row kk.
template <bool kTN, int R, int W>
[[gnu::always_inline]] inline void tile(const Product& p, std::int64_t i,
                                        const float* const* ar,
                                        const float* bcol, std::int64_t ldb,
                                        std::int64_t j0, std::int64_t cols) {
  typedef typename Lanes<W>::V V;
  V c[R] = {};
  for (std::int64_t kk = 0; kk < p.k; ++kk) {
    const V bv = *(const V*)(bcol + kk * ldb);
    const float* acol = p.a + kk * p.m + i;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) c[r] += (kTN ? acol[r] : ar[r][kk]) * bv;
  }
  // Locals: a store through V may alias p.
  float* const out = p.out + i * p.n + j0;
  const std::int64_t n = p.n;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* o = out + r * n;
    if (cols == W) {
      *(V*)o += c[r];
    } else {
      // A tail's cols < W lanes, in a loop of fixed trip count that GCC
      // unrolls rather than vectorizing with runtime checks.
      for (int l = 0; l < W - 1; ++l)
        if (l < cols) o[l] += c[r][l];
    }
  }
}

// Every column of rows [i, i + R): W-lane tiles, then 8-lane tiles,
// then the padded tail.
template <bool kTN, int R, int W>
[[gnu::always_inline]] inline void row_tiles(const Product& p,
                                             std::int64_t i) {
  // A's row pointers, set once per block: GCC then steps each of them in
  // the k loop of the 8x16 tiles, whose FMAs keep base+displacement
  // memory operands (set per tile, they become base+index operands off
  // one pointer, an extra micro-op each on Intel cores).
  const float* ar[R];
  for (int r = 0; r < R; ++r) ar[r] = p.a + (i + r) * p.k;
  const std::int64_t n8 = p.n - p.n % 8;
  std::int64_t j0 = 0;
  for (; j0 + W <= n8; j0 += W)
    tile<kTN, R, W>(p, i, ar, p.b + j0, p.n, j0, W);
  for (; j0 < n8; j0 += 8) tile<kTN, R, 8>(p, i, ar, p.b + j0, p.n, j0, 8);
  if (n8 < p.n) tile<kTN, R, 8>(p, i, ar, p.tail, 8, n8, p.n - n8);
}

// Rows [i, i + R) in the product's layout.
template <int R, int W>
[[gnu::always_inline]] inline void row_block(const Product& p,
                                             std::int64_t i) {
  if (p.tn) {
    row_tiles<true, R, W>(p, i);
  } else {
    row_tiles<false, R, W>(p, i);
  }
}

// Rows [i0, i1) at the 4x8 tile, the last m % 4 one at a time.
FEDCL_KERNEL_CLONES
void rows_4x8(const Product& p, std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) row_block<4, 8>(p, i);
  for (; i < i1; ++i) row_block<1, 8>(p, i);
}

#if FEDCL_MATMUL_V4
// Rows [i0, i1) at the 8x16 tile, which fills the AVX-512 register
// file; the last m % 8 rows go to the cloned entry, whose v4 clone
// computes the same chains.
FEDCL_KERNEL_V4
void rows_8x16(const Product& p, std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + 8 <= i1; i += 8) row_block<8, 16>(p, i);
  if (i < i1) rows_4x8(p, i, i1);
}
#endif

void product_rows(const Product& p, std::int64_t i0, std::int64_t i1) {
#if FEDCL_MATMUL_V4
  if (fedcl_cpu_has_v4()) {
    rows_8x16(p, i0, i1);
    return;
  }
#endif
  rows_4x8(p, i0, i1);
}

// The operands of out += op(A) B. B's tail columns are packed into this
// thread's buffer, which stays valid until the thread's next call; the
// pool's workers only read it while the caller waits for them.
Product operands(bool tn, const float* a, const float* b, float* out,
                 std::int64_t k, std::int64_t m, std::int64_t n) {
  thread_local std::vector<float> tail;
  const std::int64_t n8 = n - n % 8;
  if (n8 < n) {
    tail.assign(static_cast<std::size_t>(8 * k), 0.0f);
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t c = 0; n8 + c < n; ++c)
        tail[kk * 8 + c] = b[kk * n + n8 + c];
  }
  return {a, b, tail.data(), out, k, m, n, tn};
}

typedef float vf4 __attribute__((vector_size(16), aligned(4), may_alias));

// Row-range worker for C[i0:i1) of C = A B^T with B: [n,k], the
// small-m form (m < kNtPackRows). Rows go four at a time: their A rows
// are packed k-major, so one vector holds the four rows' k-th entries
// and the four output rows of a column accumulate in its lanes, four
// columns at once as independent chains. Missing rows of the last
// group are zero lanes that are never stored. Every lane multiplies,
// then adds, in ascending k, which is the arithmetic of one dot product
// per output (s += a_ik * b_jk), so results are bitwise the dot form.
// Not cloned, on purpose: the baseline body has no FMA to contract into
// (the boundary in DESIGN.md §7).
void matmul_nt_rows(const float* a, const float* b, float* out,
                    std::int64_t i0, std::int64_t i1, std::int64_t k,
                    std::int64_t n) {
  std::vector<float> packed(static_cast<std::size_t>(4 * k));
  const vf4* ap = reinterpret_cast<const vf4*>(packed.data());
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rows = std::min<std::int64_t>(4, i1 - i);
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t r = 0; r < 4; ++r)
        packed[kk * 4 + r] = r < rows ? a[(i + r) * k + kk] : 0.0f;
    float* orow = out + i * n;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      vf4 c0 = {}, c1 = {}, c2 = {}, c3 = {};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        c0 += ap[kk] * b0[kk];
        c1 += ap[kk] * b1[kk];
        c2 += ap[kk] * b2[kk];
        c3 += ap[kk] * b3[kk];
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        orow[r * n + j] += c0[r];
        orow[r * n + j + 1] += c1[r];
        orow[r * n + j + 2] += c2[r];
        orow[r * n + j + 3] += c3[r];
      }
    }
    for (; j < n; ++j) {
      const float* bj = b + j * k;
      vf4 c = {};
      for (std::int64_t kk = 0; kk < k; ++kk) c += ap[kk] * bj[kk];
      for (std::int64_t r = 0; r < rows; ++r) orow[r * n + j] += c[r];
    }
  }
}

// Packs B [n,k] as B^T [k,n] so NT calls with enough output rows run
// through the vector-friendly NN kernel instead of short dot
// products. The accumulation order per output element is ascending k
// either way.
std::vector<float> pack_transpose(const float* b, std::int64_t n,
                                  std::int64_t k) {
  std::vector<float> bt(static_cast<std::size_t>(k) * n);
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t kk = 0; kk < k; ++kk) bt[kk * n + j] = b[j * k + kk];
  return bt;
}

template <typename RowFn>
void dispatch_rows(std::int64_t m, std::int64_t k, std::int64_t n,
                   const RowFn& rows) {
  ThreadPool& pool = compute_pool();
  if (m * k * n < kParallelFlops || pool.size() <= 1) {
    rows(0, m);
    return;
  }
  pool.parallel_for_chunks(
      static_cast<std::size_t>(m), /*grain=*/8,
      [&](std::size_t begin, std::size_t end) {
        rows(static_cast<std::int64_t>(begin),
             static_cast<std::int64_t>(end));
      });
}

}  // namespace

void matmul_nn_into(const float* a, const float* b, float* out,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  product_rows(operands(/*tn=*/false, a, b, out, k, m, n), 0, m);
}

void matmul_tn_into(const float* a, const float* b, float* out,
                    std::int64_t k, std::int64_t m, std::int64_t n) {
  product_rows(operands(/*tn=*/true, a, b, out, k, m, n), 0, m);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  FEDCL_CHECK_EQ(a.ndim(), 2u);
  FEDCL_CHECK_EQ(b.ndim(), 2u);
  FEDCL_CHECK_EQ(a.dim(1), b.dim(0));
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const Product p =
      operands(/*tn=*/false, a.data(), b.data(), out.data(), k, m, n);
  dispatch_rows(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
    product_rows(p, i0, i1);
  });
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  FEDCL_CHECK_EQ(a.ndim(), 2u);
  FEDCL_CHECK_EQ(b.ndim(), 2u);
  FEDCL_CHECK_EQ(a.dim(0), b.dim(0));
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const Product p =
      operands(/*tn=*/true, a.data(), b.data(), out.data(), k, m, n);
  dispatch_rows(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
    product_rows(p, i0, i1);
  });
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  FEDCL_CHECK_EQ(a.ndim(), 2u);
  FEDCL_CHECK_EQ(b.ndim(), 2u);
  FEDCL_CHECK_EQ(a.dim(1), b.dim(1));
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (m >= kNtPackRows) {
    const std::vector<float> bt = pack_transpose(pb, n, k);
    const Product p = operands(/*tn=*/false, pa, bt.data(), po, k, m, n);
    dispatch_rows(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
      product_rows(p, i0, i1);
    });
    return out;
  }
  dispatch_rows(m, k, n, [&](std::int64_t i0, std::int64_t i1) {
    matmul_nt_rows(pa, pb, po, i0, i1, k, n);
  });
  return out;
}

Tensor col_sum(const Tensor& x) {
  FEDCL_CHECK_EQ(x.ndim(), 2u);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  Tensor out({c});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < c; ++j) po[j] += px[i * c + j];
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    float tol = atol + rtol * std::abs(pb[i]);
    if (std::abs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace fedcl::tensor
