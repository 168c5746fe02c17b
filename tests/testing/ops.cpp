#include "testing/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace fedcl::tensor {

namespace {

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, const char* name, F f) {
  FEDCL_CHECK(a.shape() == b.shape())
      << name << ": shape mismatch " << shape_str(a.shape()) << " vs "
      << shape_str(b.shape());
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = f(pa[i], pb[i]);
  return out;
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

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "div", [](float x, float y) { return x / y; });
}
Tensor neg(const Tensor& a) {
  return unary_op(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary_op(a, [](float x) { return std::log(x); });
}
Tensor step_mask(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

float dot(const Tensor& a, const Tensor& b) {
  FEDCL_CHECK_EQ(a.numel(), b.numel());
  const float* pa = a.data();
  const float* pb = b.data();
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    s += static_cast<double>(pa[i]) * static_cast<double>(pb[i]);
  return static_cast<float>(s);
}

Tensor row_sum(const Tensor& x) {
  FEDCL_CHECK_EQ(x.ndim(), 2u);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  Tensor out({n, 1});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < c; ++j) s += px[i * c + j];
    po[i] = static_cast<float>(s);
  }
  return out;
}

Tensor row_max(const Tensor& x) {
  FEDCL_CHECK_EQ(x.ndim(), 2u);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FEDCL_CHECK_GT(c, 0);
  Tensor out({n, 1});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float m = px[i * c];
    for (std::int64_t j = 1; j < c; ++j) m = std::max(m, px[i * c + j]);
    po[i] = m;
  }
  return out;
}

Tensor broadcast_col(const Tensor& x, std::int64_t c) {
  FEDCL_CHECK_EQ(x.ndim(), 2u);
  FEDCL_CHECK_EQ(x.dim(1), 1);
  const std::int64_t n = x.dim(0);
  Tensor out({n, c});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < c; ++j) po[i * c + j] = px[i];
  return out;
}

Tensor broadcast_row(const Tensor& x, std::int64_t n) {
  FEDCL_CHECK_EQ(x.ndim(), 1u);
  const std::int64_t c = x.dim(0);
  Tensor out({n, c});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < c; ++j) po[i * c + j] = px[j];
  return out;
}

Tensor expand_scalar(const Tensor& x, const Shape& shape) {
  FEDCL_CHECK_EQ(x.numel(), 1);
  return Tensor::full(shape, x.item());
}

Tensor sum_all(const Tensor& x) { return Tensor::scalar(x.sum()); }

Tensor pick(const Tensor& x, const std::vector<std::int64_t>& idx) {
  FEDCL_CHECK_EQ(x.ndim(), 2u);
  const std::int64_t n = x.dim(0), c = x.dim(1);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(idx.size()), n);
  Tensor out({n, 1});
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    FEDCL_CHECK(idx[i] >= 0 && idx[i] < c) << "label " << idx[i];
    po[i] = px[i * c + idx[i]];
  }
  return out;
}

Tensor scatter(const Tensor& s, const std::vector<std::int64_t>& idx,
               std::int64_t c) {
  FEDCL_CHECK_EQ(s.ndim(), 2u);
  FEDCL_CHECK_EQ(s.dim(1), 1);
  const std::int64_t n = s.dim(0);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(idx.size()), n);
  Tensor out({n, c});
  const float* ps = s.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    FEDCL_CHECK(idx[i] >= 0 && idx[i] < c) << "label " << idx[i];
    po[i * c + idx[i]] = ps[i];
  }
  return out;
}

Tensor col2im(const Tensor& cols, const ConvSpec& spec, std::int64_t n) {
  spec.validate();
  FEDCL_CHECK_EQ(cols.ndim(), 2u);
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  FEDCL_CHECK_EQ(cols.dim(0), n * oh * ow);
  FEDCL_CHECK_EQ(cols.dim(1), patch);
  Tensor x({n, spec.in_h, spec.in_w, spec.in_c});
  const float* pc = cols.data();
  float* px = x.data();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  for (std::int64_t b = 0; b < n; ++b) {
    float* img = px + b * spec.in_h * hw_stride;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        const float* row = pc + ((b * oh + y) * ow + xo) * patch;
        const std::int64_t ys = y * spec.stride - spec.pad;
        const std::int64_t xs = xo * spec.stride - spec.pad;
        std::int64_t k = 0;
        for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
          const std::int64_t yy = ys + kh;
          for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw) {
            const std::int64_t xx = xs + kw;
            if (yy >= 0 && yy < spec.in_h && xx >= 0 && xx < spec.in_w) {
              float* dst = img + yy * hw_stride + xx * spec.in_c;
              for (std::int64_t c = 0; c < spec.in_c; ++c) dst[c] += row[k++];
            } else {
              k += spec.in_c;
            }
          }
        }
      }
    }
  }
  return x;
}

}  // namespace fedcl::tensor

// Naming convention inside VJP lambdas: `g` is the upstream gradient of
// the op's output. Each lambda returns one gradient per parent, in
// parent order. Ops that need their own output for the derivative
// (exp, sigmoid, tanh) recompute it from the parent instead of
// capturing the output Var — capturing the output would create a
// shared_ptr cycle node -> vjp -> node.

namespace fedcl::tensor::ops {

namespace t = fedcl::tensor;

Var constant(Tensor value) { return Var(std::move(value), false); }

Var add(const Var& a, const Var& b) {
  return Var::make_op(
      t::add(a.value(), b.value()), {a, b},
      [](const Var& g) -> std::vector<Var> { return {g, g}; }, "add");
}

Var sub(const Var& a, const Var& b) {
  return Var::make_op(
      t::sub(a.value(), b.value()), {a, b},
      [](const Var& g) -> std::vector<Var> { return {g, neg(g)}; }, "sub");
}

Var mul(const Var& a, const Var& b) {
  return Var::make_op(
      t::mul(a.value(), b.value()), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        return {mul(g, b), mul(g, a)};
      },
      "mul");
}

Var div(const Var& a, const Var& b) {
  return Var::make_op(
      t::div(a.value(), b.value()), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        Var ga = div(g, b);
        Var gb = neg(div(mul(g, a), mul(b, b)));
        return {ga, gb};
      },
      "div");
}

Var add_scalar(const Var& a, float s) {
  return Var::make_op(
      t::add_scalar(a.value(), s), {a},
      [](const Var& g) -> std::vector<Var> { return {g}; }, "add_scalar");
}

Var mul_scalar(const Var& a, float s) {
  return Var::make_op(
      t::mul_scalar(a.value(), s), {a},
      [s](const Var& g) -> std::vector<Var> { return {mul_scalar(g, s)}; },
      "mul_scalar");
}

Var neg(const Var& a) {
  return Var::make_op(
      t::neg(a.value()), {a},
      [](const Var& g) -> std::vector<Var> { return {neg(g)}; }, "neg");
}

Var exp(const Var& a) {
  return Var::make_op(
      t::exp(a.value()), {a},
      [a](const Var& g) -> std::vector<Var> { return {mul(g, exp(a))}; },
      "exp");
}

Var log(const Var& a) {
  return Var::make_op(
      t::log(a.value()), {a},
      [a](const Var& g) -> std::vector<Var> { return {div(g, a)}; }, "log");
}

Var relu(const Var& a) {
  return Var::make_op(
      t::relu(a.value()), {a},
      [a](const Var& g) -> std::vector<Var> {
        // The 0/1 mask is piecewise constant; treating it as a constant
        // is the exact a.e. derivative and keeps double-backward sane.
        Var mask = constant(t::step_mask(a.value()));
        return {mul(g, mask)};
      },
      "relu");
}

Var sigmoid(const Var& a) {
  return Var::make_op(
      t::sigmoid(a.value()), {a},
      [a](const Var& g) -> std::vector<Var> {
        Var s = sigmoid(a);
        Var one = constant(Tensor::ones(a.value().shape()));
        return {mul(g, mul(s, sub(one, s)))};
      },
      "sigmoid");
}

Var tanh(const Var& a) {
  return Var::make_op(
      t::tanh(a.value()), {a},
      [a](const Var& g) -> std::vector<Var> {
        Var th = tanh(a);
        Var one = constant(Tensor::ones(a.value().shape()));
        return {mul(g, sub(one, mul(th, th)))};
      },
      "tanh");
}

Var square(const Var& a) { return mul(a, a); }

Var matmul(const Var& a, const Var& b) {
  return Var::make_op(
      t::matmul(a.value(), b.value()), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        Var ga = matmul_nt(g, b);   // g b^T
        Var gb = matmul_tn(a, g);   // a^T g
        return {ga, gb};
      },
      "matmul");
}

Var matmul_tn(const Var& a, const Var& b) {
  return Var::make_op(
      t::matmul_tn(a.value(), b.value()), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        Var ga = matmul_nt(b, g);   // b g^T -> [K,M]
        Var gb = matmul(a, g);      // a g   -> [K,N]
        return {ga, gb};
      },
      "matmul_tn");
}

Var matmul_nt(const Var& a, const Var& b) {
  return Var::make_op(
      t::matmul_nt(a.value(), b.value()), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        Var ga = matmul(g, b);      // g b   -> [M,K]
        Var gb = matmul_tn(g, a);   // g^T a -> [N,K]
        return {ga, gb};
      },
      "matmul_nt");
}

Var reshape(const Var& a, Shape shape) {
  Shape original = a.value().shape();
  return Var::make_op(
      a.value().reshape(std::move(shape)), {a},
      [original](const Var& g) -> std::vector<Var> {
        return {reshape(g, original)};
      },
      "reshape");
}

Var sum_all(const Var& a) {
  Shape original = a.value().shape();
  return Var::make_op(
      t::sum_all(a.value()), {a},
      [original](const Var& g) -> std::vector<Var> {
        return {expand_scalar(g, original)};
      },
      "sum_all");
}

Var expand_scalar(const Var& a, Shape shape) {
  FEDCL_CHECK_EQ(a.numel(), 1);
  return Var::make_op(
      t::expand_scalar(a.value(), shape), {a},
      [](const Var& g) -> std::vector<Var> { return {sum_all(g)}; },
      "expand_scalar");
}

Var row_sum(const Var& a) {
  const std::int64_t c = a.value().dim(1);
  return Var::make_op(
      t::row_sum(a.value()), {a},
      [c](const Var& g) -> std::vector<Var> { return {broadcast_col(g, c)}; },
      "row_sum");
}

Var broadcast_col(const Var& a, std::int64_t c) {
  return Var::make_op(
      t::broadcast_col(a.value(), c), {a},
      [](const Var& g) -> std::vector<Var> { return {row_sum(g)}; },
      "broadcast_col");
}

Var col_sum(const Var& a) {
  const std::int64_t n = a.value().dim(0);
  return Var::make_op(
      t::col_sum(a.value()), {a},
      [n](const Var& g) -> std::vector<Var> { return {broadcast_row(g, n)}; },
      "col_sum");
}

Var broadcast_row(const Var& a, std::int64_t n) {
  return Var::make_op(
      t::broadcast_row(a.value(), n), {a},
      [](const Var& g) -> std::vector<Var> { return {col_sum(g)}; },
      "broadcast_row");
}

Var add_rowvec(const Var& x, const Var& b) {
  FEDCL_CHECK_EQ(x.value().ndim(), 2u);
  FEDCL_CHECK_EQ(b.value().ndim(), 1u);
  FEDCL_CHECK_EQ(x.value().dim(1), b.value().dim(0));
  const std::int64_t n = x.value().dim(0);
  Tensor out = t::add(x.value(), t::broadcast_row(b.value(), n));
  return Var::make_op(
      std::move(out), {x, b},
      [](const Var& g) -> std::vector<Var> { return {g, col_sum(g)}; },
      "add_rowvec");
}

Var row_max_detached(const Var& a) {
  return constant(t::row_max(a.value()));
}

Var pick(const Var& x, std::vector<std::int64_t> idx) {
  const std::int64_t c = x.value().dim(1);
  auto idx_copy = idx;
  return Var::make_op(
      t::pick(x.value(), idx), {x},
      [idx_copy, c](const Var& g) -> std::vector<Var> {
        return {scatter(g, idx_copy, c)};
      },
      "pick");
}

Var scatter(const Var& s, std::vector<std::int64_t> idx, std::int64_t c) {
  auto idx_copy = idx;
  return Var::make_op(
      t::scatter(s.value(), idx, c), {s},
      [idx_copy](const Var& g) -> std::vector<Var> {
        return {pick(g, idx_copy)};
      },
      "scatter");
}

Var im2col(const Var& x, const ConvSpec& spec) {
  const std::int64_t n = x.value().dim(0);
  return Var::make_op(
      t::im2col(x.value(), spec), {x},
      [spec, n](const Var& g) -> std::vector<Var> {
        return {col2im(g, spec, n)};
      },
      "im2col");
}

Var col2im(const Var& cols, const ConvSpec& spec, std::int64_t n) {
  return Var::make_op(
      t::col2im(cols.value(), spec, n), {cols},
      [spec](const Var& g) -> std::vector<Var> { return {im2col(g, spec)}; },
      "col2im");
}

Var l2_norm_squared(const Var& a) { return sum_all(square(a)); }

}  // namespace fedcl::tensor::ops
