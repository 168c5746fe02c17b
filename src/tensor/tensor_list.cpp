#include "tensor/tensor_list.h"

#include <cmath>
#include <cstring>

#include "common/error.h"

namespace fedcl::tensor::list {

TensorList zeros_like(const TensorList& a) {
  TensorList out;
  out.reserve(a.size());
  for (const Tensor& t : a) out.emplace_back(t.shape());
  return out;
}

TensorList clone(const TensorList& a) {
  TensorList out;
  out.reserve(a.size());
  for (const Tensor& t : a) out.push_back(t.clone());
  return out;
}

void add_(TensorList& a, const TensorList& b, float alpha) {
  FEDCL_CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i].add_(b[i], alpha);
}

void scale_(TensorList& a, float s) {
  for (Tensor& t : a) t.scale_(s);
}

double l2_norm(const TensorList& a) {
  double s = 0.0;
  for (const Tensor& t : a) {
    double n = t.l2_norm();
    s += n * n;
  }
  return std::sqrt(s);
}

double l2_norm_subset(const TensorList& a,
                      const std::vector<std::size_t>& idx) {
  double s = 0.0;
  for (std::size_t i : idx) {
    FEDCL_CHECK_LT(i, a.size());
    double n = a[i].l2_norm();
    s += n * n;
  }
  return std::sqrt(s);
}

std::int64_t total_numel(const TensorList& a) {
  std::int64_t n = 0;
  for (const Tensor& t : a) n += t.numel();
  return n;
}

std::vector<Shape> shapes_of(const TensorList& a) {
  std::vector<Shape> out;
  out.reserve(a.size());
  for (const Tensor& t : a) out.push_back(t.shape());
  return out;
}

TensorList PerExampleGrads::example(std::int64_t j) const {
  FEDCL_CHECK(j >= 0 && j < batch) << "example " << j << " batch " << batch;
  TensorList out;
  out.reserve(params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const PerExampleParam& param = params[p];
    Tensor t(shapes[p]);
    const std::int64_t width = t.numel();
    float* dst = t.data();
    if (!param.factored()) {
      std::memcpy(dst, param.rows.data() + j * width,
                  sizeof(float) * static_cast<std::size_t>(width));
    } else if (!param.a.defined()) {
      std::memcpy(dst, param.delta.data() + j * width,
                  sizeof(float) * static_cast<std::size_t>(width));
    } else {
      const std::int64_t in = param.a.numel() / batch;
      const std::int64_t cols = param.delta.numel() / batch;
      FEDCL_CHECK_EQ(in * cols, width);
      const float* a = param.a.data() + j * in;
      const float* d = param.delta.data() + j * cols;
      for (std::int64_t r = 0; r < in; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) dst[r * cols + c] = a[r] * d[c];
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

PerExampleGrads make_per_example(std::int64_t batch,
                                 std::vector<Shape> shapes) {
  FEDCL_CHECK_GT(batch, 0);
  PerExampleGrads out;
  out.batch = batch;
  out.shapes = std::move(shapes);
  out.params.resize(out.shapes.size());
  for (std::size_t p = 0; p < out.shapes.size(); ++p) {
    out.params[p].rows = Tensor({batch, shape_numel(out.shapes[p])});
  }
  return out;
}

PerExampleGrads as_one_example(const TensorList& a) {
  PerExampleGrads out;
  out.batch = 1;
  out.shapes = shapes_of(a);
  out.params.resize(a.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    out.params[p].rows = a[p].reshape({1, a[p].numel()});
  }
  return out;
}

bool allclose(const TensorList& a, const TensorList& b, float atol,
              float rtol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!tensor::allclose(a[i], b[i], atol, rtol)) return false;
  }
  return true;
}

}  // namespace fedcl::tensor::list
