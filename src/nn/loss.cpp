#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"

namespace fedcl::nn {

namespace o = tensor::ops;

Var softmax_cross_entropy(const Var& logits,
                          const std::vector<std::int64_t>& labels) {
  FEDCL_CHECK_EQ(logits.value().ndim(), 2u);
  const std::int64_t n = logits.value().dim(0);
  const std::int64_t c = logits.value().dim(1);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), n);
  // Numerically stable log-softmax; the detached row max cancels in the
  // gradient so detaching is exact.
  Var m = o::row_max_detached(logits);
  Var z = o::sub(logits, o::broadcast_col(m, c));
  Var lse = o::log(o::row_sum(o::exp(z)));
  Var logp = o::sub(z, o::broadcast_col(lse, c));
  Var picked = o::pick(logp, labels);
  return o::mul_scalar(o::sum_all(picked), -1.0f / static_cast<float>(n));
}

Tensor softmax(const Tensor& logits) {
  FEDCL_CHECK_EQ(logits.ndim(), 2u);
  const std::int64_t c = logits.dim(1);
  Tensor shifted =
      tensor::sub(logits, tensor::broadcast_col(tensor::row_max(logits), c));
  Tensor e = tensor::exp(shifted);
  Tensor denom = tensor::broadcast_col(tensor::row_sum(e), c);
  return tensor::div(e, denom);
}

std::vector<std::int64_t> predict(const Tensor& logits) {
  FEDCL_CHECK_EQ(logits.ndim(), 2u);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  const float* p = logits.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = p + i * c;
    out[static_cast<std::size_t>(i)] =
        std::max_element(row, row + c) - row;
  }
  return out;
}

double accuracy(const Tensor& logits,
                const std::vector<std::int64_t>& labels) {
  std::vector<std::int64_t> pred = predict(logits);
  FEDCL_CHECK_EQ(pred.size(), labels.size());
  FEDCL_CHECK(!labels.empty());
  std::size_t hit = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == labels[i]) ++hit;
  return static_cast<double>(hit) / static_cast<double>(pred.size());
}

}  // namespace fedcl::nn
