#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fedcl::nn {

Tensor softmax(const Tensor& logits) {
  FEDCL_CHECK_EQ(logits.ndim(), 2u);
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  FEDCL_CHECK_GT(c, 0);
  Tensor out({n, c});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* z = logits.data() + i * c;
    float* p = out.data() + i * c;
    float m = z[0];
    for (std::int64_t j = 1; j < c; ++j) m = std::max(m, z[j]);
    double sum = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      p[j] = std::exp(z[j] - m);
      sum += p[j];
    }
    const float total = static_cast<float>(sum);
    for (std::int64_t j = 0; j < c; ++j) p[j] = p[j] / total;
  }
  return out;
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
