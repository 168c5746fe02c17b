#include "nn/grad_utils.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/per_example.h"

namespace fedcl::nn {

double evaluate_accuracy(const Sequential& model, const Tensor& x,
                         const std::vector<std::int64_t>& labels,
                         std::int64_t batch) {
  FEDCL_CHECK_GT(batch, 0);
  const std::int64_t n = x.dim(0);
  FEDCL_CHECK_EQ(static_cast<std::int64_t>(labels.size()), n);
  FEDCL_CHECK_GT(n, 0);
  const std::int64_t row = x.numel() / n;
  std::size_t hits = 0;
  // One scratch chunk reused across iterations; only the final partial
  // chunk (if any) triggers a second allocation.
  tensor::Shape bshape = x.shape();
  Tensor bx;
  for (std::int64_t start = 0; start < n; start += batch) {
    const std::int64_t count = std::min(batch, n - start);
    if (!bx.defined() || bx.dim(0) != count) {
      bshape[0] = count;
      bx = Tensor(bshape);
    }
    std::memcpy(bx.data(), x.data() + start * row,
                sizeof(float) * static_cast<std::size_t>(count * row));
    std::vector<std::int64_t> pred = predict(forward(model, bx));
    for (std::int64_t i = 0; i < count; ++i) {
      if (pred[static_cast<std::size_t>(i)] ==
          labels[static_cast<std::size_t>(start + i)])
        ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace fedcl::nn
