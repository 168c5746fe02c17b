#include "common/stats.h"

#include <cmath>

#include "common/error.h"

namespace fedcl {

double rmse(const std::vector<float>& a, const std::vector<float>& b) {
  FEDCL_CHECK_EQ(a.size(), b.size());
  FEDCL_CHECK(!a.empty());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

}  // namespace fedcl
