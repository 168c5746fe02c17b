// The attack's reconstruction-distance metric.
#pragma once

#include <vector>

namespace fedcl {

// Root mean squared deviation between two equally sized vectors —
// the paper's attack "reconstruction distance" metric
// (1/A) * sum_i (x_i - y_i)^2 under a square root.
double rmse(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace fedcl
