// Median-norm estimation for adaptive clipping.
//
// The paper (Section IV, "Choosing Clipping Strategy C") suggests
// using the median norm of the original updates as the clipping bound
// instead of a preset constant. This estimator tracks a sliding window
// of observed norms and reports their median; the adaptive Fed-CDP
// policy (core/policy.h) queries it each sanitization.
#pragma once

#include <cstddef>
#include <deque>

namespace fedcl::dp {

class MedianNormEstimator {
 public:
  // window: number of most recent observations retained.
  explicit MedianNormEstimator(std::size_t window = 256);

  void observe(double norm);
  std::size_t count() const { return window_.size(); }
  bool ready() const { return !window_.empty(); }
  // Median of the retained observations; FEDCL_CHECK-fails when empty.
  double median() const;

 private:
  std::size_t capacity_;
  std::deque<double> window_;
};

}  // namespace fedcl::dp
