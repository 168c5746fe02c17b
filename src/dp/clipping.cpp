#include "dp/clipping.h"

#include <cmath>

#include "common/error.h"

namespace fedcl::dp {

ParamGroups single_group(std::size_t param_count) {
  ParamGroups groups(1);
  for (std::size_t i = 0; i < param_count; ++i) groups[0].push_back(i);
  return groups;
}

ClippingSchedule ClippingSchedule::constant(double c) {
  FEDCL_CHECK_GT(c, 0.0);
  ClippingSchedule s;
  s.kind_ = Kind::kConstant;
  s.c0_ = c;
  return s;
}

ClippingSchedule ClippingSchedule::linear(double c0, double c1,
                                          std::int64_t total_rounds) {
  FEDCL_CHECK_GT(c0, 0.0);
  FEDCL_CHECK_GT(c1, 0.0);
  FEDCL_CHECK_GT(total_rounds, 0);
  ClippingSchedule s;
  s.kind_ = Kind::kLinear;
  s.c0_ = c0;
  s.c1_ = c1;
  s.span_ = total_rounds;
  return s;
}

ClippingSchedule ClippingSchedule::exponential(double c0, double rate) {
  FEDCL_CHECK_GT(c0, 0.0);
  FEDCL_CHECK(rate > 0.0 && rate <= 1.0) << "rate " << rate;
  ClippingSchedule s;
  s.kind_ = Kind::kExponential;
  s.c0_ = c0;
  s.rate_ = rate;
  return s;
}

ClippingSchedule ClippingSchedule::step(double c0, double factor,
                                        std::int64_t every) {
  FEDCL_CHECK_GT(c0, 0.0);
  FEDCL_CHECK(factor > 0.0 && factor <= 1.0) << "factor " << factor;
  FEDCL_CHECK_GT(every, 0);
  ClippingSchedule s;
  s.kind_ = Kind::kStep;
  s.c0_ = c0;
  s.rate_ = factor;
  s.span_ = every;
  return s;
}

double ClippingSchedule::bound_at(std::int64_t round) const {
  FEDCL_CHECK_GE(round, 0);
  switch (kind_) {
    case Kind::kConstant:
      return c0_;
    case Kind::kLinear: {
      if (round >= span_ - 1) return c1_;
      const double frac =
          static_cast<double>(round) / static_cast<double>(span_ - 1);
      return c0_ + (c1_ - c0_) * frac;
    }
    case Kind::kExponential:
      return c0_ * std::pow(rate_, static_cast<double>(round));
    case Kind::kStep:
      return c0_ * std::pow(rate_, static_cast<double>(round / span_));
  }
  return c0_;
}

}  // namespace fedcl::dp
