#include "fl/update_screening.h"

#include <cstdint>
#include <cstring>
#include <optional>

#include "common/error.h"
#include "common/telemetry.h"

namespace fedcl::fl {

namespace {

bool shapes_match(const ClientUpdate& u,
                  const std::vector<tensor::Shape>& expected) {
  if (u.delta.size() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!u.delta[i].defined() || u.delta[i].shape() != expected[i]) {
      return false;
    }
  }
  return true;
}

// True when no element of p[0, n) is NaN or +-Inf, the floats whose
// exponent bits are all ones. The test ORs into vector lanes with no
// branch per element; its verdicts are std::isfinite's. 16-byte vectors
// compare natively on the baseline ISA (a wider vector's compare would
// be split into scalar code there), and the loop runs at one vector per
// cycle on any ISA, so it is not cloned.
bool all_finite(const float* p, std::int64_t n) {
  typedef std::uint32_t u32x4
      __attribute__((vector_size(16), aligned(4), may_alias));
  typedef std::int32_t i32x4 __attribute__((vector_size(16)));
  constexpr std::uint32_t kExponent = 0x7f800000u;
  i32x4 lanes = {};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const u32x4 bits = *(const u32x4*)(p + i);
    lanes |= (bits & kExponent) == kExponent;
  }
  std::uint32_t nonfinite = 0;
  for (; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    nonfinite |= (bits & kExponent) == kExponent;
  }
  for (int lane = 0; lane < 4; ++lane) nonfinite |= lanes[lane];
  return nonfinite == 0;
}

bool all_finite(const TensorList& delta) {
  for (const auto& t : delta) {
    if (!all_finite(t.data(), t.numel())) return false;
  }
  return true;
}

}  // namespace

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kShapeMismatch:
      return "shape-mismatch";
    case RejectReason::kNonFinite:
      return "non-finite";
    case RejectReason::kNormOutlier:
      return "norm-outlier";
    case RejectReason::kStaleRound:
      return "stale-round";
  }
  return "unknown";
}

void ScreeningReport::count(RejectReason reason) {
  // Single home of the per-reason rejection counter: every screening
  // path funnels through here, so the telemetry total cannot drift
  // from the report fields.
  telemetry::global_registry()
      .counter("fl.screening.rejected_total",
               {{"reason", reject_reason_name(reason)}})
      .add(1);
  switch (reason) {
    case RejectReason::kShapeMismatch:
      ++rejected_shape;
      return;
    case RejectReason::kNonFinite:
      ++rejected_non_finite;
      return;
    case RejectReason::kNormOutlier:
      ++rejected_norm_outlier;
      return;
    case RejectReason::kStaleRound:
      ++rejected_stale;
      return;
  }
}

UpdateScreener::UpdateScreener(ScreeningConfig config) : config_(config) {
  FEDCL_CHECK_GE(config_.max_update_norm, 0.0);
}

ScreenVerdict UpdateScreener::screen_one(
    const ClientUpdate& update, const std::vector<tensor::Shape>& expected,
    std::int64_t current_round, std::int64_t max_staleness,
    ScreeningReport& report) const {
  FEDCL_CHECK_GE(max_staleness, 0);
  ScreenVerdict verdict;
  verdict.staleness = current_round - update.round;
  if (verdict.staleness < 0 || verdict.staleness > max_staleness) {
    // Future-tagged (replayed or forged clock) or too far behind to be
    // worth a decayed weight.
    verdict.reject = RejectReason::kStaleRound;
  } else if (!shapes_match(update, expected)) {
    verdict.reject = RejectReason::kShapeMismatch;
  } else if (!all_finite(update.delta)) {
    verdict.reject = RejectReason::kNonFinite;
  } else if (config_.max_update_norm > 0.0 &&
             tensor::list::l2_norm(update.delta) > config_.max_update_norm) {
    verdict.reject = RejectReason::kNormOutlier;
  }
  if (verdict.reject.has_value()) {
    report.count(*verdict.reject);
  } else {
    ++report.accepted;
  }
  return verdict;
}

}  // namespace fedcl::fl
