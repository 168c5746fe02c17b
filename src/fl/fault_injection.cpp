#include "fl/fault_injection.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "fl/update_screening.h"

namespace fedcl::fl {

FaultPlan::FaultPlan(FaultInjectionConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  FEDCL_CHECK(config_.fault_rate >= 0.0 && config_.fault_rate <= 1.0)
      << "fault rate " << config_.fault_rate;
  const double weights[] = {config_.crash_weight, config_.straggler_weight,
                            config_.corrupt_weight, config_.bit_flip_weight,
                            config_.stale_round_weight};
  double acc = 0.0;
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    FEDCL_CHECK_GE(weights[i], 0.0) << "negative fault mix weight";
    acc += weights[i];
    cumulative_[i] = acc;
  }
  total_weight_ = acc;
  FEDCL_CHECK(!config_.enabled() || total_weight_ > 0.0)
      << "fault rate > 0 but every mix weight is zero";
}

FaultType FaultPlan::fault_for(std::int64_t round,
                               std::int64_t client_id) const {
  return fault_for_attempt(round, client_id, 0);
}

FaultType FaultPlan::fault_for_attempt(std::int64_t round,
                                       std::int64_t client_id,
                                       int attempt) const {
  if (!config_.enabled()) return FaultType::kNone;
  // One independent draw stream per (round, client): query order and
  // count cannot perturb the schedule. Attempt 0 keeps the historical
  // stream; retries fork an independent one per attempt.
  Rng draw =
      attempt == 0
          ? Rng(seed_).fork("fault-plan",
                            static_cast<std::uint64_t>(round) * 0x1000003ULL +
                                static_cast<std::uint64_t>(client_id))
          : Rng(seed_)
                .fork("fault-plan-retry",
                      (static_cast<std::uint64_t>(round) * 0x1000003ULL +
                       static_cast<std::uint64_t>(client_id)) *
                              31ULL +
                          static_cast<std::uint64_t>(attempt));
  if (!draw.bernoulli(config_.fault_rate)) return FaultType::kNone;
  const double pick = draw.uniform(0.0, total_weight_);
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (pick < cumulative_[i]) {
      return static_cast<FaultType>(i + 1);
    }
  }
  return FaultType::kStaleRound;
}

void corrupt_delta(TensorList& delta, Rng& rng) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  bool poisoned = false;
  for (auto& t : delta) {
    if (!t.defined() || t.numel() == 0) continue;
    // Scaled garbage: blow the magnitude out by ~1e6.
    t.scale_(1e6f);
    // Poison ~1% of entries (at least one) with NaN/Inf.
    const std::int64_t n = t.numel();
    const std::int64_t hits = std::max<std::int64_t>(1, n / 100);
    for (std::int64_t h = 0; h < hits; ++h) {
      const auto i = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      t.data()[i] = rng.bernoulli(0.5) ? kNan : kInf;
      poisoned = true;
    }
  }
  FEDCL_CHECK(poisoned) << "corrupt_delta on an empty update";
}

void flip_random_bits(std::vector<std::uint8_t>& bytes, Rng& rng, int flips) {
  FEDCL_CHECK(!bytes.empty()) << "flip_random_bits on an empty buffer";
  FEDCL_CHECK_GT(flips, 0);
  for (int f = 0; f < flips; ++f) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(bytes.size())));
    bytes[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
  }
}

void RoundFailureStats::count_injected(FaultType fault) {
  switch (fault) {
    case FaultType::kCrash:
      ++injected_crash;
      return;
    case FaultType::kStraggler:
      ++injected_straggler;
      return;
    case FaultType::kCorruptDelta:
      ++injected_corrupt;
      return;
    case FaultType::kBitFlip:
      ++injected_bit_flip;
      return;
    case FaultType::kStaleRound:
      ++injected_stale;
      return;
    case FaultType::kNone:
      return;
  }
}

void RoundFailureStats::count_screening(const ScreeningReport& report) {
  rejected_shape += report.rejected_shape;
  rejected_non_finite += report.rejected_non_finite;
  rejected_norm_outlier += report.rejected_norm_outlier;
  rejected_stale += report.rejected_stale;
}

void RoundFailureStats::accumulate(const RoundFailureStats& other) {
  injected_crash += other.injected_crash;
  injected_straggler += other.injected_straggler;
  injected_corrupt += other.injected_corrupt;
  injected_bit_flip += other.injected_bit_flip;
  injected_stale += other.injected_stale;
  dropouts += other.dropouts;
  rejected_decode += other.rejected_decode;
  rejected_shape += other.rejected_shape;
  rejected_non_finite += other.rejected_non_finite;
  rejected_norm_outlier += other.rejected_norm_outlier;
  rejected_stale += other.rejected_stale;
  retried_clients += other.retried_clients;
  quorum_missed += other.quorum_missed;
  fault_expired += other.fault_expired;
  fault_screened += other.fault_screened;
  fault_retried += other.fault_retried;
  fault_accepted_stale += other.fault_accepted_stale;
  retry_attempts += other.retry_attempts;
  reduced_quorum_rounds += other.reduced_quorum_rounds;
}

}  // namespace fedcl::fl
