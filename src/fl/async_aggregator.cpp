#include "fl/async_aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/telemetry.h"

namespace fedcl::fl {

namespace {

// Inclusive upper edges for the staleness histogram (rounds behind);
// one overflow bucket is implicit.
const std::vector<double>& staleness_buckets() {
  static const std::vector<double> buckets = {0, 1, 2, 4, 8, 16, 32};
  return buckets;
}

}  // namespace

AsyncAggregatorConfig resolve_async_config(AsyncAggregatorConfig config,
                                           std::int64_t clients_per_round) {
  if (config.min_to_apply <= 0) {
    config.min_to_apply = std::max<std::int64_t>(1, clients_per_round / 2);
  }
  return config;
}

AsyncAggregator::AsyncAggregator(TensorList initial_weights,
                                 AsyncAggregatorConfig config,
                                 ScreeningConfig screening)
    : config_(config),
      screener_(screening),
      weights_(std::move(initial_weights)) {
  FEDCL_CHECK(!weights_.empty()) << "async aggregator needs a model";
  FEDCL_CHECK_GE(config_.min_to_apply, 1);
  FEDCL_CHECK_GE(config_.staleness_alpha, 0.0);
  FEDCL_CHECK_GE(config_.max_staleness, 0);
  expected_shapes_ = tensor::list::shapes_of(weights_);
  accumulator_ = tensor::list::zeros_like(weights_);
}

AsyncAggregator::OfferResult AsyncAggregator::offer(ClientUpdate update,
                                                    std::int64_t now_round) {
  std::lock_guard<std::mutex> lock(mutex_);
  telemetry::Registry& registry = telemetry::global_registry();

  OfferResult result;
  const ScreenVerdict verdict =
      screener_.screen_one(update, expected_shapes_, now_round,
                           config_.max_staleness, screening_totals_);
  result.staleness = verdict.staleness;
  if (!verdict.accepted()) {
    result.reject = verdict.reject;
    return result;
  }
  result.accepted = true;

  const double w = std::pow(1.0 + static_cast<double>(verdict.staleness),
                           -config_.staleness_alpha);
  tensor::list::add_(accumulator_, update.delta, static_cast<float>(w));
  weight_sum_ += w;
  ++buffered_;

  registry.histogram("fl.async.staleness", staleness_buckets())
      .observe(static_cast<double>(verdict.staleness));
  registry.gauge("fl.async.buffer_occupancy")
      .set(static_cast<double>(buffered_));
  registry.counter("fl.server.updates_accepted_total").add(1);
  if (verdict.staleness > 0) {
    registry.counter("fl.async.stale_accepted_total").add(1);
  }

  if (buffered_ >= config_.min_to_apply && weight_sum_ > 0.0) {
    apply_locked("quorum");
    result.applied = true;
  }
  return result;
}

bool AsyncAggregator::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (buffered_ == 0 || weight_sum_ <= 0.0) return false;
  apply_locked("flush");
  return true;
}

void AsyncAggregator::apply_locked(const char* trigger) {
  // weights += accumulator / weight_sum — the staleness-weighted mean
  // of everything buffered since the last application.
  tensor::list::add_(weights_, accumulator_,
                     static_cast<float>(1.0 / weight_sum_));
  tensor::list::scale_(accumulator_, 0.0f);
  weight_sum_ = 0.0;
  buffered_ = 0;
  ++applies_;
  telemetry::Registry& registry = telemetry::global_registry();
  registry.counter("fl.async.applied_total", {{"trigger", trigger}}).add(1);
  registry.gauge("fl.async.buffer_occupancy").set(0.0);
}

TensorList AsyncAggregator::weights_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tensor::list::clone(weights_);
}

std::int64_t AsyncAggregator::applies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applies_;
}

std::int64_t AsyncAggregator::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffered_;
}

}  // namespace fedcl::fl
