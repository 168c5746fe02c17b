#include "fl/server.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "tensor/shape.h"

namespace fedcl::fl {

Server::Server(TensorList initial_weights, AggregationOptions options)
    : weights_(std::move(initial_weights)),
      shapes_(tensor::list::shapes_of(weights_)),
      options_(options),
      screener_(options.screening) {
  FEDCL_CHECK(!weights_.empty()) << "server needs a model";
  FEDCL_CHECK(options_.server_momentum >= 0.0 &&
              options_.server_momentum < 1.0)
      << "server momentum " << options_.server_momentum;
  FEDCL_CHECK_GE(options_.min_reporting, 1);
  FEDCL_CHECK_GE(options_.reduced_min_reporting, 0);
  FEDCL_CHECK_LE(options_.reduced_min_reporting, options_.min_reporting)
      << "reduced quorum above the full quorum";
  FEDCL_CHECK_GE(options_.max_staleness, 0);
  FEDCL_CHECK_GE(options_.staleness_alpha, 0.0);
}

std::vector<std::size_t> Server::sample_clients(std::size_t total_clients,
                                                std::size_t clients_per_round,
                                                Rng& rng) const {
  FEDCL_CHECK_GT(clients_per_round, 0u);
  FEDCL_CHECK_LE(clients_per_round, total_clients);
  return rng.sample_without_replacement(total_clients, clients_per_round);
}

ScreenVerdict Server::screen_and_push(ClientUpdate update, std::int64_t now,
                                      StreamingReducer& reducer,
                                      ScreeningReport& report) const {
  const ScreenVerdict verdict = screener_.screen_one(
      update, shapes_, now, options_.max_staleness, report);
  if (!verdict.accepted()) return verdict;
  const double weight =
      verdict.staleness == 0
          ? 1.0
          : std::pow(1.0 + static_cast<double>(verdict.staleness),
                     -options_.staleness_alpha);
  reducer.push(std::move(update.delta), weight);
  return verdict;
}

AggregateOutcome Server::aggregate(std::vector<ClientUpdate> updates) {
  StreamingReducer reducer;
  ScreeningReport report;
  for (ClientUpdate& update : updates) {
    screen_and_push(std::move(update), round_, reducer, report);
  }
  AggregateOutcome outcome = quorum(report.accepted);
  outcome.screening = report;
  // Quorum missed: leave the model and round untouched; the caller
  // records the skip.
  if (outcome.tier == DegradationTier::kSkipRound) return outcome;
  apply_mean(finalize_mean(reducer.finalize()), report.accepted);
  outcome.applied = true;
  return outcome;
}

AggregateOutcome Server::quorum(std::int64_t accepted) const {
  AggregateOutcome outcome;
  if (accepted >= options_.min_reporting) {
    outcome.tier = DegradationTier::kFullQuorum;
  } else if (options_.reduced_min_reporting > 0 &&
             accepted >= options_.reduced_min_reporting) {
    // Degraded tier: apply anyway and surface how much wider the
    // per-update noise is than the full quorum would have left it.
    outcome.tier = DegradationTier::kReducedQuorum;
    outcome.noise_widening = static_cast<double>(options_.min_reporting) /
                             static_cast<double>(accepted);
  }
  return outcome;
}

void Server::apply_mean(const TensorList& mean_delta, std::int64_t accepted) {
  if (options_.server_momentum > 0.0) {
    if (velocity_.empty()) velocity_ = tensor::list::zeros_like(weights_);
    tensor::list::scale_(velocity_,
                         static_cast<float>(options_.server_momentum));
    tensor::list::add_(velocity_, mean_delta, 1.0f);
    tensor::list::add_(weights_, velocity_, 1.0f);
  } else {
    tensor::list::add_(weights_, mean_delta, 1.0f);
  }
  ++round_;
  telemetry::global_registry()
      .counter("fl.server.updates_accepted_total")
      .add(accepted);
}

void Server::skip_round() {
  ++round_;
  telemetry::global_registry().counter("fl.server.rounds_skipped_total").add(1);
}

}  // namespace fedcl::fl
