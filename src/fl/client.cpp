#include "fl/client.h"

#include <chrono>
#include <cmath>
#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "dp/fused_sanitize.h"
#include "nn/grad_utils.h"
#include "nn/optimizer.h"
#include "nn/per_example.h"

namespace fedcl::fl {

double LocalTrainConfig::learning_rate_at(std::int64_t round) const {
  FEDCL_CHECK_GE(round, 0);
  return learning_rate * std::pow(lr_decay_per_round,
                                  static_cast<double>(round));
}

dp::ParamGroups to_param_groups(const std::vector<nn::LayerGroup>& groups) {
  dp::ParamGroups out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.param_indices);
  return out;
}

Client::Client(std::int64_t id, data::ClientData data, LocalTrainConfig config)
    : id_(id), data_(std::move(data)), config_(config) {
  FEDCL_CHECK_GE(id, 0);
  FEDCL_CHECK_GT(config.local_iterations, 0);
  FEDCL_CHECK_GT(config.batch_size, 0);
  FEDCL_CHECK_GT(config.learning_rate, 0.0);
  FEDCL_CHECK(config.lr_decay_per_round > 0.0 &&
              config.lr_decay_per_round <= 1.0)
      << "lr decay " << config.lr_decay_per_round;
}

ClientRoundOutcome Client::run_round(nn::Sequential& model,
                                     const TensorList& global_weights,
                                     const core::PrivacyPolicy& policy,
                                     std::int64_t round, Rng& rng,
                                     LeakageProbe* probe) const {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  model.set_weights(global_weights);
  const dp::ParamGroups groups = to_param_groups(model.layer_groups());
  nn::SgdOptimizer optimizer(config_.learning_rate_at(round));

  ClientRoundOutcome outcome;

  // Which gradient engine this round runs on: the batched per-example
  // engine, or the plain batch backward for policies that never look
  // at per-example grads.
  telemetry::global_registry()
      .counter("fl.client.rounds_total",
               {{"engine", policy.needs_per_example_gradients() ? "batched"
                                                                : "batch"}})
      .add(1);

  for (std::int64_t l = 0; l < config_.local_iterations; ++l) {
    data::Batch batch = data_.sample_batch(rng, config_.batch_size);
    const bool probing = probe != nullptr && l == 0;

    TensorList step_grad;
    if (policy.needs_per_example_gradients()) {
      // Algorithm 2 lines 6-14: one batched forward/backward yields
      // every example's gradient, then per-layer clip + the examples'
      // noise + the 1/B batch average in one pass. The noise of the
      // examples a probe does not observe is one draw per coordinate
      // (dp/fused_sanitize.h), so a probed iteration's step has the
      // distribution of an unprobed one but not its bits.
      const tensor::list::PerExampleGrads grads =
          nn::compute_per_example_gradients(model, batch.x, batch.labels);
      if (l == 0) {
        // The pre-policy batch gradient: the same pass at scale 1 with
        // no noise — no second full backward for the probe or the norm
        // metric.
        TensorList batch_grad = dp::batch_mean(grads);
        outcome.first_iteration_grad_norm =
            tensor::list::l2_norm(batch_grad);
        if (probing) probe->first_batch_gradient = std::move(batch_grad);
      }
      dp::SanitizedBatch sanitized;
      {
        telemetry::SpanTimer sanitize_span(
            telemetry::global_registry(), "dp.sanitize",
            {{"stage", "per_example"}}, round);
        sanitized = policy.sanitize_per_example_batch(
            grads, groups, round, rng,
            probing ? std::optional<std::int64_t>(0) : std::nullopt);
      }
      if (probing) {
        probe->type2_observed = std::move(sanitized.observed);
        data::copy_example(batch, 0, probe->type2_example);
      }
      step_grad = std::move(sanitized.mean);
    } else {
      step_grad = nn::compute_gradients(model, batch.x, batch.labels);
      if (probing) {
        // Type-2 adversary reads the raw per-example gradient during
        // training; non-per-example policies leave it unprotected.
        data::copy_example(batch, 0, probe->type2_example);
        probe->type2_observed = nn::compute_gradients(
            model, probe->type2_example.x, probe->type2_example.labels);
      }
      if (l == 0) {
        outcome.first_iteration_grad_norm = tensor::list::l2_norm(step_grad);
      }
    }

    if (probing) {
      probe->first_batch = batch;
      if (!policy.needs_per_example_gradients()) {
        probe->first_batch_gradient = tensor::list::clone(step_grad);
      }
      probe->captured = true;
    }

    // Line 15: local gradient descent with the sanitized batch gradient.
    optimizer.step(model, step_grad);
  }

  // Line 17: Delta W_i(t) = W_i(t)_L - W(t).
  TensorList delta = model.weights();
  tensor::list::add_(delta, global_weights, -1.0f);
  {
    telemetry::SpanTimer sanitize_span(
        telemetry::global_registry(), "dp.sanitize", {{"stage", "update"}},
        round);
    policy.sanitize_client_update(delta, groups, round, rng);
  }

  // Pre-sanitization first-iteration batch gradient norm — the
  // quantity the paper's clipping bound C is calibrated against.
  telemetry::global_registry()
      .histogram("fl.client.grad_norm", telemetry::norm_buckets(),
                 {{"policy", policy.name()}})
      .observe(outcome.first_iteration_grad_norm);

  outcome.update.client_id = id_;
  outcome.update.round = round;
  outcome.update.delta = std::move(delta);
  outcome.local_train_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Real (not virtual) local-training latency: the empirical companion
  // of the retry layer's soft-deadline policy.
  telemetry::global_registry()
      .histogram("fl.client.local_train_ms",
                 {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 1000})
      .observe(outcome.local_train_ms);
  return outcome;
}

}  // namespace fedcl::fl
