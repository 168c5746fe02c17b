// Federated client: local SGD training under a privacy policy, plus
// the leakage probe that models what an adversary observes at the
// client-side interception points.
#pragma once

#include <cstdint>

#include "core/policy.h"
#include "data/dataset.h"
#include "fl/protocol.h"
#include "nn/layer.h"

namespace fedcl::fl {

struct LocalTrainConfig {
  std::int64_t local_iterations = 1;  // L
  std::int64_t batch_size = 1;        // B
  double learning_rate = 0.1;         // eta at round 0
  // Multiplicative per-round decay of eta (1 = constant). The paper
  // points at systematically decreasing learning rates [36] as the
  // companion of decaying gradient norms.
  double lr_decay_per_round = 1.0;

  double learning_rate_at(std::int64_t round) const;
};

// What a gradient-leakage adversary can read at a client during one
// round (filled when requested). All tensors are the values an
// adversary would actually see — i.e. after any per-example
// sanitization that the policy performs (type-2), and the true private
// data for scoring reconstructions.
struct LeakageProbe {
  // Private ground truth of the first local iteration.
  data::Batch first_batch;
  // Type-2 observation: the per-example gradient of example 0 of the
  // first iteration, as visible during local training (post-policy for
  // Fed-CDP, raw for non-private / Fed-SDP / DSSGD).
  TensorList type2_observed;
  // The first example itself (reconstruction target for type-2).
  data::Batch type2_example;
  // True (pre-policy) batch-averaged gradient of the first iteration —
  // the type-0/1 observation when L == 1, up to the -eta scaling.
  TensorList first_batch_gradient;
  bool captured = false;
};

// Per-round result: the (possibly sanitized) update that is shared,
// plus bookkeeping the trainer aggregates into metrics.
struct ClientRoundOutcome {
  ClientUpdate update;
  double first_iteration_grad_norm = 0.0;  // pre-policy batch grad L2
  double local_train_ms = 0.0;             // wall time of local training
};

class Client {
 public:
  Client(std::int64_t id, data::ClientData data, LocalTrainConfig config);

  const data::ClientData& data() const { return data_; }
  const LocalTrainConfig& config() const { return config_; }

  // Runs one round of local training starting from global_weights on
  // the provided scratch model (its weights are overwritten). The
  // model's architecture must match the weights. `rng` drives batch
  // sampling and DP noise; `probe`, when non-null, captures the
  // adversary-visible gradients of the first iteration.
  ClientRoundOutcome run_round(nn::Sequential& model,
                               const TensorList& global_weights,
                               const core::PrivacyPolicy& policy,
                               std::int64_t round, Rng& rng,
                               LeakageProbe* probe = nullptr) const;

 private:
  std::int64_t id_;
  data::ClientData data_;
  LocalTrainConfig config_;
};

// Adapts a model's layer groups to the index-list form the dp module
// uses for per-layer clipping.
dp::ParamGroups to_param_groups(const std::vector<nn::LayerGroup>& groups);

}  // namespace fedcl::fl
