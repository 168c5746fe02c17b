#include "attack/leakage_eval.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/compression.h"
#include "nn/model_zoo.h"

namespace fedcl::attack {

namespace {

// Per-client reconstruction quality into the global registry: the RMSE
// series is the telemetry face of the paper's attack-success metric
// (low RMSE = high leakage).
void record_attack(const char* type, const std::string& policy_name,
                   std::int64_t client, const AttackResult& result) {
  auto& registry = telemetry::global_registry();
  const telemetry::Labels labels{{"policy", policy_name}, {"type", type}};
  registry
      .histogram("attack.reconstruction_rmse", telemetry::norm_buckets(),
                 labels)
      .observe(result.reconstruction_distance);
  registry.record_point("attack.reconstruction_rmse", client,
                        result.reconstruction_distance, labels);
  registry.counter("attack.attempts_total", labels).add(1);
  if (result.success) {
    registry.counter("attack.successes_total", labels).add(1);
  }
}

void finalize(LeakageOutcome& outcome) {
  FEDCL_CHECK(!outcome.per_client.empty());
  double dist = 0.0, iters = 0.0;
  std::size_t successes = 0;
  for (const AttackResult& r : outcome.per_client) {
    dist += r.reconstruction_distance;
    iters += r.iterations;
    if (r.success) ++successes;
  }
  const double n = static_cast<double>(outcome.per_client.size());
  outcome.mean_distance = dist / n;
  outcome.mean_iterations = iters / n;
  outcome.success_rate = static_cast<double>(successes) / n;
  outcome.any_success = successes > 0;
}

}  // namespace

LeakageReport evaluate_leakage(const LeakageExperimentConfig& config,
                               const core::PrivacyPolicy& policy) {
  FEDCL_CHECK_GT(config.clients, 0);
  Rng root(config.seed);
  Rng data_rng = root.fork("train-data");
  Rng part_rng = root.fork("partition");
  Rng model_rng = root.fork("model");

  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(config.bench.train_spec, data_rng));
  data::PartitionSpec part = config.bench.partition;
  part.num_clients = config.clients;
  std::vector<data::ClientData> shards =
      data::partition(train, part, part_rng);

  const TensorList global_weights =
      nn::build_model(config.bench.model, model_rng)->weights();

  // The paper attacks gradients from the first local iteration, so the
  // observed round update is produced with L=1 and maps back to the
  // batch gradient through the -1/eta scaling the adversary knows.
  fl::LocalTrainConfig local{.local_iterations = 1,
                             .batch_size = config.bench.batch_size,
                             .learning_rate = config.bench.learning_rate};

  // One client per pool index. Each index trains and attacks on a model
  // of its own, so indices share only read-only inputs, and the kernels
  // inside one run inline on its thread: the attacks are the same
  // computations as in a serial loop, whatever the pool size.
  const auto n = static_cast<std::size_t>(config.clients);
  LeakageReport report;
  report.type01.per_client.resize(n);
  report.type2.per_client.resize(n);
  compute_pool().parallel_for(n, [&](std::size_t i) {
    const auto ci = static_cast<std::int64_t>(i);
    Rng scratch_rng = root.fork("scratch-model", i);
    std::shared_ptr<nn::Sequential> model =
        nn::build_model(config.bench.model, scratch_rng);
    fl::Client client(ci, shards[i], local);
    fl::LeakageProbe probe;
    Rng crng = root.fork("round", i);
    fl::ClientRoundOutcome outcome = client.run_round(
        *model, global_weights, policy, /*round=*/0, crng, &probe);
    FEDCL_CHECK(probe.captured);
    if (config.prune_ratio > 0.0) {
      fl::prune_smallest(outcome.update.delta, config.prune_ratio);
    }

    // Restore the intercepted global model for the attacker.
    model->set_weights(global_weights);

    AttackConfig attack_cfg = config.attack;
    attack_cfg.seed = config.attack.seed + i;
    GradientReconstructionAttack attacker(model, attack_cfg);

    // ---- type-0/1: shared round update -> batched gradient ----
    TensorList observed01 = tensor::list::clone(outcome.update.delta);
    tensor::list::scale_(
        observed01,
        static_cast<float>(-1.0 / config.bench.learning_rate));
    report.type01.per_client[i] =
        attacker.run(observed01, probe.first_batch.x.shape(),
                     probe.first_batch.labels, probe.first_batch.x);

    // ---- type-2: per-example gradient during local training ----
    report.type2.per_client[i] = attacker.run(
        probe.type2_observed, probe.type2_example.x.shape(),
        probe.type2_example.labels, probe.type2_example.x);
  });

  // Telemetry in client order, as a serial loop records it.
  for (std::size_t i = 0; i < n; ++i) {
    const auto ci = static_cast<std::int64_t>(i);
    record_attack("type01", policy.name(), ci, report.type01.per_client[i]);
    record_attack("type2", policy.name(), ci, report.type2.per_client[i]);
  }
  finalize(report.type01);
  finalize(report.type2);
  return report;
}

std::string ascii_image(const tensor::Tensor& image) {
  tensor::Shape s = image.shape();
  if (s.size() == 4) {
    FEDCL_CHECK_EQ(s[0], 1);
    s.erase(s.begin());
  }
  FEDCL_CHECK_EQ(s.size(), 3u) << "expected [H,W,C]";
  const std::int64_t h = s[0], w = s[1], c = s[2];
  static const char kRamp[] = " .:-=+*#%@";
  const float* p = image.data();
  std::ostringstream os;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      float v = 0.0f;
      for (std::int64_t ch = 0; ch < c; ++ch) v += p[(y * w + x) * c + ch];
      v /= static_cast<float>(c);
      const int level = std::clamp(static_cast<int>(v * 10.0f), 0, 9);
      os << kRamp[level] << kRamp[level];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace fedcl::attack
