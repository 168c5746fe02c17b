#include <gtest/gtest.h>


#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/secure_aggregation.h"
#include "fl/server.h"
#include "fl/trainer.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;
using tensor::list::TensorList;

// ---- secure aggregation ----

std::vector<tensor::Shape> shapes() { return {{8}, {3, 2}}; }

TEST(SecureAggregation, MasksCancelInTheSum) {
  SecureAggregator agg({3, 7, 11, 20}, /*session_seed=*/99, shapes());
  TensorList sum_masked = {Tensor::zeros({8}), Tensor::zeros({3, 2})};
  TensorList sum_plain = {Tensor::zeros({8}), Tensor::zeros({3, 2})};
  Rng rng(5);
  for (std::int64_t id : {3, 7, 11, 20}) {
    TensorList update = {Tensor::randn({8}, rng), Tensor::randn({3, 2}, rng)};
    tensor::list::add_(sum_plain, update, 1.0f);
    agg.mask(id, update);
    tensor::list::add_(sum_masked, update, 1.0f);
  }
  EXPECT_TRUE(tensor::list::allclose(sum_masked, sum_plain, 1e-3f, 1e-3f));
}

TEST(SecureAggregation, IndividualMaskedUpdateHidesContent) {
  SecureAggregator agg({1, 2, 3}, 42, shapes());
  TensorList update = {Tensor::zeros({8}), Tensor::zeros({3, 2})};
  agg.mask(1, update);
  // A zero update becomes mask noise with O(sqrt(peers)) magnitude.
  EXPECT_GT(update[0].l2_norm(), 0.5f);
}

TEST(SecureAggregation, PairwiseMasksAreOpposite) {
  SecureAggregator agg({5, 9}, 7, shapes());
  TensorList m5 = agg.mask_for(5);
  TensorList m9 = agg.mask_for(9);
  tensor::list::add_(m5, m9, 1.0f);
  EXPECT_NEAR(tensor::list::l2_norm(m5), 0.0, 1e-4);
}

TEST(SecureAggregation, Validation) {
  EXPECT_THROW(SecureAggregator({1}, 0, shapes()), Error);
  EXPECT_THROW(SecureAggregator({1, 1}, 0, shapes()), Error);
  SecureAggregator agg({1, 2}, 0, shapes());
  TensorList update = {Tensor::zeros({8}), Tensor::zeros({3, 2})};
  EXPECT_THROW(agg.mask(99, update), Error);
  TensorList wrong = {Tensor::zeros({8})};
  EXPECT_THROW(agg.mask(1, wrong), Error);
}

TEST(SecureAggregation, DeterministicPerSession) {
  SecureAggregator a({1, 2, 3}, 1234, shapes());
  SecureAggregator b({1, 2, 3}, 1234, shapes());
  EXPECT_TRUE(tensor::list::allclose(a.mask_for(2), b.mask_for(2)));
  SecureAggregator c({1, 2, 3}, 1235, shapes());
  EXPECT_FALSE(tensor::list::allclose(a.mask_for(2), c.mask_for(2)));
}

// ---- server extensions ----

TEST(Server, MomentumAcceleratesRepeatedDirection) {
  Server plain({Tensor::zeros({1})});
  Server momentum({Tensor::zeros({1})}, {.server_momentum = 0.9});
  for (int t = 0; t < 3; ++t) {
    std::vector<ClientUpdate> u1(1), u2(1);
    u1[0] = {0, t, {Tensor::ones({1})}};
    u2[0] = {0, t, {Tensor::ones({1})}};
    plain.aggregate(std::move(u1));
    momentum.aggregate(std::move(u2));
  }
  // Momentum: 1 + 1.9 + 2.71 = 5.61 > plain 3.
  EXPECT_FLOAT_EQ(plain.weights()[0].at(0), 3.0f);
  EXPECT_NEAR(momentum.weights()[0].at(0), 5.61f, 1e-4);
  EXPECT_THROW(Server({Tensor::zeros({1})}, {.server_momentum = 1.0}),
               Error);
}

TEST(Server, SkipRoundAdvancesRound) {
  Server server({Tensor::ones({1})});
  EXPECT_EQ(server.round(), 0);
  server.skip_round();
  EXPECT_EQ(server.round(), 1);
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 1.0f);  // untouched
}

// ---- trainer extensions ----

fl::FlExperimentConfig tiny_config() {
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 4;
  config.seed = 11;
  return config;
}

TEST(Trainer, ClientDropoutRunsAndReports) {
  fl::FlExperimentConfig config = tiny_config();
  config.client_dropout = 0.5;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.history.size(), 4u);
  EXPECT_GE(result.final_accuracy, 0.0);
  EXPECT_GE(result.dropped_rounds, 0);
}

TEST(Trainer, FullDropoutIsRejectedAtOne) {
  fl::FlExperimentConfig config = tiny_config();
  config.client_dropout = 1.0;
  core::NonPrivatePolicy policy;
  EXPECT_THROW(run_experiment(config, policy), Error);
}

TEST(Trainer, ServerMomentumRuns) {
  fl::FlExperimentConfig config = tiny_config();
  config.server_momentum = 0.9;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_GE(result.final_accuracy, 0.0);
}

}  // namespace
}  // namespace fedcl::fl
