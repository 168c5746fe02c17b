#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/compression.h"
#include "fl/dssgd.h"
#include "fl/protocol.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "testing/seal_reference.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;

// ---- protocol ----

TEST(Protocol, SerializeRoundTrip) {
  ClientUpdate u;
  u.client_id = 42;
  u.round = 7;
  Rng rng(1);
  u.delta = {Tensor::randn({3, 4}, rng), Tensor::randn({5}, rng)};
  Result<ClientUpdate> result = deserialize_update(serialize_update(u));
  ASSERT_TRUE(result.ok());
  ClientUpdate back = result.take();
  EXPECT_EQ(back.client_id, 42);
  EXPECT_EQ(back.round, 7);
  ASSERT_EQ(back.delta.size(), 2u);
  EXPECT_TRUE(tensor::list::allclose(back.delta, u.delta));
}

TEST(Protocol, DeserializeDecodesOverMatchingBuffers) {
  ClientUpdate u;
  u.client_id = 9;
  u.round = 2;
  Rng rng(8);
  u.delta = {Tensor::randn({3, 4}, rng), Tensor::randn({5}, rng)};
  const std::vector<std::uint8_t> bytes = serialize_update(u);
  // A matching shape is decoded in place; a mismatched one (and a
  // missing one) gets fresh storage. Values come off the wire either way.
  ClientUpdate reuse;
  reuse.delta = {Tensor::zeros({3, 4}), Tensor::zeros({6})};
  const float* same = reuse.delta[0].data();
  const float* other = reuse.delta[1].data();
  Result<ClientUpdate> decoded = deserialize_update(bytes, std::move(reuse));
  ASSERT_TRUE(decoded.ok());
  const ClientUpdate back = decoded.take();
  EXPECT_EQ(back.client_id, 9);
  EXPECT_EQ(back.round, 2);
  ASSERT_EQ(back.delta.size(), 2u);
  EXPECT_EQ(back.delta[0].data(), same);
  EXPECT_NE(back.delta[1].data(), other);
  EXPECT_EQ(serialize_update(back), bytes);
}

TEST(Protocol, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> junk(10, 0xAB);
  EXPECT_FALSE(deserialize_update(junk).ok());
  ClientUpdate u;
  u.delta = {Tensor::ones({4})};
  auto bytes = serialize_update(u);
  bytes.pop_back();
  Result<ClientUpdate> truncated = deserialize_update(bytes);
  EXPECT_FALSE(truncated.ok());
  EXPECT_FALSE(truncated.error().empty());
}

TEST(SecureChannel, SealOpenRoundTrip) {
  SecureChannel channel(0xDEADBEEF);
  std::vector<std::uint8_t> msg = {1, 2, 3, 4, 5, 200, 0, 9};
  auto sealed = channel.seal(msg);
  EXPECT_NE(sealed, msg);  // actually transformed
  auto opened = channel.open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST(SecureChannel, DetectsTampering) {
  SecureChannel channel(0x1234);
  auto sealed = channel.seal({9, 9, 9, 9});
  sealed[1] ^= 0x01;
  EXPECT_FALSE(channel.open(sealed).ok());
}

TEST(SecureChannel, WrongKeyFails) {
  SecureChannel alice(1), eve(2);
  Rng rng(31);
  for (std::size_t n = 0; n <= 130; ++n) {
    std::vector<std::uint8_t> plain(n);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    EXPECT_FALSE(eve.open(alice.seal(plain)).ok()) << "length " << n;
  }
}

TEST(SecureChannel, EndToEndWithUpdates) {
  ClientUpdate u;
  u.client_id = 3;
  u.round = 0;
  u.delta = {Tensor::full({6}, 1.5f)};
  SecureChannel channel(77);
  ClientUpdate received =
      deserialize_update(
          channel.open(channel.seal(serialize_update(u))).take())
          .take();
  EXPECT_TRUE(tensor::list::allclose(received.delta, u.delta));
}

TEST(SecureChannel, SealKnownAnswerBytes) {
  // Sealed bytes are part of the wire contract (PROTOCOL.md §4); these
  // pin them across rewrites, including every partial tail word of the
  // keystream and of the tag. Protocol version 1 (FNV-1a tag) sealed
  // the same body bytes under the same keystream; only the 8 trailing
  // tag bytes differ from its recorded vectors.
  const SecureChannel channel(0x0123456789ABCDEFull);
  struct Vector {
    std::size_t n;
    std::string hex;
    std::string version1_hex;
  };
  const Vector vectors[] = {
      {0, "de56d622faed2a07", "b6f383b07fce811e"},
      {1, "9869c234adc1f5710b", "98fa66351d1eb5b611"},
      {7, "98e0f44e04969ac343dc7153d9fb35", "98e0f44e04969a7c09aaec1f70456c"},
      {8, "98e0f44e04969adb076428d84021d7d1",
       "98e0f44e04969adb7bdce778a3f21e19"},
      {9, "98e0f44e04969adb8d81a133fa76fc43ba",
       "98e0f44e04969adb8dcebf0313a1b6fed1"},
      {37,
       "98e0f44e04969adb8d94103be95b8119b7e7e386dc0dedfc8b285ee6fe702187"
       "d99cde3073345ea7efed75eb4b",
       "98e0f44e04969adb8d94103be95b8119b7e7e386dc0dedfc8b285ee6fe702187"
       "d99cde30736d78eeb0f6d38d9b"},
  };
  for (const Vector& v : vectors) {
    std::vector<std::uint8_t> plain(v.n);
    for (std::size_t i = 0; i < v.n; ++i)
      plain[i] = static_cast<std::uint8_t>(i * 37 + 11);
    std::string got;
    for (std::uint8_t b : channel.seal(plain)) {
      static const char kHex[] = "0123456789abcdef";
      got += kHex[b >> 4];
      got += kHex[b & 15];
    }
    EXPECT_EQ(got, v.hex) << "plaintext length " << v.n;
    EXPECT_EQ(got.substr(0, 2 * v.n), v.version1_hex.substr(0, 2 * v.n))
        << "keystream changed at plaintext length " << v.n;
  }
}

TEST(SecureChannel, SealMatchesScalarReferenceAtEveryLength) {
  // Every length 0-130 covers the 64-byte blocks, each tail word count
  // and each tag offset within a keystream word; open() must round-trip
  // each reference envelope.
  for (const std::uint64_t key :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x0123456789ABCDEF},
        ~std::uint64_t{0}}) {
    const SecureChannel channel(key);
    Rng rng(key ^ 0x5EA1);
    for (std::size_t n = 0; n <= 130; ++n) {
      std::vector<std::uint8_t> plain(n);
      for (auto& b : plain) b = static_cast<std::uint8_t>(rng.uniform_int(256));
      const std::vector<std::uint8_t> expected =
          testing::reference_seal(key, plain);
      EXPECT_EQ(channel.seal(plain), expected)
          << "key " << key << " length " << n;
      Result<std::vector<std::uint8_t>> opened = channel.open(expected);
      ASSERT_TRUE(opened.ok()) << "key " << key << " length " << n;
      EXPECT_EQ(opened.value(), plain) << "key " << key << " length " << n;
    }
  }
}

TEST(SecureChannel, SealAppendsTagInPlace) {
  // serialize_update reserves room for the tag, so sealing a fresh
  // serialization encrypts and extends the same buffer: no copy.
  ClientUpdate u;
  u.client_id = 4;
  u.round = 1;
  Rng rng(2);
  u.delta = {Tensor::randn({37, 5}, rng), Tensor::randn({5}, rng)};
  std::vector<std::uint8_t> plain = serialize_update(u);
  const std::uint8_t* buffer = plain.data();
  const std::vector<std::uint8_t> sealed =
      SecureChannel(5).seal(std::move(plain));
  EXPECT_EQ(sealed.data(), buffer);
  EXPECT_EQ(sealed.capacity(), sealed.size());
}

TEST(Protocol, SerializeTensorListReservesExactSize) {
  EXPECT_EQ(serialize_tensor_list({}).capacity(),
            serialize_tensor_list({}).size());
  for (data::BenchmarkId id : data::all_benchmarks()) {
    Rng rng(5);
    auto model = nn::build_model(data::benchmark_config(id).model, rng);
    const std::vector<std::uint8_t> blob =
        serialize_tensor_list(model->weights());
    EXPECT_EQ(blob.capacity(), blob.size()) << data::benchmark_name(id);
  }
}

// ---- compression ----

TEST(Compression, PrunesExactFraction) {
  TensorList u = {Tensor::from_vector({4}, {4, -1, 3, -2}),
                  Tensor::from_vector({4}, {0.5f, -5, 1.5f, 2.5f})};
  const std::int64_t kept = prune_smallest(u, 0.5);
  EXPECT_EQ(kept, 4);
  EXPECT_NEAR(sparsity(u), 0.5, 1e-9);
  // Largest magnitudes survive: 4, 3(|3|>2.5? values: 4,3,5,2.5 kept)
  EXPECT_FLOAT_EQ(u[0].at(0), 4.0f);
  EXPECT_FLOAT_EQ(u[0].at(2), 3.0f);
  EXPECT_FLOAT_EQ(u[1].at(1), -5.0f);
  EXPECT_FLOAT_EQ(u[1].at(3), 2.5f);
  EXPECT_FLOAT_EQ(u[0].at(1), 0.0f);
  EXPECT_FLOAT_EQ(u[1].at(0), 0.0f);
}

TEST(Compression, ZeroAndFullRatio) {
  TensorList u = {Tensor::ones({8})};
  EXPECT_EQ(prune_smallest(u, 0.0), 8);
  EXPECT_NEAR(sparsity(u), 0.0, 1e-12);
  prune_smallest(u, 1.0);
  EXPECT_NEAR(sparsity(u), 1.0, 1e-12);
  EXPECT_THROW(prune_smallest(u, 1.5), Error);
}

TEST(Compression, TiesResolvedExactly) {
  // All-equal magnitudes: ties must still hit the exact prune count.
  TensorList u = {Tensor::ones({10})};
  prune_smallest(u, 0.3);
  EXPECT_NEAR(sparsity(u), 0.3, 1e-9);
}

// ---- client ----

struct ClientFixture {
  std::shared_ptr<data::Dataset> dataset;
  std::shared_ptr<nn::Sequential> model;
  TensorList weights;
  LocalTrainConfig local;

  ClientFixture() {
    Rng rng(3);
    data::SyntheticSpec spec{.example_shape = {6},
                             .classes = 2,
                             .count = 20,
                             .clamp01 = false};
    Rng drng = rng.fork("d");
    dataset =
        std::make_shared<data::Dataset>(data::generate_synthetic(spec, drng));
    nn::ModelSpec ms{.kind = nn::ModelSpec::Kind::kMlp,
                     .in_features = 6,
                     .classes = 2,
                     .hidden1 = 4,
                     .hidden2 = 4};
    Rng mrng = rng.fork("m");
    model = nn::build_model(ms, mrng);
    weights = model->weights();
    local = {.local_iterations = 1, .batch_size = 4, .learning_rate = 0.5};
  }

  data::ClientData client_data() {
    return data::ClientData(dataset, {0, 1, 2, 3, 4, 5, 6, 7});
  }
};

TEST(Client, NonPrivateUpdateEqualsMinusEtaGrad) {
  // With L=1 the shared update must be exactly -eta * batch gradient.
  ClientFixture fx;
  Client client(0, fx.client_data(), fx.local);
  core::NonPrivatePolicy policy;
  LeakageProbe probe;
  Rng rng(4);
  ClientRoundOutcome outcome =
      client.run_round(*fx.model, fx.weights, policy, 0, rng, &probe);
  ASSERT_TRUE(probe.captured);
  TensorList expected = tensor::list::clone(probe.first_batch_gradient);
  tensor::list::scale_(expected, -0.5f);
  EXPECT_TRUE(tensor::list::allclose(outcome.update.delta, expected, 1e-5f,
                                     1e-4f));
  EXPECT_EQ(outcome.update.client_id, 0);
  EXPECT_EQ(outcome.update.round, 0);
  EXPECT_GT(outcome.first_iteration_grad_norm, 0.0);
  EXPECT_GT(outcome.local_train_ms, 0.0);
}

TEST(Client, PerExamplePathMatchesBatchWhenNoiseless) {
  // Fed-CDP with sigma=0 and a huge clipping bound must reproduce the
  // plain batched gradient: mean of per-example grads == batch grad.
  ClientFixture fx;
  Client client(1, fx.client_data(), fx.local);
  core::FedCdpPolicy policy(/*clipping_bound=*/1e9, /*noise_scale=*/0.0);
  core::NonPrivatePolicy baseline;
  Rng rng_a(5), rng_b(5);
  ClientRoundOutcome a =
      client.run_round(*fx.model, fx.weights, policy, 0, rng_a);
  ClientRoundOutcome b =
      client.run_round(*fx.model, fx.weights, baseline, 0, rng_b);
  EXPECT_TRUE(tensor::list::allclose(a.update.delta, b.update.delta, 1e-4f,
                                     1e-3f));
}

TEST(Client, ProbeCapturesSanitizedType2ForFedCdp) {
  ClientFixture fx;
  Client client(2, fx.client_data(), fx.local);
  core::FedCdpPolicy policy(0.001, 0.0);  // crush gradients to norm 1e-3
  LeakageProbe probe;
  Rng rng(6);
  client.run_round(*fx.model, fx.weights, policy, 0, rng, &probe);
  ASSERT_TRUE(probe.captured);
  // Observed type-2 gradient is post-clipping: total norm <= sqrt(M)*C.
  const double norm = tensor::list::l2_norm(probe.type2_observed);
  EXPECT_LE(norm, 0.001 * std::sqrt(3.0) + 1e-6);
  EXPECT_EQ(probe.type2_example.size(), 1);
}

TEST(Client, ProbeCapturesRawType2ForFedSdp) {
  ClientFixture fx;
  Client client(3, fx.client_data(), fx.local);
  core::FedSdpPolicy policy(0.001, 10.0);  // aggressive on the update
  LeakageProbe probe;
  Rng rng(7);
  client.run_round(*fx.model, fx.weights, policy, 0, rng, &probe);
  // Type-2 observation bypasses Fed-SDP entirely: it is the true
  // gradient, not a crushed one.
  EXPECT_GT(tensor::list::l2_norm(probe.type2_observed), 0.01);
}

TEST(Client, MultipleLocalIterationsMoveWeights) {
  ClientFixture fx;
  fx.local.local_iterations = 5;
  Client client(4, fx.client_data(), fx.local);
  core::NonPrivatePolicy policy;
  Rng rng(8);
  ClientRoundOutcome outcome =
      client.run_round(*fx.model, fx.weights, policy, 0, rng);
  EXPECT_GT(tensor::list::l2_norm(outcome.update.delta), 0.0);
  // Global weights unchanged (client works on a copy).
  EXPECT_TRUE(tensor::list::allclose(fx.weights, fx.weights));
}

TEST(Client, ValidatesConfig) {
  ClientFixture fx;
  LocalTrainConfig bad = fx.local;
  bad.batch_size = 0;
  EXPECT_THROW(Client(0, fx.client_data(), bad), Error);
  bad = fx.local;
  bad.learning_rate = 0.0;
  EXPECT_THROW(Client(0, fx.client_data(), bad), Error);
  EXPECT_THROW(Client(-1, fx.client_data(), fx.local), Error);
}

// ---- server ----

TEST(Server, SampleClientsDistinctAndInRange) {
  Server server({Tensor::ones({2})});
  Rng rng(9);
  auto chosen = server.sample_clients(100, 10, rng);
  EXPECT_EQ(chosen.size(), 10u);
  std::set<std::size_t> uniq(chosen.begin(), chosen.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (auto c : chosen) EXPECT_LT(c, 100u);
  EXPECT_THROW(server.sample_clients(5, 6, rng), Error);
}

TEST(Server, FedSgdAggregation) {
  Server server({Tensor::zeros({2})});
  std::vector<ClientUpdate> updates(2);
  updates[0] = {0, 0, {Tensor::from_vector({2}, {2, 4})}};
  updates[1] = {1, 0, {Tensor::from_vector({2}, {4, 0})}};
  server.aggregate(std::move(updates));
  // W += (1/2)(u0 + u1)
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 3.0f);
  EXPECT_FLOAT_EQ(server.weights()[0].at(1), 2.0f);
  EXPECT_EQ(server.round(), 1);
}

TEST(Server, ScreensOutStaleUpdates) {
  // A wrong-round update is screened out per client, not a round abort:
  // the model stays untouched and the miss is reported.
  Server server({Tensor::zeros({1})});
  std::vector<ClientUpdate> updates(1);
  updates[0] = {0, /*round=*/5, {Tensor::ones({1})}};
  ScreeningReport report =
      server.aggregate(std::move(updates)).screening;
  EXPECT_EQ(report.accepted, 0);
  EXPECT_EQ(report.rejected_stale, 1);
  EXPECT_FLOAT_EQ(server.weights()[0].at(0), 0.0f);
  EXPECT_EQ(server.round(), 0);  // quorum missed: round not advanced
}

// ---- DSSGD ----

TEST(Dssgd, SharesOnlyTopFraction) {
  DssgdPolicy policy(0.25);
  EXPECT_EQ(policy.name(), "DSSGD");
  Rng rng(13);
  TensorList u = {Tensor::from_vector({8}, {8, 1, 7, 2, 6, 3, 5, 4})};
  policy.sanitize_client_update(u, {{0}}, 0, rng);
  EXPECT_NEAR(sparsity(u), 0.75, 1e-9);
  EXPECT_FLOAT_EQ(u[0].at(0), 8.0f);
  EXPECT_FLOAT_EQ(u[0].at(2), 7.0f);
  EXPECT_THROW(DssgdPolicy(0.0), Error);
  EXPECT_THROW(DssgdPolicy(1.5), Error);
}

// ---- trainer ----

TEST(Trainer, EndToEndSmoke) {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 3;
  config.eval_every = 1;
  config.seed = 99;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_EQ(result.history.size(), 3u);
  for (const auto& r : result.history) {
    EXPECT_FALSE(std::isnan(r.accuracy));  // eval_every=1: all evaluated
    EXPECT_GT(r.mean_client_ms, 0.0);
  }
  EXPECT_GT(result.ms_per_local_iteration, 0.0);
  EXPECT_EQ(result.privacy_setup.rounds, 3);
  EXPECT_EQ(result.privacy_setup.clients_per_round, 2);
  EXPECT_GE(result.final_accuracy, 0.0);
  EXPECT_LE(result.final_accuracy, 1.0);
}

TEST(Trainer, DeterministicForSeed) {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 3;
  config.clients_per_round = 2;
  config.rounds = 2;
  config.seed = 7;
  config.noise_scale = 0.5;
  core::FedCdpPolicy policy(4.0, 0.5);
  FlRunResult a = run_experiment(config, policy);
  FlRunResult b = run_experiment(config, policy);
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(Trainer, CompressionRunsAndAccuracySurvives) {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 2;
  config.prune_ratio = 0.3;
  core::NonPrivatePolicy policy;
  FlRunResult result = run_experiment(config, policy);
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(Trainer, ValidatesConfig) {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 2;
  config.clients_per_round = 5;  // Kt > K
  core::NonPrivatePolicy policy;
  EXPECT_THROW(run_experiment(config, policy), Error);
}

}  // namespace
}  // namespace fedcl::fl
