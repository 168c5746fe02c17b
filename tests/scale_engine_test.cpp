// The virtualized scale path: pinned-order reductions (streaming ==
// buffered == two-tier, bitwise), the sync round engine's fan-out /
// schedule invariance, one sync fold whatever streaming_aggregation
// says, and the on-demand client provider's determinism across calls
// and threads. These are the contracts that let one box
// simulate a million-client federation in bounded memory without
// giving up bitwise reproducibility (DESIGN.md §7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/protocol.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl/tree_aggregation.h"
#include "fl/virtual_client.h"

namespace fedcl::fl {
namespace {

using tensor::Tensor;

// ---- pinned-order reductions ----

std::vector<TensorList> make_deltas(std::int64_t n, Rng& rng) {
  std::vector<TensorList> deltas;
  for (std::int64_t i = 0; i < n; ++i) {
    TensorList d;
    d.push_back(Tensor::randn({3, 4}, rng));
    d.push_back(Tensor::randn({5}, rng));
    deltas.push_back(std::move(d));
  }
  return deltas;
}

void expect_bitwise_equal(const ReduceNode& a, const ReduceNode& b) {
  ASSERT_EQ(a.leaves, b.leaves);
  // double == double: the weights fold in the same pinned order, so
  // equality here is exact, not approximate.
  ASSERT_EQ(a.weight, b.weight);
  ASSERT_EQ(serialize_tensor_list(a.sum), serialize_tensor_list(b.sum));
}

// The sync fold's shape (run_sync): an edge reducer per consecutive
// block of fan_out leaves, the last one short, whose partials a root
// reducer takes in block order.
ReduceNode two_tier(const std::vector<TensorList>& deltas,
                    const std::vector<double>& weights, std::size_t fan_out) {
  StreamingReducer root;
  for (std::size_t b = 0; b < deltas.size(); b += fan_out) {
    StreamingReducer edge;
    for (std::size_t i = b; i < std::min(b + fan_out, deltas.size()); ++i) {
      edge.push(tensor::list::clone(deltas[i]), weights[i]);
    }
    root.push_node(edge.finalize());
  }
  return root.finalize();
}

TEST(TreeReduction, StreamingEqualsBufferedEqualsTreeBitwise) {
  for (std::int64_t n :
       {1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65, 100, 127, 130}) {
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    const std::vector<TensorList> deltas = make_deltas(n, rng);
    std::vector<double> weights;
    for (std::int64_t i = 0; i < n; ++i) {
      weights.push_back(1.0 + rng.uniform(0.0, 9.0));
    }

    const std::vector<std::uint8_t> pristine =
        serialize_tensor_list(deltas[0]);
    StreamingReducer streaming;
    for (std::int64_t i = 0; i < n; ++i) {
      streaming.push(tensor::list::clone(deltas[i]),
                     weights[static_cast<std::size_t>(i)]);
    }
    const ReduceNode from_stream = streaming.finalize();
    const ReduceNode from_buffer = reduce_buffered(deltas, weights);
    expect_bitwise_equal(from_stream, from_buffer);

    for (std::size_t fan_out : {2, 8, 64}) {
      expect_bitwise_equal(two_tier(deltas, weights, fan_out), from_buffer);
    }
    // The buffered reduction detaches its inputs: the caller's tensors
    // must come through untouched (tensors share storage on copy, so
    // this pins the deep-copy-at-entry contract).
    EXPECT_EQ(serialize_tensor_list(deltas[0]), pristine);
  }
}

TEST(TreeReduction, UnweightedPathSkipsTheScaleAndStaysBitwise) {
  Rng rng(77);
  const std::int64_t n = 37;
  const std::vector<TensorList> deltas = make_deltas(n, rng);
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);

  StreamingReducer streaming;
  for (const TensorList& d : deltas) {
    streaming.push(tensor::list::clone(d), 1.0);
  }
  const ReduceNode s = streaming.finalize();
  expect_bitwise_equal(s, reduce_buffered(deltas, ones));
  expect_bitwise_equal(s, two_tier(deltas, ones, 8));
  EXPECT_EQ(s.leaves, n);
  EXPECT_EQ(s.weight, static_cast<double>(n));
}

TEST(TreeReduction, OccupancyIsLogarithmicAndFinalizeResets) {
  Rng rng(5);
  StreamingReducer reducer;
  const std::int64_t n = 1000;
  for (std::int64_t i = 0; i < n; ++i) {
    TensorList d;
    d.push_back(Tensor::randn({4}, rng));
    reducer.push(std::move(d), 1.0);
    // floor(log2(i+1)) + 1 levels suffice for i+1 units.
    std::int64_t bound = 1;
    for (std::int64_t v = i + 1; v > 1; v >>= 1) ++bound;
    EXPECT_LE(reducer.occupancy(), bound);
  }
  const ReduceNode out = reducer.finalize();
  EXPECT_EQ(out.leaves, n);
  EXPECT_EQ(reducer.occupancy(), 0);
  EXPECT_GT(reducer.max_occupancy(), 0);  // high-water survives finalize
  EXPECT_LE(reducer.max_occupancy(), 10);  // floor(log2 1000)+1
}

TEST(TreeReduction, FinalizeMeanDividesBySummedWeight) {
  ReduceNode node;
  node.sum.push_back(Tensor::full({3}, 12.0f));
  node.weight = 4.0;
  node.leaves = 4;
  const TensorList mean = finalize_mean(std::move(node));
  for (float v : mean[0].to_vector()) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(TreeReduction, PowerOfTwoGate) {
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_TRUE(is_power_of_two(1) );
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(96));
}

// ---- the streaming round engine ----

FlExperimentConfig scale_config() {
  FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                        BenchScale::kSmoke);
  config.total_clients = 24;
  config.clients_per_round = 24;
  config.rounds = 3;
  config.seed = 29;
  config.eval_every = 0;
  config.streaming_aggregation = true;
  return config;
}

std::vector<std::uint8_t> run_scale(const FlExperimentConfig& config,
                                    const core::PrivacyPolicy& policy,
                                    FlRunResult* out = nullptr) {
  FlRunResult result = run_experiment(config, policy);
  if (out != nullptr) *out = result;
  return serialize_tensor_list(result.final_weights);
}

TEST(ScaleEngine, FanOutIsAnExecutionDetailOnFaultFreeRounds) {
  // With sanitization noise on (fed_sdp), so the per-client sanitize
  // streams are exercised, not just the reduction order.
  std::unique_ptr<core::PrivacyPolicy> policy = core::make_fed_sdp(4.0, 0.25);
  FlExperimentConfig config = scale_config();
  config.noise_scale = 0.25;
  config.tree_fan_out = 2;
  FlRunResult first;
  const std::vector<std::uint8_t> reference =
      run_scale(config, *policy, &first);
  EXPECT_EQ(first.completed_rounds, config.rounds);
  EXPECT_GT(first.max_stream_levels, 0);
  for (std::int64_t fan_out : {8, 64, 256}) {  // 256 > Kt: one flat reducer
    config.tree_fan_out = fan_out;
    EXPECT_EQ(run_scale(config, *policy), reference)
        << "fan-out " << fan_out << " diverged from fan-out 2";
  }
}

TEST(ScaleEngine, ParallelScheduleMatchesSerialBitwise) {
  std::unique_ptr<core::PrivacyPolicy> policy = core::make_fed_sdp(4.0, 0.25);
  FlExperimentConfig config = scale_config();
  config.noise_scale = 0.25;
  config.parallel_clients = false;
  const std::vector<std::uint8_t> serial = run_scale(config, *policy);
  config.parallel_clients = true;
  EXPECT_EQ(run_scale(config, *policy), serial);
}

TEST(ScaleEngine, DeterministicUnderFaults) {
  std::unique_ptr<core::PrivacyPolicy> policy = core::make_non_private();
  FlExperimentConfig config = scale_config();
  config.rounds = 5;
  config.faults.fault_rate = 0.4;  // all five types, default mix
  FlRunResult a;
  FlRunResult b;
  const std::vector<std::uint8_t> first = run_scale(config, *policy, &a);
  const std::vector<std::uint8_t> second = run_scale(config, *policy, &b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.total_failures.injected_total(), b.total_failures.injected_total());
  EXPECT_GT(a.total_failures.injected_total(), 0);
}

// ---- one sync fold ----

// streaming_aggregation sets only how many clients a unit of the sync
// fold holds, tree_fan_out or one. Every update is screened as it lands
// and summed in the pinned tree order, so on fault-free rounds both
// settings compute the same bytes at every power-of-two fan-out. Kt = 21
// leaves a short last unit at fan-outs 2 and 8.
TEST(SyncFold, StreamingFlagOnlySetsTheUnitSize) {
  for (const bool noising : {true, false}) {
    std::unique_ptr<core::PrivacyPolicy> policy = core::make_non_private();
    if (noising) policy = core::make_fed_cdp(4.0, 0.25);
    SCOPED_TRACE(policy->name());
    FlExperimentConfig config = scale_config();
    config.clients_per_round = 21;
    config.noise_scale = 0.25;
    config.streaming_aggregation = false;
    FlRunResult one_client;
    const std::vector<std::uint8_t> reference =
        run_scale(config, *policy, &one_client);
    EXPECT_EQ(one_client.completed_rounds, config.rounds);
    EXPECT_EQ(one_client.updates_accepted,
              config.rounds * config.clients_per_round);
    config.streaming_aggregation = true;
    for (std::int64_t fan_out : {2, 8, 64, 256}) {
      config.tree_fan_out = fan_out;
      EXPECT_EQ(run_scale(config, *policy), reference)
          << "fan-out " << fan_out << " diverged from one-client units";
    }
  }
}

// Server::aggregate is the same fold run serially: on a mixed cohort it
// adds to the weights exactly finalize_mean of the pinned-order sum of
// the accepted deltas, in cohort order.
TEST(SyncFold, ServerAggregateIsThePinnedOrderMean) {
  Rng rng(31);
  const TensorList initial = make_deltas(1, rng).front();
  Server server(tensor::list::clone(initial),
                {.screening = {.max_update_norm = 20.0}});
  const std::vector<TensorList> deltas = make_deltas(11, rng);
  std::vector<ClientUpdate> cohort;
  std::vector<TensorList> accepted;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    ClientUpdate u{static_cast<std::int64_t>(i), 0,
                   tensor::list::clone(deltas[i])};
    if (i == 1) {
      u.round = 5;  // a future round: stale
    } else if (i == 4) {
      u.delta[1].data()[2] = std::numeric_limits<float>::infinity();
    } else if (i == 7) {
      tensor::list::scale_(u.delta, 100.0f);  // far above the cap
    } else if (i == 10) {
      u.delta.pop_back();  // wrong tensor count
    } else {
      accepted.push_back(deltas[i]);
    }
    cohort.push_back(std::move(u));
  }
  ASSERT_EQ(accepted.size(), 7u);
  TensorList expected = tensor::list::clone(initial);
  tensor::list::add_(
      expected,
      finalize_mean(reduce_buffered(
          accepted, std::vector<double>(accepted.size(), 1.0))),
      1.0f);

  const AggregateOutcome outcome = server.aggregate(std::move(cohort));
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.screening.accepted, 7);
  EXPECT_EQ(outcome.screening.rejected_stale, 1);
  EXPECT_EQ(outcome.screening.rejected_non_finite, 1);
  EXPECT_EQ(outcome.screening.rejected_norm_outlier, 1);
  EXPECT_EQ(outcome.screening.rejected_shape, 1);
  EXPECT_EQ(serialize_tensor_list(server.weights()),
            serialize_tensor_list(expected));
}

// ---- the virtualized provider ----

struct ProviderFixture {
  std::shared_ptr<const data::Dataset> base;
  data::PartitionSpec spec;
  Rng part_rng;
  VirtualClientProvider provider;

  static ProviderFixture make(std::uint64_t seed) {
    const data::BenchmarkConfig bench = data::benchmark_config(
        data::BenchmarkId::kCancer, BenchScale::kSmoke);
    Rng root(seed);
    Rng data_rng = root.fork("train-data");
    Rng part_rng = root.fork("partition");
    auto base = std::make_shared<data::Dataset>(
        data::generate_synthetic(bench.train_spec, data_rng));
    data::PartitionSpec spec = bench.partition;
    spec.num_clients = 64;
    const LocalTrainConfig local{.local_iterations = 2,
                                 .batch_size = 4,
                                 .learning_rate = 0.1};
    FaultInjectionConfig faults;
    faults.fault_rate = 0.3;
    return ProviderFixture{
        base, spec, part_rng,
        VirtualClientProvider(base, spec, part_rng, local, faults, seed)};
  }
};

TEST(VirtualProvider, ShardsMatchTheEagerPartitionExactly) {
  ProviderFixture f = ProviderFixture::make(11);
  const std::vector<data::ClientData> eager =
      data::partition(f.base, f.spec, f.part_rng);
  ASSERT_EQ(static_cast<std::int64_t>(eager.size()),
            f.provider.total_clients());
  for (std::size_t k = 0; k < eager.size(); ++k) {
    const Client c = f.provider.client(static_cast<std::int64_t>(k));
    EXPECT_EQ(c.data().indices(), eager[k].indices()) << "client " << k;
    EXPECT_EQ(f.provider.data_size(static_cast<std::int64_t>(k)),
              eager[k].size());
  }
}

TEST(VirtualProvider, SynthesisIsDeterministicAcrossCallsAndThreads) {
  ProviderFixture f = ProviderFixture::make(23);
  const std::vector<std::int64_t> ids = {0, 7, 31, 63};

  // Reference values from the main thread.
  std::vector<std::vector<std::int64_t>> ref_indices;
  std::vector<double> ref_draws;
  std::vector<FaultType> ref_faults;
  for (std::int64_t id : ids) {
    ref_indices.push_back(f.provider.client(id).data().indices());
    Rng stream = VirtualClientProvider::training_stream(f.part_rng, 3, id);
    ref_draws.push_back(stream.uniform());
    ref_faults.push_back(f.provider.fault_plan().fault_for(3, id));
  }

  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 25; ++rep) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::int64_t id = ids[i];
          if (f.provider.client(id).data().indices() != ref_indices[i]) {
            ++mismatches[t];
          }
          Rng stream =
              VirtualClientProvider::training_stream(f.part_rng, 3, id);
          if (stream.uniform() != ref_draws[i]) ++mismatches[t];
          if (f.provider.fault_plan().fault_for(3, id) != ref_faults[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(VirtualProvider, TheThreeStreamsAreDistinct) {
  Rng round_rng(99);
  Rng train = VirtualClientProvider::training_stream(round_rng, 2, 5);
  Rng fault = VirtualClientProvider::delivery_fault_stream(round_rng, 2, 5);
  const double a = train.uniform();
  const double b = fault.uniform();
  EXPECT_NE(a, b);
  // And distinct (round, id) pairs get distinct streams.
  Rng other = VirtualClientProvider::training_stream(round_rng, 2, 6);
  EXPECT_NE(other.uniform(), a);
}

}  // namespace
}  // namespace fedcl::fl
