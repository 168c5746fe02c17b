#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "data/benchmarks.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic.h"

namespace fedcl::data {
namespace {

using tensor::Shape;
using tensor::Tensor;

Dataset tiny_dataset() {
  // 6 examples, 2 features, labels 0,1,2,0,1,2.
  Tensor f = Tensor::from_vector({6, 2},
                                 {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  return Dataset(f, {0, 1, 2, 0, 1, 2}, 3);
}

TEST(Dataset, BasicAccessors) {
  Dataset ds = tiny_dataset();
  EXPECT_EQ(ds.size(), 6);
  EXPECT_EQ(ds.num_classes(), 3);
  EXPECT_EQ(ds.example_numel(), 2);
}

TEST(Dataset, RejectsBadLabels) {
  Tensor f = Tensor::ones({2, 2});
  EXPECT_THROW(Dataset(f, {0, 5}, 3), Error);
  EXPECT_THROW(Dataset(f, {0}, 3), Error);
  EXPECT_THROW(Dataset(f, {0, 0}, 1), Error);
}

TEST(Dataset, GatherCopiesRows) {
  Dataset ds = tiny_dataset();
  Batch b = ds.gather({4, 0});
  EXPECT_EQ(b.size(), 2);
  EXPECT_FLOAT_EQ(b.x.at(0), 4.0f);
  EXPECT_FLOAT_EQ(b.x.at(2), 0.0f);
  EXPECT_EQ(b.labels, (std::vector<std::int64_t>{1, 0}));
  EXPECT_THROW(ds.gather({6}), Error);
  EXPECT_THROW(ds.gather({}), Error);
}

TEST(Dataset, ExampleAndClassIndex) {
  Dataset ds = tiny_dataset();
  Batch e = ds.example(3);
  EXPECT_EQ(e.size(), 1);
  EXPECT_EQ(e.labels[0], 0);
  EXPECT_EQ(ds.indices_of_class(2), (std::vector<std::int64_t>{2, 5}));
  EXPECT_TRUE(ds.indices_of_class(1).size() == 2);
}

TEST(ClientData, SampleBatchWithReplacement) {
  auto ds = std::make_shared<Dataset>(tiny_dataset());
  ClientData client(ds, {0, 1});
  Rng rng(1);
  Batch b = client.sample_batch(rng, 10);
  EXPECT_EQ(b.size(), 10);
  for (auto label : b.labels) EXPECT_LE(label, 1);
}

TEST(ClientData, AllAndClasses) {
  auto ds = std::make_shared<Dataset>(tiny_dataset());
  ClientData client(ds, {0, 2, 3});
  EXPECT_EQ(client.all().size(), 3);
  EXPECT_EQ(client.classes_present(), (std::vector<std::int64_t>{0, 2}));
  EXPECT_THROW(ClientData(ds, {}), Error);
  EXPECT_THROW(ClientData(ds, {99}), Error);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticSpec spec{.example_shape = {4, 4, 1}, .classes = 3, .count = 12};
  Rng a(5), b(5);
  Dataset d1 = generate_synthetic(spec, a);
  Dataset d2 = generate_synthetic(spec, b);
  EXPECT_TRUE(tensor::allclose(d1.features(), d2.features()));
  EXPECT_EQ(d1.labels(), d2.labels());
}

TEST(Synthetic, DifferentNoiseStreamsDifferentData) {
  SyntheticSpec spec{.example_shape = {4, 4, 1}, .classes = 3, .count = 12};
  Rng a(5), b(6);
  Dataset d1 = generate_synthetic(spec, a);
  Dataset d2 = generate_synthetic(spec, b);
  EXPECT_FALSE(tensor::allclose(d1.features(), d2.features()));
}

TEST(Synthetic, SharedDomainSeedSharesPrototypes) {
  SyntheticSpec spec{.example_shape = {6, 6, 1},
                     .classes = 2,
                     .count = 4,
                     .noise = 0.0f,
                     .domain_seed = 77};
  Rng a(1), b(2);
  // Zero noise: examples equal the prototypes, so different rngs give
  // identical data when the domain seed matches.
  Dataset d1 = generate_synthetic(spec, a);
  Dataset d2 = generate_synthetic(spec, b);
  EXPECT_TRUE(tensor::allclose(d1.features(), d2.features()));
  spec.domain_seed = 78;
  Rng c(1);
  Dataset d3 = generate_synthetic(spec, c);
  EXPECT_FALSE(tensor::allclose(d1.features(), d3.features()));
}

TEST(Synthetic, BalancedLabels) {
  SyntheticSpec spec{.example_shape = {5}, .classes = 4, .count = 40,
                     .clamp01 = false};
  Rng rng(7);
  Dataset ds = generate_synthetic(spec, rng);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(ds.indices_of_class(c).size(), 10u);
  }
}

TEST(Synthetic, Clamp01ForImages) {
  SyntheticSpec spec{.example_shape = {4, 4, 2},
                     .classes = 2,
                     .count = 20,
                     .noise = 1.0f,  // big noise to exercise the clamp
                     .clamp01 = true};
  Rng rng(8);
  Dataset ds = generate_synthetic(spec, rng);
  const Tensor& f = ds.features();
  for (std::int64_t i = 0; i < f.numel(); ++i) {
    EXPECT_GE(f.at(i), 0.0f);
    EXPECT_LE(f.at(i), 1.0f);
  }
}

TEST(Synthetic, PrototypeStableAcrossCalls) {
  SyntheticSpec spec{.example_shape = {4, 4, 1}, .classes = 3, .count = 3,
                     .domain_seed = 99};
  Tensor p1 = class_prototype(spec, 1);
  Tensor p2 = class_prototype(spec, 1);
  EXPECT_TRUE(tensor::allclose(p1, p2));
  Tensor other = class_prototype(spec, 2);
  EXPECT_FALSE(tensor::allclose(p1, other));
  EXPECT_THROW(class_prototype(spec, 3), Error);
}

TEST(Synthetic, AttributePrototypesUnbounded) {
  SyntheticSpec spec{.example_shape = {20}, .classes = 2, .count = 2,
                     .clamp01 = false};
  Tensor p = class_prototype(spec, 0);
  EXPECT_EQ(p.shape(), (Shape{20}));
  // Standard-normal prototype should have some mass beyond [0,1].
  bool outside = false;
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    if (p.at(i) < 0.0f || p.at(i) > 1.0f) outside = true;
  }
  EXPECT_TRUE(outside);
}

TEST(Partition, ShardClassesPerClient) {
  SyntheticSpec spec{.example_shape = {3}, .classes = 10, .count = 200,
                     .clamp01 = false};
  Rng rng(9);
  auto ds = std::make_shared<Dataset>(generate_synthetic(spec, rng));
  PartitionSpec part{.num_clients = 8, .data_per_client = 20,
                     .classes_per_client = 2};
  Rng prng(10);
  auto clients = partition(ds, part, prng);
  ASSERT_EQ(clients.size(), 8u);
  for (const auto& c : clients) {
    EXPECT_EQ(c.size(), 20);
    EXPECT_EQ(c.classes_present().size(), 2u);
  }
}

TEST(Partition, FullCopyMode) {
  auto ds = std::make_shared<Dataset>(tiny_dataset());
  PartitionSpec part{.num_clients = 3, .data_per_client = 6,
                     .classes_per_client = 0};
  Rng rng(11);
  auto clients = partition(ds, part, rng);
  for (const auto& c : clients) {
    EXPECT_EQ(c.size(), ds->size());
    EXPECT_EQ(c.classes_present().size(), 3u);
  }
}

TEST(Partition, DeterministicForSeed) {
  auto ds = std::make_shared<Dataset>(tiny_dataset());
  PartitionSpec part{.num_clients = 4, .data_per_client = 4,
                     .classes_per_client = 2};
  Rng a(12), b(12);
  auto c1 = partition(ds, part, a);
  auto c2 = partition(ds, part, b);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].indices(), c2[i].indices());
  }
}

TEST(Partition, UnevenClassSplitHandled) {
  auto ds = std::make_shared<Dataset>(tiny_dataset());
  // 5 examples per client across 3 classes -> 1+1+3 remainder logic.
  PartitionSpec part{.num_clients = 2, .data_per_client = 5,
                     .classes_per_client = 3};
  Rng rng(13);
  auto clients = partition(ds, part, rng);
  for (const auto& c : clients) EXPECT_EQ(c.size(), 5);
  EXPECT_THROW(partition(nullptr, part, rng), Error);
}

class BenchmarkConfigTest
    : public ::testing::TestWithParam<std::tuple<BenchmarkId, BenchScale>> {};

TEST_P(BenchmarkConfigTest, ConfigIsInternallyConsistent) {
  auto [id, scale] = GetParam();
  BenchmarkConfig cfg = benchmark_config(id, scale);
  EXPECT_EQ(cfg.id, id);
  EXPECT_FALSE(cfg.name.empty());
  EXPECT_GT(cfg.rounds, 0);
  EXPECT_GT(cfg.batch_size, 0);
  EXPECT_GT(cfg.local_iterations, 0);
  EXPECT_GT(cfg.learning_rate, 0.0);
  EXPECT_GT(cfg.train_spec.count, 0);
  EXPECT_GT(cfg.val_spec.count, 0);
  EXPECT_EQ(cfg.train_spec.domain_seed, cfg.val_spec.domain_seed);
  EXPECT_EQ(cfg.train_spec.classes, cfg.model.classes);
  // Model input must match the data shape.
  EXPECT_EQ(cfg.model.input_numel(),
            tensor::shape_numel(cfg.train_spec.example_shape));
  EXPECT_GT(cfg.partition.data_per_client, 0);
  EXPECT_GT(cfg.paper_nonprivate_accuracy, 0.0);
  // There must be enough data to shard at least a few clients.
  EXPECT_GE(cfg.train_spec.count, cfg.partition.data_per_client);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllScales, BenchmarkConfigTest,
    ::testing::Combine(::testing::ValuesIn(all_benchmarks()),
                       ::testing::Values(BenchScale::kSmoke,
                                         BenchScale::kSmall,
                                         BenchScale::kPaper)));

TEST(BenchmarkConfig, PaperScaleMatchesTable1) {
  BenchmarkConfig mnist =
      benchmark_config(BenchmarkId::kMnist, BenchScale::kPaper);
  EXPECT_EQ(mnist.train_spec.example_shape, (Shape{28, 28, 1}));
  EXPECT_EQ(mnist.partition.data_per_client, 500);
  EXPECT_EQ(mnist.batch_size, 5);
  EXPECT_EQ(mnist.local_iterations, 100);
  EXPECT_EQ(mnist.rounds, 100);

  BenchmarkConfig lfw = benchmark_config(BenchmarkId::kLfw, BenchScale::kPaper);
  EXPECT_EQ(lfw.train_spec.classes, 62);
  EXPECT_EQ(lfw.partition.classes_per_client, 15);
  EXPECT_EQ(lfw.rounds, 60);
  EXPECT_EQ(lfw.batch_size, 3);

  BenchmarkConfig adult =
      benchmark_config(BenchmarkId::kAdult, BenchScale::kPaper);
  EXPECT_EQ(adult.train_spec.example_shape, (Shape{105}));
  EXPECT_EQ(adult.rounds, 10);

  BenchmarkConfig cancer =
      benchmark_config(BenchmarkId::kCancer, BenchScale::kPaper);
  EXPECT_EQ(cancer.train_spec.example_shape, (Shape{30}));
  EXPECT_EQ(cancer.rounds, 3);
  EXPECT_EQ(cancer.partition.classes_per_client, 0);  // full copy
}

TEST(BenchmarkConfig, NoiseScaleDefaults) {
  EXPECT_DOUBLE_EQ(default_noise_scale(BenchScale::kPaper), 6.0);
  EXPECT_GT(default_noise_scale(BenchScale::kSmall), 0.0);
  EXPECT_LT(default_noise_scale(BenchScale::kSmall), 6.0);
}

// The examples' one dataset parser: the five command-line names, and a
// failure that lists them for anything else (a misspelling included).
TEST(BenchmarkConfig, ParsesTheFiveDatasetNames) {
  const std::pair<const char*, BenchmarkId> names[] = {
      {"mnist", BenchmarkId::kMnist},
      {"cifar10", BenchmarkId::kCifar10},
      {"lfw", BenchmarkId::kLfw},
      {"adult", BenchmarkId::kAdult},
      {"cancer", BenchmarkId::kCancer},
  };
  for (const auto& [name, id] : names) {
    Result<BenchmarkId> parsed = parse_benchmark_id(name);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error();
    EXPECT_EQ(parsed.value(), id) << name;
  }
  for (const char* bad : {"mnsit", ""}) {
    Result<BenchmarkId> parsed = parse_benchmark_id(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' parsed";
    EXPECT_NE(parsed.error().find("mnist|cifar10|lfw|adult|cancer"),
              std::string::npos)
        << parsed.error();
  }
}

}  // namespace
}  // namespace fedcl::data
