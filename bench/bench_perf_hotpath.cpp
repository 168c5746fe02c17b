// Perf bench for the per-example gradient hot path: times one client's
// local round (B examples, L local iterations) under each policy. The
// batched leg is Client::run_round, whose per-example engine runs one
// forward + one backward and recovers per-example weight gradients via
// the outer-product trick (see DESIGN.md "Performance architecture").
// The sliced leg is this bench's own copy of that round's per-example
// loop (sample, sliced engine, sanitize hook, mean, SGD step) on the
// reference engine: B independent graphs of the test-only autograd
// oracle (tests/testing/reference.h), the pre-engine baseline.
//
// Non-private and Fed-SDP never take the per-example path, so both of
// their legs run Client::run_round and their rows are context; the
// headline numbers are the Fed-CDP round speedup (batched vs sliced)
// and the engine-only per-example-gradient speedup measured below the
// round table. The engine-only table also times the batch gradient
// non-private and Fed-SDP train on: one autograd graph
// (compute_gradients_reference) vs the tape's batch reduction
// (compute_gradients), bitwise equal, one thread each in the same run
// (batch_grad_speedup.<model>).
//
// Reading the numbers: the engine's win is avoided work per example —
// graph construction, node/Var allocation, and per-example tensor
// traffic — plus kernel-level threading. On a single core the MLP
// engine-only speedup is large (the sliced path is overhead-bound)
// while the CNN ratio is modest (both paths bottleneck on the same
// conv matmul kernels, and DP noise generation is a shared floor);
// with more cores both rise, since the batched path threads its
// matmuls and the trainer runs clients in parallel.
//
// Also measures (a) the fused DP sanitizer's throughput and its 1->4
// thread scaling — the one-write pass is parallel over element spans,
// since counter-based noise needs no visit order, so it should scale
// with cores — (b) fedcdp_floor_ratio.MLP, the one-thread Fed-CDP
// round over the floor its noise allows (the non-private round plus
// L * |params| draws at the noise-row kernel's throughput),
// and (c) the telemetry-on vs telemetry-off overhead of the
// instrumented trainer round path (the number DESIGN.md §8 quotes).
// The telemetry-on leg writes its own JSONL,
// BENCH_perf_hotpath_telemetry.jsonl under bench_out_dir(), and the
// block detaches every sink first, so --telemetry-out=FILE holds this
// bench's own stream up to that block, as in every other bench.
//
// Emits a machine-readable JSON document after the table and writes
// the same document to BENCH_perf_hotpath.json for CI artifacts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "data/dataset.h"
#include "dp/clipping.h"
#include "dp/fused_sanitize.h"
#include "fl/client.h"
#include "fl/trainer.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/per_example.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "testing/reference.h"

namespace {

using namespace fedcl;

// Each round leg reports the median of timed_rounds rounds, at least
// seven at every scale, so one run can read a leg.
struct BenchDims {
  std::int64_t batch_size = 32;
  std::int64_t local_iterations = 2;
  int warmup_rounds = 1;
  int timed_rounds = 7;
};

BenchDims scaled_dims() {
  BenchDims d;
  switch (bench_scale()) {
    case BenchScale::kSmoke:
      d.local_iterations = 1;
      break;
    case BenchScale::kSmall:
      break;
    case BenchScale::kPaper:
      d.local_iterations = 4;
      d.timed_rounds = 10;
      break;
  }
  return d;
}

struct ModelCase {
  std::string name;
  nn::ModelSpec spec;
  std::int64_t dataset_size;
};

data::ClientData synthetic_client(const nn::ModelSpec& spec,
                                  std::int64_t n, Rng& rng) {
  tensor::Shape shape;
  if (spec.kind == nn::ModelSpec::Kind::kImageCnn) {
    shape = {n, spec.height, spec.width, spec.channels};
  } else {
    shape = {n, spec.in_features};
  }
  tensor::Tensor features = tensor::Tensor::randn(shape, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (auto& l : labels)
    l = static_cast<std::int64_t>(rng.uniform_int(
        static_cast<std::uint64_t>(spec.classes)));
  auto base = std::make_shared<const data::Dataset>(std::move(features),
                                                    std::move(labels),
                                                    spec.classes);
  std::vector<std::int64_t> indices(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    indices[static_cast<std::size_t>(i)] = i;
  return data::ClientData(base, std::move(indices));
}

// The sliced leg's local round: Client::run_round's per-example loop
// with the reference engine in place of the batched one, its step
// gradient the hook's sanitized mean. It consumes `rng` in the same
// order (batch sample, then one noise key per example), so both legs
// sample the same batches and draw the same noise.
void sliced_round(const fl::Client& client, nn::Sequential& model,
                  const tensor::list::TensorList& global_weights,
                  const core::PrivacyPolicy& policy, Rng& rng) {
  model.set_weights(global_weights);
  const dp::ParamGroups groups = fl::to_param_groups(model.layer_groups());
  nn::SgdOptimizer optimizer(client.config().learning_rate_at(0));
  for (std::int64_t l = 0; l < client.config().local_iterations; ++l) {
    data::Batch batch =
        client.data().sample_batch(rng, client.config().batch_size);
    const tensor::list::PerExampleGrads grads =
        nn::compute_per_example_gradients_sliced(model, batch.x,
                                                 batch.labels);
    optimizer.step(model, policy
                              .sanitize_per_example_batch(
                                  grads, groups, /*round=*/0, rng,
                                  /*observe=*/std::nullopt)
                              .mean);
  }
}

struct Row {
  std::string model;
  std::string policy;
  bool per_example = false;
  double sliced_ms = 0.0;
  double batched_ms = 0.0;
  double speedup() const { return batched_ms > 0.0 ? sliced_ms / batched_ms : 0.0; }
};

// Engine-only timing: per-example gradients for one batch, no DP, no
// SGD step — isolates what the batched engine replaces.
struct EngineRow {
  std::string model;
  double sliced_ms = 0.0;
  double batched_ms = 0.0;
  double speedup() const { return batched_ms > 0.0 ? sliced_ms / batched_ms : 0.0; }
};

EngineRow time_engine(const std::string& name, nn::Sequential& model,
                      const tensor::Tensor& x,
                      const std::vector<std::int64_t>& labels, int reps) {
  using Clock = std::chrono::steady_clock;
  EngineRow row;
  row.model = name;
  (void)nn::compute_per_example_gradients_sliced(model, x, labels);
  auto start = Clock::now();
  for (int r = 0; r < reps; ++r)
    (void)nn::compute_per_example_gradients_sliced(model, x, labels);
  row.sliced_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count() /
      reps;
  (void)nn::compute_per_example_gradients(model, x, labels);
  start = Clock::now();
  for (int r = 0; r < reps; ++r)
    (void)nn::compute_per_example_gradients(model, x, labels);
  row.batched_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count() /
      reps;
  return row;
}

// Engine-only batch gradient: the autograd reference vs the tape's
// batch reduction on one batch. Both legs run on one compute-pool
// worker, where nested pool loops run inline, so the ratio is a
// one-thread number at any pool size; reps alternate the legs and each
// leg reports its median.
struct BatchGradRow {
  std::string model;
  double reference_ms = 0.0;
  double tape_ms = 0.0;
  double speedup() const {
    return tape_ms > 0.0 ? reference_ms / tape_ms : 0.0;
  }
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

BatchGradRow time_batch_grad(const std::string& name, nn::Sequential& model,
                             const tensor::Tensor& x,
                             const std::vector<std::int64_t>& labels) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  constexpr int kReps = 21;
  BatchGradRow row;
  row.model = name;
  compute_pool()
      .submit([&] {
        std::vector<double> reference_ms, tape_ms;
        for (int r = -1; r < kReps; ++r) {  // r = -1 warms up
          const auto start = Clock::now();
          (void)nn::compute_gradients_reference(model, x, labels);
          const auto mid = Clock::now();
          (void)nn::compute_gradients(model, x, labels);
          const auto end = Clock::now();
          if (r < 0) continue;
          reference_ms.push_back(Ms(mid - start).count());
          tape_ms.push_back(Ms(end - mid).count());
        }
        row.reference_ms = median_of(std::move(reference_ms));
        row.tape_ms = median_of(std::move(tape_ms));
      })
      .get();
  return row;
}

// Fed-CDP's noise floor for one client's local round. The step
// gradient's noise is one Gaussian per coordinate (the B examples'
// draws summed into one, dp/fused_sanitize.h), so a Fed-CDP round
// draws at least L * |params| Gaussians and cannot beat the
// non-private round plus that many draws at the noise-row kernel's
// throughput. Every leg runs on one compute-pool worker, where nested
// pool loops run inline, so all three are one-thread costs from the
// same run.
struct NoiseFloor {
  double fedcdp_ms = 0.0;
  double non_private_ms = 0.0;
  double row_mfloats_per_s = 0.0;
  double draws = 0.0;  // L * |params| per round

  double floor_ms() const {
    return non_private_ms + draws / (row_mfloats_per_s * 1e3);
  }
  double ratio() const { return fedcdp_ms / floor_ms(); }
};

NoiseFloor measure_noise_floor(const fl::Client& client,
                               nn::Sequential& model,
                               const tensor::list::TensorList& global_weights,
                               const core::PrivacyPolicy& fed_cdp,
                               const core::PrivacyPolicy& non_private,
                               const Rng& stream_root) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 21;
  const fl::LocalTrainConfig& train = client.config();
  NoiseFloor f;
  const auto numel =
      static_cast<double>(tensor::list::total_numel(global_weights));
  f.draws = static_cast<double>(train.local_iterations) * numel;
  auto median_ms = [&](const std::function<void(int)>& run) {
    run(-1);  // warmup
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
      const auto start = Clock::now();
      run(r);
      ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start)
                       .count());
    }
    return median_of(std::move(ms));
  };
  auto round_ms = [&](const core::PrivacyPolicy& policy) {
    return median_ms([&](int r) {
      Rng rng = stream_root.fork("floor", static_cast<std::uint64_t>(r + 1));
      client.run_round(model, global_weights, policy, /*round=*/0, rng);
    });
  };
  compute_pool()
      .submit([&] {
        f.fedcdp_ms = round_ms(fed_cdp);
        f.non_private_ms = round_ms(non_private);
        // The row kernel's throughput, timed over B rows of every
        // parameter's width, one key per row.
        tensor::list::TensorList rows =
            tensor::list::zeros_like(global_weights);
        const double row_ms = median_ms([&](int r) {
          for (std::int64_t j = 0; j < train.batch_size; ++j) {
            const std::uint64_t key =
                0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(
                                            (r + 2) * train.batch_size + j);
            for (std::size_t p = 0; p < rows.size(); ++p) {
              dp::scale_noise_row(rows[p].data(), rows[p].numel(), 1.0f,
                                  0.25f, key, p);
            }
          }
        });
        f.row_mfloats_per_s =
            static_cast<double>(train.batch_size) * numel / row_ms / 1e3;
      })
      .get();
  return f;
}

// The MNIST CNN's batch gradient split into its stages, one thread:
// each conv's im2col, forward matmul, dW and dX, each pool's forward
// and gradient, and the whole nn::compute_gradients. conv1 has no dX
// stage: the backward walk stops at the first parameterized layer.
// What the stages leave of the whole (activations, biases, the Linear
// layer, the loss, reshapes) is the residual.
struct CnnStages {
  std::int64_t side = 0;  // image height and width
  std::vector<std::pair<std::string, double>> stage_ms;
  double whole_ms = 0.0;

  double residual_ms() const {
    double sum = 0.0;
    for (const auto& [name, ms] : stage_ms) sum += ms;
    return whole_ms - sum;
  }
};

CnnStages measure_cnn_stages(std::int64_t side, std::int64_t batch,
                             const Rng& root) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 31;
  nn::ModelSpec spec =
      data::benchmark_config(data::BenchmarkId::kMnist, BenchScale::kSmall)
          .model;
  spec.height = side;
  spec.width = side;
  Rng rng = root.fork("cnn-stages", static_cast<std::uint64_t>(side));
  const std::shared_ptr<nn::Sequential> model = nn::build_model(spec, rng);
  const tensor::list::TensorList weights = model->weights();
  const tensor::Tensor x = tensor::Tensor::randn(
      {batch, side, side, spec.channels}, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels)
    l = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(spec.classes)));
  // Conv geometry of the zoo CNN (nn/model_zoo.h): 5x5, stride 1, pad 2,
  // a 2x2 pool after each conv.
  const auto conv_spec = [](std::int64_t s, std::int64_t c) {
    return tensor::ConvSpec{.in_h = s, .in_w = s, .in_c = c, .kernel_h = 5,
                            .kernel_w = 5, .stride = 1, .pad = 2};
  };
  const std::int64_t c1 = spec.conv1_channels, c2 = spec.conv2_channels;
  const tensor::ConvSpec conv1 = conv_spec(side, spec.channels);
  const tensor::ConvSpec conv2 = conv_spec(side / 2, c1);
  const tensor::Tensor h1 = tensor::Tensor::randn({batch, side, side, c1}, rng);
  const tensor::Tensor x2 =
      tensor::Tensor::randn({batch, side / 2, side / 2, c1}, rng);
  const tensor::Tensor h2 =
      tensor::Tensor::randn({batch, side / 2, side / 2, c2}, rng);
  const tensor::Tensor g1 =
      tensor::Tensor::randn({batch, side / 2, side / 2, c1}, rng);
  const tensor::Tensor g2 =
      tensor::Tensor::randn({batch, side / 4, side / 4, c2}, rng);
  const tensor::Tensor d1 =
      tensor::Tensor::randn({batch * side * side, c1}, rng);
  const tensor::Tensor d2 =
      tensor::Tensor::randn({batch * (side / 2) * (side / 2), c2}, rng);
  const tensor::Tensor cols1 = tensor::im2col(x, conv1);
  const tensor::Tensor cols2 = tensor::im2col(x2, conv2);

  const std::vector<std::pair<std::string, std::function<void()>>> stages = {
      {"conv1.im2col", [&] { (void)tensor::im2col(x, conv1); }},
      {"conv1.forward", [&] { (void)tensor::matmul(cols1, weights[0]); }},
      {"conv1.dW", [&] { (void)tensor::matmul_tn(cols1, d1); }},
      {"pool1.forward", [&] { (void)nn::avg_pool(h1, 2); }},
      {"pool1.grad", [&] { (void)nn::avg_pool_grad(g1, h1.shape(), 2); }},
      {"conv2.im2col", [&] { (void)tensor::im2col(x2, conv2); }},
      {"conv2.forward", [&] { (void)tensor::matmul(cols2, weights[2]); }},
      {"conv2.dW", [&] { (void)tensor::matmul_tn(cols2, d2); }},
      {"conv2.dX",
       [&] { (void)tensor::conv_input_grad(d2, weights[2], conv2, batch); }},
      {"pool2.forward", [&] { (void)nn::avg_pool(h2, 2); }},
      {"pool2.grad", [&] { (void)nn::avg_pool_grad(g2, h2.shape(), 2); }},
  };
  const auto median_ms = [&](const std::function<void()>& call) {
    call();  // warmup
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
      const auto start = Clock::now();
      call();
      ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    }
    return median_of(std::move(ms));
  };
  CnnStages out;
  out.side = side;
  // On a compute-pool worker, where nested pool loops run inline: one
  // thread's cost of every stage, as inside the engines' client loops.
  compute_pool()
      .submit([&] {
        for (const auto& [name, call] : stages) {
          out.stage_ms.emplace_back(name, median_ms(call));
        }
        out.whole_ms = median_ms(
            [&] { (void)nn::compute_gradients(*model, x, labels); });
      })
      .get();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_bench(argc, argv);
  bench::print_preamble(
      "bench_perf_hotpath",
      "perf: batched per-example gradient engine vs sliced baseline");

  const BenchDims dims = scaled_dims();
  Rng root(experiment_seed());

  std::vector<ModelCase> cases;
  {
    nn::ModelSpec mlp;
    mlp.kind = nn::ModelSpec::Kind::kMlp;
    mlp.in_features = 64;
    mlp.classes = 10;
    cases.push_back({"MLP", mlp, 256});

    nn::ModelSpec cnn;
    cnn.kind = nn::ModelSpec::Kind::kImageCnn;
    cnn.height = 16;
    cnn.width = 16;
    cnn.channels = 1;
    cnn.classes = 10;
    cases.push_back({"CNN-16x16", cnn, 128});
  }

  bench::PolicySet policies = bench::make_policy_set(/*total_rounds=*/10);
  const std::vector<std::pair<std::string, const core::PrivacyPolicy*>>
      contenders = {{"non-private", policies.non_private.get()},
                    {"Fed-SDP", policies.fed_sdp.get()},
                    {"Fed-CDP", policies.fed_cdp.get()},
                    {"Fed-CDP(decay)", policies.fed_cdp_decay.get()}};

  std::printf(
      "local round: B=%lld, L=%lld, %d timed rounds (+%d warmup), "
      "compute pool: %zu threads\n\n",
      static_cast<long long>(dims.batch_size),
      static_cast<long long>(dims.local_iterations), dims.timed_rounds,
      dims.warmup_rounds, compute_pool().size());

  fl::LocalTrainConfig train;
  train.batch_size = dims.batch_size;
  train.local_iterations = dims.local_iterations;
  train.learning_rate = 0.05;

  std::vector<Row> rows;
  std::vector<EngineRow> engine_rows;
  std::vector<BatchGradRow> batch_grad_rows;
  NoiseFloor mlp_floor;
  AsciiTable table("ms per local round: sliced vs batched per-example engine");
  table.set_header({"model", "policy", "per-example", "sliced ms",
                    "batched ms", "speedup"});
  for (const ModelCase& mc : cases) {
    Rng data_rng = root.fork("data", static_cast<std::uint64_t>(rows.size()));
    Rng model_rng = root.fork("model", static_cast<std::uint64_t>(rows.size()));
    fl::Client client(/*id=*/0, synthetic_client(mc.spec, mc.dataset_size,
                                                 data_rng),
                      train);
    std::shared_ptr<nn::Sequential> model =
        nn::build_model(mc.spec, model_rng);
    const tensor::list::TensorList global_weights = model->weights();

    for (std::size_t p = 0; p < contenders.size(); ++p) {
      const auto& [name, policy] = contenders[p];
      const Rng stream_root =
          root.fork("round", static_cast<std::uint64_t>(rows.size() * 16 + p));
      Row row;
      row.model = mc.name;
      row.policy = name;
      row.per_example = policy->needs_per_example_gradients();
      const std::function<void(Rng&)> batched_round = [&](Rng& rng) {
        client.run_round(*model, global_weights, *policy, /*round=*/0, rng);
      };
      std::function<void(Rng&)> sliced_leg = batched_round;
      if (row.per_example) {
        sliced_leg = [&](Rng& rng) {
          sliced_round(client, *model, global_weights, *policy, rng);
        };
      }
      // Both legs replay the same RNG streams, so they sample the same
      // batches and draw the same noise: identical arithmetic,
      // different engine.
      row.sliced_ms = bench::time_rounds(sliced_leg, dims.warmup_rounds,
                                         dims.timed_rounds, stream_root);
      row.batched_ms = bench::time_rounds(batched_round, dims.warmup_rounds,
                                          dims.timed_rounds, stream_root);
      table.add_row({row.model, row.policy, bench::yes_no(row.per_example),
                     AsciiTable::fmt(row.sliced_ms, 2),
                     AsciiTable::fmt(row.batched_ms, 2),
                     AsciiTable::fmt(row.speedup(), 2) + "x"});
      rows.push_back(row);
    }

    if (mc.name == "MLP") {
      mlp_floor = measure_noise_floor(client, *model, global_weights,
                                      *policies.fed_cdp,
                                      *policies.non_private,
                                      root.fork("floor"));
    }

    // Engine-only: one batch of per-example gradients, no DP/SGD.
    Rng batch_rng = root.fork("engine-batch",
                              static_cast<std::uint64_t>(engine_rows.size()));
    data::ClientData engine_data =
        synthetic_client(mc.spec, dims.batch_size, batch_rng);
    data::Batch batch = engine_data.sample_batch(batch_rng, dims.batch_size);
    engine_rows.push_back(
        time_engine(mc.name, *model, batch.x, batch.labels,
                    std::max(2, 2 * dims.timed_rounds)));
    batch_grad_rows.push_back(
        time_batch_grad(mc.name, *model, batch.x, batch.labels));
  }
  table.print();

  AsciiTable engine_table(
      "ms per batch of gradients (engine only, no DP/SGD): per-example "
      "sliced vs batched; batch autograd vs tape, 1 thread");
  engine_table.set_header(
      {"model", "gradient", "reference ms", "engine ms", "speedup"});
  for (std::size_t m = 0; m < engine_rows.size(); ++m) {
    const EngineRow& r = engine_rows[m];
    engine_table.add_row({r.model, "per-example",
                          AsciiTable::fmt(r.sliced_ms, 3),
                          AsciiTable::fmt(r.batched_ms, 3),
                          AsciiTable::fmt(r.speedup(), 2) + "x"});
    const BatchGradRow& g = batch_grad_rows[m];
    engine_table.add_row({g.model, "batch", AsciiTable::fmt(g.reference_ms, 3),
                          AsciiTable::fmt(g.tape_ms, 3),
                          AsciiTable::fmt(g.speedup(), 2) + "x"});
  }
  std::printf("\n");
  engine_table.print();

  // ---- the MNIST CNN's batch gradient, stage by stage ----
  constexpr std::int64_t kStageBatch = 5;
  std::vector<CnnStages> cnn_stages;
  for (const std::int64_t side : {12, 28}) {
    cnn_stages.push_back(measure_cnn_stages(side, kStageBatch, root));
  }
  AsciiTable stage_table(
      "ms per call, MNIST CNN batch gradient by stage (B=5, 1 thread, "
      "median of 31)");
  std::vector<std::string> stage_header = {"stage"};
  for (const CnnStages& c : cnn_stages) {
    stage_header.push_back(std::to_string(c.side) + "x" +
                           std::to_string(c.side) + " ms");
  }
  stage_table.set_header(stage_header);
  for (std::size_t i = 0; i < cnn_stages.front().stage_ms.size(); ++i) {
    std::vector<std::string> row = {cnn_stages.front().stage_ms[i].first};
    for (const CnnStages& c : cnn_stages) {
      row.push_back(AsciiTable::fmt(c.stage_ms[i].second, 4));
    }
    stage_table.add_row(row);
  }
  for (const char* total : {"residual", "compute_gradients"}) {
    std::vector<std::string> row = {total};
    for (const CnnStages& c : cnn_stages) {
      row.push_back(AsciiTable::fmt(
          std::string(total) == "residual" ? c.residual_ms() : c.whole_ms, 4));
    }
    stage_table.add_row(row);
  }
  std::printf("\n");
  stage_table.print();

  std::printf(
      "\nReading the numbers: the round rows time the full local round "
      "(data gather, forward/backward, DP clip+noise, SGD step); the "
      "engine rows isolate the gradient computation: per-example rows "
      "what the batched engine replaces, batch rows the autograd graph "
      "the tape replaces for non-private and Fed-SDP. Non-private and Fed-SDP never take the "
      "per-example path, so their round rows hover around 1x. Fed-CDP "
      "round time also pays for one Gaussian draw per parameter per "
      "iteration (identical in both legs by design — the noise stream is "
      "bit-for-bit shared), which bounds the round-level ratio on models "
      "where noise dominates. Speedups grow with cores: the batched "
      "engine threads its matmuls and the trainer rounds run clients in "
      "parallel, while the sliced baseline's B-graph loop is inherently "
      "serial per example.\n");

  // ---- fused sanitizer throughput and thread scaling ----
  // Times the full fused pipeline (norm pass + one-write pass) over a
  // synthetic CNN-sized [B, numel] row-form gradient block with
  // explicit 1- and 4-thread pools. The result is bitwise pool-size independent
  // (counter-based Philox), so the two legs do identical arithmetic
  // and the ratio isolates parallel efficiency.
  double sanitize_mfloats_1t = 0.0, sanitize_mfloats_4t = 0.0;
  {
    const std::int64_t sanitize_batch = 32;
    std::vector<tensor::Shape> shapes = {{75, 32},  {32}, {800, 64},
                                         {64},      {1024, 10}, {10}};
    tensor::list::PerExampleGrads grads =
        tensor::list::make_per_example(sanitize_batch, shapes);
    Rng fill_rng = root.fork("sanitize-fill", 0);
    std::int64_t floats_per_pass = 0;
    for (auto& p : grads.params) {
      p.rows = tensor::Tensor::randn(p.rows.shape(), fill_rng);
      floats_per_pass += p.rows.numel();
    }
    const dp::ParamGroups groups = dp::single_group(shapes.size());
    const std::vector<double> bounds(
        static_cast<std::size_t>(sanitize_batch), 1.0);
    const std::vector<double> stddevs(
        static_cast<std::size_t>(sanitize_batch),
        data::default_noise_scale());
    std::vector<std::uint64_t> keys(
        static_cast<std::size_t>(sanitize_batch));
    for (std::size_t j = 0; j < keys.size(); ++j)
      keys[j] = 0x9E3779B97F4A7C15ull * (j + 1);
    const int sanitize_reps =
        bench_scale() == BenchScale::kSmoke ? 5 : 30;
    auto time_sanitize = [&](std::size_t threads) {
      using Clock = std::chrono::steady_clock;
      ThreadPool pool(threads);
      auto pass = [&]() {
        const std::vector<double> norms =
            dp::batch_group_norms(grads, groups, &pool);
        dp::batch_scale_noise(grads, groups, norms, bounds, stddevs, keys,
                              &pool);
      };
      pass();  // warmup
      const auto start = Clock::now();
      for (int r = 0; r < sanitize_reps; ++r) pass();
      const double sec =
          std::chrono::duration<double>(Clock::now() - start).count();
      return static_cast<double>(floats_per_pass) * sanitize_reps / sec /
             1e6;
    };
    sanitize_mfloats_1t = time_sanitize(1);
    sanitize_mfloats_4t = time_sanitize(4);
    std::printf(
        "\nfused sanitizer (clip+noise, B=%lld, %lld floats/example, "
        "%d reps):\n  1 thread %.1f Mfloat/s | 4 threads %.1f Mfloat/s "
        "| scaling %.2fx (host has %zu hw threads)\n",
        static_cast<long long>(sanitize_batch),
        static_cast<long long>(floats_per_pass / sanitize_batch),
        sanitize_reps, sanitize_mfloats_1t, sanitize_mfloats_4t,
        sanitize_mfloats_1t > 0.0 ? sanitize_mfloats_4t / sanitize_mfloats_1t
                                  : 0.0,
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
  }

  std::printf(
      "\nFed-CDP noise floor (MLP local round, 1 thread, median of 21):\n"
      "  Fed-CDP %.3f ms | non-private %.3f ms + %.0f draws at %.1f "
      "Mfloat/s (row kernel) = floor %.3f ms | ratio %.2fx\n",
      mlp_floor.fedcdp_ms, mlp_floor.non_private_ms, mlp_floor.draws,
      mlp_floor.row_mfloats_per_s, mlp_floor.floor_ms(), mlp_floor.ratio());

  // ---- telemetry overhead on the instrumented trainer path ----
  // The trainer is where telemetry concentrates (round/phase spans,
  // per-round points, clip-counter reads), so the honest overhead
  // number times a small end-to-end run_experiment with no sink vs
  // with the JSONL sink attached. Instruments are always on in both
  // legs; the delta is event serialization + file I/O. Every round
  // span is traced, so the JSONL leg is also the tracing leg.
  fl::FlExperimentConfig ocfg;
  ocfg.bench = data::benchmark_config(data::BenchmarkId::kCancer);
  ocfg.total_clients = 4;
  ocfg.clients_per_round = 2;
  ocfg.rounds = bench_scale() == BenchScale::kSmoke ? 3 : 10;
  ocfg.eval_every = 1;
  ocfg.seed = experiment_seed();
  ocfg.noise_scale = data::default_noise_scale();  // make_policy_set's sigma
  const core::PrivacyPolicy& opolicy = *policies.fed_cdp;
  const int overhead_reps = std::max(4, dims.timed_rounds);
  const std::string telemetry_path =
      bench::bench_out_dir() + "/BENCH_perf_hotpath_telemetry.jsonl";
  // Two legs — no sink, JSONL sink — measured INTERLEAVED (off/jsonl
  // per rep) and reduced min-of-reps. Sequential legs read
  // background-load drift as "overhead" and a mean lets one scheduler
  // hiccup swamp a percent-level delta; the interleaved minimum
  // compares the legs' undisturbed runs. Sink
  // setup/teardown stays outside the timed window, but the end-of-run
  // flush inside run_experiment is timed — production pays it too.
  telemetry::Registry& registry = telemetry::global_registry();
  double leg_ms[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
  double off_max_ms = 0.0;  // off-leg spread = timer trustworthiness
  registry.clear_sinks();
  (void)fl::run_experiment(ocfg, opolicy);  // warmup
  for (int r = 0; r < overhead_reps; ++r) {
    for (int leg = 0; leg < 2; ++leg) {
      registry.clear_sinks();
      if (leg == 1) {
        registry.add_sink(
            std::make_unique<telemetry::JsonlSink>(telemetry_path));
      }
      using Clock = std::chrono::steady_clock;
      const auto start = Clock::now();
      (void)fl::run_experiment(ocfg, opolicy);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      leg_ms[leg] = std::min(leg_ms[leg], ms);
      if (leg == 0) off_max_ms = std::max(off_max_ms, ms);
    }
  }
  registry.clear_sinks();
  const double telemetry_off_ms = leg_ms[0];
  const double telemetry_on_ms = leg_ms[1];
  const double overhead_pct =
      telemetry_off_ms > 0.0
          ? (telemetry_on_ms - telemetry_off_ms) / telemetry_off_ms * 100.0
          : 0.0;
  const double kTracingBudgetPct = 3.0;
  std::printf(
      "\ntelemetry overhead (run_experiment, cancer K=%lld Kt=%lld "
      "T=%lld, Fed-CDP, min of %d interleaved reps):\n  off %.2f ms | "
      "on (JSONL sink) %.2f ms | overhead %+.2f%% (budget %.0f%%)  "
      "(JSONL: %s)\n",
      static_cast<long long>(ocfg.total_clients),
      static_cast<long long>(ocfg.clients_per_round),
      static_cast<long long>(ocfg.rounds), overhead_reps, telemetry_off_ms,
      telemetry_on_ms, overhead_pct, kTracingBudgetPct,
      telemetry_path.c_str());

  // Machine-readable record, printed and saved for CI artifacts.
  json::Value doc = json::Value::object();
  doc["bench"] = "bench_perf_hotpath";
  doc["batch_size"] = dims.batch_size;
  doc["local_iterations"] = dims.local_iterations;
  doc["timed_rounds"] = dims.timed_rounds;
  doc["threads"] = static_cast<std::int64_t>(compute_pool().size());
  json::Value results = json::Value::array();
  for (const Row& r : rows) {
    json::Value row = json::Value::object();
    row["model"] = r.model;
    row["policy"] = r.policy;
    row["per_example"] = r.per_example;
    row["sliced_ms"] = r.sliced_ms;
    row["batched_ms"] = r.batched_ms;
    row["speedup"] = r.speedup();
    results.push_back(std::move(row));
  }
  doc["results"] = std::move(results);
  json::Value engine_only = json::Value::array();
  for (const EngineRow& r : engine_rows) {
    json::Value row = json::Value::object();
    row["model"] = r.model;
    row["sliced_ms"] = r.sliced_ms;
    row["batched_ms"] = r.batched_ms;
    row["speedup"] = r.speedup();
    engine_only.push_back(std::move(row));
  }
  doc["engine_only"] = std::move(engine_only);
  json::Value batch_grad = json::Value::array();
  for (const BatchGradRow& r : batch_grad_rows) {
    json::Value row = json::Value::object();
    row["model"] = r.model;
    row["reference_ms"] = r.reference_ms;
    row["tape_ms"] = r.tape_ms;
    row["speedup"] = r.speedup();
    batch_grad.push_back(std::move(row));
  }
  doc["batch_grad"] = std::move(batch_grad);
  json::Value stages_doc = json::Value::array();
  for (const CnnStages& c : cnn_stages) {
    json::Value entry = json::Value::object();
    entry["side"] = c.side;
    entry["batch_size"] = kStageBatch;
    json::Value ms = json::Value::object();
    for (const auto& [name, v] : c.stage_ms) ms[name] = v;
    entry["stage_ms"] = std::move(ms);
    entry["residual_ms"] = c.residual_ms();
    entry["compute_gradients_ms"] = c.whole_ms;
    stages_doc.push_back(std::move(entry));
  }
  doc["cnn_stages"] = std::move(stages_doc);
  json::Value sanitize = json::Value::object();
  sanitize["mfloats_per_s_1t"] = sanitize_mfloats_1t;
  sanitize["mfloats_per_s_4t"] = sanitize_mfloats_4t;
  doc["fused_sanitize"] = std::move(sanitize);
  json::Value floor = json::Value::object();
  floor["model"] = "MLP";
  floor["fedcdp_ms"] = mlp_floor.fedcdp_ms;
  floor["non_private_ms"] = mlp_floor.non_private_ms;
  floor["draws"] = mlp_floor.draws;
  floor["row_mfloats_per_s"] = mlp_floor.row_mfloats_per_s;
  floor["floor_ms"] = mlp_floor.floor_ms();
  doc["noise_floor"] = std::move(floor);
  json::Value overhead = json::Value::object();
  overhead["config"] = "cancer K=4 Kt=2 Fed-CDP";
  overhead["rounds"] = ocfg.rounds;
  overhead["reps"] = overhead_reps;
  overhead["telemetry_off_ms"] = telemetry_off_ms;
  overhead["telemetry_on_ms"] = telemetry_on_ms;
  overhead["overhead_pct"] = overhead_pct;
  doc["telemetry_overhead"] = std::move(overhead);
  // Gating metrics for fedcl_report.py diff: the Fed-CDP hot-path
  // round time and engine speedups (the paper-Table-III quantities this
  // bench exists to guard), plus the telemetry overhead budget.
  for (const Row& r : rows) {
    if (!r.per_example) continue;
    bench::add_metric(doc, "round_ms." + r.model + "." + r.policy,
                      r.batched_ms, "lower", "time");
    bench::add_metric(doc, "round_speedup." + r.model + "." + r.policy,
                      r.speedup(), "higher", "ratio");
  }
  for (const EngineRow& r : engine_rows) {
    bench::add_metric(doc, "engine_ms." + r.model, r.batched_ms, "lower",
                      "time");
    bench::add_metric(doc, "engine_speedup." + r.model, r.speedup(),
                      "higher", "ratio");
  }
  // The tape over autograd for the batch gradient, one thread, same
  // run. The CNN reads near 1 (both sides spend their time in the same
  // conv kernels), so its entry guards against a regression.
  for (const BatchGradRow& r : batch_grad_rows) {
    bench::add_metric(doc, "batch_grad_speedup." + r.model, r.speedup(),
                      "higher", "ratio");
  }
  // The CNN stage table: absolute one-thread times, class "time".
  for (const CnnStages& c : cnn_stages) {
    const std::string prefix = "cnn_stage_ms." + std::to_string(c.side) +
                               "x" + std::to_string(c.side) + ".";
    for (const auto& [name, v] : c.stage_ms) {
      bench::add_metric(doc, prefix + name, v, "lower", "time");
    }
    bench::add_metric(doc, prefix + "residual", c.residual_ms(), "lower",
                      "time");
    bench::add_metric(doc, prefix + "compute_gradients", c.whole_ms, "lower",
                      "time");
  }
  // Absolute throughput is host-specific (class "time"); the 1->4
  // thread scaling ratio is the portable, gated number — it only drops
  // if the sanitizer re-serializes.
  bench::add_metric(doc, "sanitize_mfloats_per_s", sanitize_mfloats_1t,
                    "higher", "time");
  bench::add_metric(doc, "sanitize_scaling_1to4",
                    sanitize_mfloats_1t > 0.0
                        ? sanitize_mfloats_4t / sanitize_mfloats_1t
                        : 0.0,
                    "higher", "ratio");
  // How far the Fed-CDP round sits above what its noise allows; all
  // three legs come from this run on one thread.
  bench::add_metric(doc, "fedcdp_floor_ratio.MLP", mlp_floor.ratio(),
                    "lower", "ratio");
  // Class "time": the overhead is a delta between two wall-clock
  // timings and inherits their host noise, so cross-host CI skips it
  // with --ignore-class time like the other absolute timings.
  bench::add_metric(doc, "telemetry_overhead_pct", overhead_pct, "lower",
                    "time");
  if (!bench::emit_bench_json("perf_hotpath", doc)) return 1;
  // Hard in-bench gate: cross-host CI ignores class "time", so the
  // tracing budget is enforced here where the legs ran interleaved on
  // one host. It only arms when the measurement is trustworthy: not
  // at smoke scale (runs too short to resolve a percent-level delta)
  // and not when the off leg itself would not repeat within the budget
  // (a loaded/1-core host cannot attribute a 3% delta to tracing).
  const double off_spread_pct =
      telemetry_off_ms > 0.0
          ? (off_max_ms - telemetry_off_ms) / telemetry_off_ms * 100.0
          : 0.0;
  if (bench_scale() != BenchScale::kSmoke &&
      overhead_pct > kTracingBudgetPct) {
    if (off_spread_pct <= kTracingBudgetPct) {
      std::fprintf(stderr,
                   "GATE FAILED: tracing overhead %.2f%% exceeds the %.0f%% "
                   "budget (off-leg spread %.2f%%)\n",
                   overhead_pct, kTracingBudgetPct, off_spread_pct);
      return 1;
    }
    std::printf(
        "tracing gate SKIPPED: off-leg spread %.2f%% exceeds the %.0f%% "
        "budget — host too noisy to attribute the delta\n",
        off_spread_pct, kTracingBudgetPct);
  }
  return 0;
}
