// Table III: wall-clock cost of one local training iteration per
// client (ms), for each dataset and policy. Each cell times one
// client's Client::run_round over the benchmark's own L local
// iterations (the median of fixed reps after a warmup,
// bench::time_rounds) and divides by L, so Fed-SDP's once-per-round
// clip + noise is spread over the L
// iterations it covers, as in the paper's setting. The summary table
// is printed at the end.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "nn/model_zoo.h"

namespace {

using namespace fedcl;

// Timed run_round calls per cell, after one warmup call.
int timed_reps() { return bench_scale() == BenchScale::kPaper ? 3 : 20; }

struct Cell {
  std::string dataset;
  std::string policy;
  double ms_per_iter = 0.0;
};

// ms per local iteration of every policy on one dataset.
std::vector<Cell> time_dataset(data::BenchmarkId id) {
  const data::BenchmarkConfig cfg = data::benchmark_config(id);
  Rng root(experiment_seed());
  Rng drng = root.fork("data");
  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(cfg.train_spec, drng));
  data::PartitionSpec part = cfg.partition;
  part.num_clients = 1;
  Rng prng = root.fork("part");
  auto shards = data::partition(train, part, prng);
  Rng mrng = root.fork("model");
  std::shared_ptr<nn::Sequential> model = nn::build_model(cfg.model, mrng);
  const core::TensorList weights = model->weights();
  const fl::Client client(0, shards[0],
                          {.local_iterations = cfg.local_iterations,
                           .batch_size = cfg.batch_size,
                           .learning_rate = cfg.learning_rate});
  const bench::PolicySet policies = bench::make_policy_set(cfg.rounds);
  std::vector<Cell> cells;
  for (const core::PrivacyPolicy* policy : policies.all()) {
    const double round_ms = bench::time_rounds(
        [&](Rng& rng) {
          (void)client.run_round(*model, weights, *policy, /*round=*/0, rng);
        },
        /*warmup=*/1, timed_reps(), root.fork("round"));
    cells.push_back({cfg.name, policy->name(),
                     round_ms / static_cast<double>(cfg.local_iterations)});
  }
  return cells;
}

// `grid` holds one row of cells per dataset, policies in one order.
json::Value print_summary(const std::vector<std::vector<Cell>>& grid) {
  AsciiTable table("Table III — time cost per local iteration per client (ms)");
  std::vector<std::string> header = {"policy"};
  for (const std::vector<Cell>& dataset : grid)
    header.push_back(dataset.front().dataset);
  table.set_header(header);
  json::Value doc = json::Value::object();
  doc["bench"] = "bench_table3_timecost";
  json::Value results = json::Value::array();
  for (std::size_t p = 0; p < grid.front().size(); ++p) {
    std::vector<std::string> row = {grid.front()[p].policy};
    for (const std::vector<Cell>& dataset : grid) {
      const Cell& cell = dataset[p];
      row.push_back(AsciiTable::fmt(cell.ms_per_iter, 2));
      json::Value r = json::Value::object();
      r["dataset"] = cell.dataset;
      r["policy"] = cell.policy;
      r["ms_per_iter"] = cell.ms_per_iter;
      results.push_back(std::move(r));
      bench::add_metric(doc,
                        "ms_per_iter." + cell.dataset + "." + cell.policy,
                        cell.ms_per_iter, "lower", "time");
    }
    table.add_row(row);
  }
  doc["results"] = std::move(results);
  table.print();
  std::printf(
      "paper (ms): non-private 6.8/32.5/30.9/5.1/5.1, Fed-SDP "
      "6.9/33.8/31.3/5.2/5.1, Fed-CDP 22.4/131.5/112.4/11.8/11.9, "
      "Fed-CDP(decay) 22.6/132.1/114.6/12.1/12.0\n"
      "Expected shape: Fed-SDP ~= non-private; Fed-CDP ~3x non-private "
      "(per-example clipping+noise); decay adds negligible cost.\n");
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_bench(argc, argv);
  bench::print_preamble("bench_table3_timecost",
                        "Table III: time cost per local iteration (ms)");
  std::printf("one client per cell: ms per round of the benchmark's L local "
              "iterations / L, median of %d timed rounds after 1 warmup\n\n",
              timed_reps());
  std::vector<std::vector<Cell>> grid;
  for (data::BenchmarkId id : data::all_benchmarks())
    grid.push_back(time_dataset(id));
  const json::Value doc = print_summary(grid);
  return bench::emit_bench_json("table3_timecost", doc) ? 0 : 1;
}
