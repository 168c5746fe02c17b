// fedcl_perfbench: the round benchmark program for the Fed-CDP stack.
//
// Runs one named workload through the library's public entry points
// (fl::run_experiment, net::ServingServer + net::run_worker, and the
// layer functions listed under time_calls) and prints one JSON result
// line last on stdout:
//
//   fedcl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload is a closed loop: a round starts only after the
// previous one aggregated, and the experiment repeats with the same
// seed until the measuring window closes. --trace 0 reports the
// end-to-end metrics from an untraced pass. --trace 1 makes an
// untraced and a traced pass, times each layer's public calls on the
// workload's own model, batch and update, prints the stage tables and
// reports the per-layer metrics. perfbench/README.md lists every metric
// and the end-to-end number each one should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/run_info.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "dp/fused_sanitize.h"
#include "fl/client.h"
#include "fl/protocol.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "fl/tree_aggregation.h"
#include "fl/update_screening.h"
#include "fl/virtual_client.h"
#include "net/client_worker.h"
#include "net/frame.h"
#include "net/serving_server.h"
#include "net/wire.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "nn/per_example.h"
#include "tensor/simd.h"
#include "tensor/tensor_list.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fedcl;
using Clock = std::chrono::steady_clock;
using tensor::list::TensorList;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double process_cpu_ms() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// Process high-water resident set. VmHWM, not ru_maxrss: the latter
// keeps the launching process's peak across exec.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

// Linear interpolation between closest ranks; q in [0, 100].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::int64_t floor_log2(std::int64_t v) {
  std::int64_t bits = 0;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Engine { kSync, kServing, kStreaming };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSync:
      return "in-process sync";
    case Engine::kServing:
      return "sync serving over loopback TCP";
    case Engine::kStreaming:
      return "in-process streaming";
  }
  return "unknown";
}

struct Workload {
  const char* name;
  Engine engine;
  data::BenchmarkId bench;
  net::PolicyId policy;
  std::int64_t total_clients;      // K
  std::int64_t clients_per_round;  // Kt
  std::int64_t local_iterations;   // L (B comes from the benchmark config)
  std::int64_t rounds;             // per experiment repetition
  int pool_threads;                // compute pool, capped at nproc
  int workers = 0;                 // serving workers: one thread + conn each
  double fault_rate = 0.0;         // spread evenly over all five types
  int retry_attempts = 1;
  std::int64_t tree_fan_out = 64;
  // round_ms_tail's percentile: a pass times at least enough rounds
  // that ten lie beyond it (min_rounds).
  double tail_percentile = 95.0;

  std::int64_t min_rounds() const {
    return std::llround(10.0 / (1.0 - tail_percentile / 100.0));
  }
};

// Each workload makes one layer do most of the work (README.md):
// cdp_mlp the dp sanitizer, sdp_cnn_serving the nn/tensor kernels and
// the net transport, stream_virtual the per-client fl plumbing at
// K = 1,000,000. Together they cover the sync in-process, sync serving
// and streaming round loops; the two async loops are not covered yet.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {.name = "cdp_mlp",
       .engine = Engine::kSync,
       .bench = data::BenchmarkId::kAdult,
       .policy = net::PolicyId::kFedCdp,
       .total_clients = 100,
       .clients_per_round = 10,
       .local_iterations = 10,
       .rounds = 40,
       .pool_threads = 4},
      {.name = "sdp_cnn_serving",
       .engine = Engine::kServing,
       .bench = data::BenchmarkId::kMnist,
       .policy = net::PolicyId::kFedSdp,
       .total_clients = 100,
       .clients_per_round = 10,
       .local_iterations = 10,
       .rounds = 40,
       // One pool thread: each worker runs its kernels inline, like a
       // one-thread worker process. With two pool threads shared by the
       // two workers every small matmul is a cross-thread handoff, and
       // on a loaded VM that made throughput vary 2.8x across runs.
       .pool_threads = 1,
       .workers = 2},
      {.name = "stream_virtual",
       .engine = Engine::kStreaming,
       .bench = data::BenchmarkId::kCancer,
       .policy = net::PolicyId::kNonPrivate,
       .total_clients = 1000000,
       .clients_per_round = 2000,
       .local_iterations = 1,
       .rounds = 25,
       .pool_threads = 4,
       .fault_rate = 0.05,
       .retry_attempts = 2,
       .tree_fan_out = 64,
       .tail_percentile = 90.0},
  };
  return kAll;
}

net::ExperimentDescriptor descriptor_of(const Workload& w,
                                        std::uint64_t seed) {
  net::ExperimentDescriptor d;
  d.bench_id = static_cast<std::uint8_t>(w.bench);
  d.scale = static_cast<std::uint8_t>(BenchScale::kSmall);
  d.policy = w.policy;
  d.total_clients = w.total_clients;
  d.clients_per_round = w.clients_per_round;
  d.rounds = w.rounds;
  d.local_iterations = w.local_iterations;
  d.sigma = data::default_noise_scale(BenchScale::kSmall);
  d.clip = data::kDefaultClippingBound;
  d.seed = seed;
  return d;
}

// The in-process experiment; for the serving workload this is the
// PROTOCOL.md §5 yardstick its final weights must equal bitwise.
fl::FlExperimentConfig experiment_of(const Workload& w, std::uint64_t seed) {
  fl::FlExperimentConfig cfg;
  cfg.bench = data::benchmark_config(w.bench, BenchScale::kSmall);
  cfg.total_clients = w.total_clients;
  cfg.clients_per_round = w.clients_per_round;
  cfg.rounds = w.rounds;
  cfg.local_iterations = w.local_iterations;
  cfg.seed = seed;
  cfg.eval_every = 0;
  cfg.noise_scale = data::default_noise_scale(BenchScale::kSmall);
  cfg.faults.fault_rate = w.fault_rate;
  cfg.retry.max_attempts = w.retry_attempts;
  cfg.streaming_aggregation = w.engine == Engine::kStreaming;
  cfg.tree_fan_out = w.tree_fan_out;
  return cfg;
}

// ---------------------------------------------------------------------------
// Span collection

// Attached to every pass. The in-process engines expose per-round wall
// time only as fl.round span events, so the untraced pass keeps those
// and drops every other event; the traced pass also folds each span
// into per-stage inclusive and self time. Self time is a span's
// duration minus the part of it its local child spans cover; children
// adopted from another process's context (parent_remote) run
// concurrently with the server and are left out.
class StageSink final : public telemetry::Sink {
 public:
  struct Stage {
    std::int64_t count = 0;
    double inclusive_ms = 0.0;
    double self_ms = 0.0;
  };
  struct RoundSpan {
    double start_ms = 0.0;
    double dur_ms = 0.0;
    double covered_ms = 0.0;  // by child spans (traced pass only)
  };

  explicit StageSink(bool traced) : traced_(traced) {}

  // Called under the registry's sink lock.
  void write(const telemetry::Event& e) override {
    if (e.kind != telemetry::Event::Kind::kSpan) return;
    const bool is_round = e.name == "fl.round";
    if (!traced_ && !is_round) return;
    const double start = e.start_ms;
    const double end = e.start_ms + e.value;
    double covered = 0.0;
    if (e.span_id != 0) {
      const auto it = children_.find(e.span_id);
      if (it != children_.end()) {
        covered = covered_length(std::move(it->second), start, end);
        children_.erase(it);
      }
    }
    if (is_round) rounds_.push_back({start, e.value, covered});
    if (!traced_) return;
    Stage& stage = stages_[stage_key(e)];
    ++stage.count;
    stage.inclusive_ms += e.value;
    stage.self_ms += std::max(0.0, e.value - covered);
    if (e.parent_span != 0 && !e.parent_remote) {
      children_[e.parent_span].emplace_back(start, end);
    }
  }

  const std::vector<RoundSpan>& rounds() const { return rounds_; }
  const std::map<std::string, Stage>& stages() const { return stages_; }

 private:
  // "name{key=value,...}", with the per-worker label folded away.
  static std::string stage_key(const telemetry::Event& e) {
    std::string labels;
    for (const auto& [key, value] : e.labels) {
      if (key == "worker") continue;
      if (!labels.empty()) labels += ",";
      labels += key + "=" + value;
    }
    return labels.empty() ? e.name : e.name + "{" + labels + "}";
  }

  // Length of the union of `intervals`, clipped to [lo, hi].
  static double covered_length(std::vector<std::pair<double, double>> intervals,
                               double lo, double hi) {
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : intervals) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) total += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) total += run_hi - run_lo;
    return total;
  }

  bool traced_;
  std::vector<RoundSpan> rounds_;
  std::map<std::string, Stage> stages_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children_;
};

// ---------------------------------------------------------------------------
// Running the workload

// One repetition of the workload's experiment.
struct Rep {
  bool ok = true;
  std::string error;
  std::vector<double> round_ms;
  double setup_ms = 0.0;  // call start to the first fl.round span start
  std::int64_t rounds = 0;
  std::int64_t completed_rounds = 0;
  std::int64_t updates_accepted = 0;
  std::vector<std::uint8_t> weights;  // serialized final weights
  double final_accuracy = 0.0;
  fl::RoundFailureStats failures;
  std::int64_t reducer_levels = 0;
  double client_train_ms = 0.0;  // summed fl.client.local_train_ms
};

double histogram_sum(const telemetry::TelemetrySnapshot& snapshot,
                     const std::string& name) {
  const telemetry::HistogramSample* h = snapshot.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

Rep run_in_process(const Workload& w, std::uint64_t seed) {
  const fl::FlExperimentConfig cfg = experiment_of(w, seed);
  const std::unique_ptr<core::PrivacyPolicy> policy =
      net::make_policy(descriptor_of(w, seed));
  const fl::FlRunResult result = fl::run_experiment(cfg, *policy);
  Rep rep;
  rep.rounds = cfg.rounds;
  rep.completed_rounds = result.completed_rounds;
  for (const telemetry::SeriesPoint& p :
       result.telemetry.series_points("fl.round.accepted")) {
    rep.updates_accepted += static_cast<std::int64_t>(p.value);
  }
  rep.weights = fl::serialize_tensor_list(result.final_weights);
  rep.final_accuracy = result.final_accuracy;
  rep.failures = result.total_failures;
  rep.reducer_levels = result.max_stream_levels;
  rep.client_train_ms =
      histogram_sum(result.telemetry, "fl.client.local_train_ms");
  return rep;
}

// One ServingServer and w.workers run_worker threads in this process,
// talking over loopback TCP.
Rep run_serving(const Workload& w, std::uint64_t seed) {
  Rep rep;
  net::ServingOptions options;
  options.num_workers = w.workers;
  Result<std::unique_ptr<net::ServingServer>> server =
      net::ServingServer::create(descriptor_of(w, seed), options);
  if (!server.ok()) {
    rep.ok = false;
    rep.error = server.error();
    return rep;
  }
  const int port = server.value()->port();
  net::ServingReport report;
  std::thread server_thread([&] { report = server.value()->run(); });
  std::vector<std::thread> worker_threads;
  for (int k = 0; k < w.workers; ++k) {
    worker_threads.emplace_back([port, k, n = w.workers] {
      net::WorkerConfig config;
      config.port = port;
      config.worker_index = k;
      config.num_workers = n;
      (void)net::run_worker(config);
    });
  }
  server_thread.join();
  for (std::thread& t : worker_threads) t.join();

  rep.ok = report.ok;
  rep.error = report.error;
  rep.round_ms = report.round_ms;
  rep.rounds = report.rounds;
  rep.completed_rounds = report.completed_rounds;
  rep.updates_accepted = report.updates_accepted;
  rep.weights = fl::serialize_tensor_list(report.final_weights);
  rep.final_accuracy = report.final_accuracy;
  rep.failures = report.failures;
  // Server and workers share this process's registry, which run()
  // reset at its start.
  rep.client_train_ms = histogram_sum(telemetry::global_registry().snapshot(),
                                      "fl.client.local_train_ms");
  return rep;
}

Rep run_rep(const Workload& w, std::uint64_t seed, const StageSink& sink) {
  const std::size_t first_round = sink.rounds().size();
  const double t0 = telemetry::global_registry().now_ms();
  Rep rep = w.engine == Engine::kServing ? run_serving(w, seed)
                                         : run_in_process(w, seed);
  const std::vector<StageSink::RoundSpan>& rounds = sink.rounds();
  if (rounds.size() <= first_round) {
    if (rep.ok) {
      rep.ok = false;
      rep.error = "no fl.round span observed";
    }
    return rep;
  }
  rep.setup_ms = rounds[first_round].start_ms - t0;
  if (w.engine != Engine::kServing) {
    for (std::size_t i = first_round; i < rounds.size(); ++i) {
      rep.round_ms.push_back(rounds[i].dur_ms);
    }
  }
  return rep;
}

struct Pass {
  std::vector<Rep> reps;
  std::vector<double> round_ms;  // every timed round of every repetition
  std::vector<StageSink::RoundSpan> round_spans;
  std::map<std::string, StageSink::Stage> stages;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;

  std::int64_t rounds() const {
    return static_cast<std::int64_t>(round_ms.size());
  }
  double round_wall_ms() const {
    double total = 0.0;
    for (double ms : round_ms) total += ms;
    return total;
  }
};

// Repeats the experiment until `seconds` have passed, at least two
// repetitions ran (the determinism check compares them) and at least
// `min_rounds` rounds were timed.
Pass run_pass(const Workload& w, std::uint64_t seed, double seconds,
              bool traced, std::int64_t min_rounds) {
  telemetry::Registry& registry = telemetry::global_registry();
  registry.clear_sinks();
  auto owned = std::make_unique<StageSink>(traced);
  const StageSink* sink = owned.get();
  registry.add_sink(std::move(owned));

  Pass pass;
  // Hard stop well inside the 180 s a run may take.
  const double limit_ms = 1e3 * (3.0 * seconds + 30.0);
  const double cpu0 = process_cpu_ms();
  const Clock::time_point start = Clock::now();
  for (;;) {
    Rep rep = run_rep(w, seed, *sink);
    const bool ok = rep.ok;
    pass.round_ms.insert(pass.round_ms.end(), rep.round_ms.begin(),
                         rep.round_ms.end());
    pass.reps.push_back(std::move(rep));
    const double elapsed = ms_since(start);
    if (!ok || elapsed > limit_ms) break;
    if (elapsed >= 1e3 * seconds && pass.reps.size() >= 2 &&
        pass.rounds() >= min_rounds) {
      break;
    }
  }
  pass.wall_ms = ms_since(start);
  pass.cpu_ms = process_cpu_ms() - cpu0;
  pass.round_spans = sink->rounds();
  pass.stages = sink->stages();
  registry.clear_sinks();  // destroys the sink
  return pass;
}

// ---------------------------------------------------------------------------
// Output checks

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool all_finite(const std::vector<std::uint8_t>& blob) {
  Result<TensorList> list = fl::deserialize_tensor_list(fl::ByteSpan(blob));
  if (!list.ok()) return false;
  for (const tensor::Tensor& t : list.value()) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(p[i])) return false;
    }
  }
  return true;
}

// Appends one line per failed check. Every repetition of a pass ran the
// same seed, so all must end with the same final-weight hash.
void check_pass(const Workload& w, const Pass& pass,
                std::vector<std::string>& failed) {
  const std::uint64_t reference = fnv1a(pass.reps.front().weights);
  for (std::size_t i = 0; i < pass.reps.size(); ++i) {
    const Rep& rep = pass.reps[i];
    const std::string at = "repetition " + std::to_string(i) + ": ";
    if (!rep.ok) {
      failed.push_back(at + "run failed: " + rep.error);
      continue;
    }
    if (rep.completed_rounds != rep.rounds) {
      failed.push_back(at + "completed " +
                       std::to_string(rep.completed_rounds) + " of " +
                       std::to_string(rep.rounds) + " rounds");
    }
    if (!all_finite(rep.weights)) {
      failed.push_back(at + "final weights are not all finite");
    }
    if (fnv1a(rep.weights) != reference) {
      failed.push_back(at +
                       "final-weight hash differs from repetition 0 at the "
                       "same seed");
    }
    if (rep.failures.injected_total() !=
        rep.failures.faults_resolved_total()) {
      failed.push_back(
          at + "fault ledger broken: injected " +
          std::to_string(rep.failures.injected_total()) + " != resolved " +
          std::to_string(rep.failures.faults_resolved_total()));
    }
    if (w.engine == Engine::kServing &&
        rep.updates_accepted != rep.rounds * w.clients_per_round) {
      failed.push_back(at + "updates accepted " +
                       std::to_string(rep.updates_accepted) +
                       " != rounds x Kt " +
                       std::to_string(rep.rounds * w.clients_per_round));
    }
    if (w.engine == Engine::kStreaming) {
      const std::int64_t bound = floor_log2(w.clients_per_round) + 1;
      if (rep.reducer_levels < 1 || rep.reducer_levels > bound) {
        failed.push_back(at + "reducer occupancy " +
                         std::to_string(rep.reducer_levels) +
                         " outside [1, floor(log2 Kt)+1 = " +
                         std::to_string(bound) + "]");
      }
    }
  }
}

// PROTOCOL.md §5: the socket path ends bitwise equal to the in-process
// sync engine at the same seed.
void check_serving_parity(const Workload& w, std::uint64_t seed,
                          const Rep& rep, std::vector<std::string>& failed) {
  const std::unique_ptr<core::PrivacyPolicy> policy =
      net::make_policy(descriptor_of(w, seed));
  const fl::FlRunResult in_process =
      fl::run_experiment(experiment_of(w, seed), *policy);
  if (fl::serialize_tensor_list(in_process.final_weights) != rep.weights) {
    failed.push_back(
        "serving final weights differ from fl::run_experiment at the same "
        "seed");
  }
}

// Test hook: corrupts one output before the checks run, so the
// benchmark's self-test can show that each check rejects a wrong result.
const std::vector<std::string>& injections() {
  static const std::vector<std::string> kAll = {
      "weight_byte", "repeat_hash", "nonfinite", "ledger", "levels",
      "updates"};
  return kAll;
}

void inject(const std::string& what, const Workload& w, Pass& pass) {
  // Low mantissa bit of the last weight: the value stays finite.
  auto flip = [](std::vector<std::uint8_t>& b) {
    if (b.size() >= 4) b[b.size() - 4] ^= 0x01;
  };
  Rep& last = pass.reps.back();
  if (what == "weight_byte") {
    for (Rep& rep : pass.reps) flip(rep.weights);
  } else if (what == "repeat_hash") {
    flip(last.weights);
  } else if (what == "nonfinite") {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (Rep& rep : pass.reps) {
      if (rep.weights.size() >= 4) {
        std::memcpy(rep.weights.data() + rep.weights.size() - 4, &nan, 4);
      }
    }
  } else if (what == "ledger") {
    ++last.failures.injected_crash;
  } else if (what == "levels") {
    last.reducer_levels = floor_log2(w.clients_per_round) + 2;
  } else if (what == "updates") {
    --last.updates_accepted;
  }
}

// ---------------------------------------------------------------------------
// Layer calls

// Median wall time of one call, in ms. `prepare` runs untimed before
// each call, for calls that consume or mutate their inputs.
double median_call_ms(double budget_ms, const std::function<void()>& prepare,
                      const std::function<void()>& call) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 || ms_since(start) < budget_ms) {
    prepare();
    const Clock::time_point t = Clock::now();
    call();
    samples.push_back(ms_since(t));
  }
  return median(std::move(samples));
}

double median_call_ms(double budget_ms, const std::function<void()>& call) {
  return median_call_ms(budget_ms, [] {}, call);
}

// One [call] stage: the median time of one call and how many such calls
// one round of the workload makes (0 for sub-stages of another stage,
// which the round total must not count twice).
struct CallStage {
  std::string metric;
  double ms = 0.0;
  double per_round = 0.0;
};

struct Calls {
  std::vector<CallStage> stages;
  double sanitize_mfloat_per_s = 0.0;
  double update_bytes = 0.0;
  double net_bytes_per_round = 0.0;
  double model_numel = 0.0;

  double ms(const std::string& metric) const {
    for (const CallStage& s : stages) {
      if (s.metric == metric) return s.ms;
    }
    return 0.0;
  }
  // Single-thread cost of one round, summed from the stages.
  double round_cost_ms() const {
    double total = 0.0;
    for (const CallStage& s : stages) total += s.ms * s.per_round;
    return total;
  }
};

// Times each layer's public calls on the workload's own model, batch and
// update, built from the seed the way the engines build them. Run on a
// compute-pool worker, so nested pool loops run inline and every number
// is a one-thread cost, as inside the engines' parallel client loops.
Calls time_calls(const Workload& w, std::uint64_t seed, double budget_ms) {
  const data::BenchmarkConfig bench =
      data::benchmark_config(w.bench, BenchScale::kSmall);
  const net::ExperimentDescriptor d = descriptor_of(w, seed);
  const std::unique_ptr<core::PrivacyPolicy> policy = net::make_policy(d);
  Rng root(seed);
  Rng data_rng = root.fork("train-data");
  const Rng part_rng = root.fork("partition");
  Rng model_rng = root.fork("model");
  const Rng round_rng = root.fork("rounds");
  auto train = std::make_shared<data::Dataset>(
      data::generate_synthetic(bench.train_spec, data_rng));
  data::PartitionSpec part = bench.partition;
  part.num_clients = w.total_clients;
  const fl::LocalTrainConfig local{
      .local_iterations = w.local_iterations,
      .batch_size = bench.batch_size,
      .learning_rate = bench.learning_rate,
      .lr_decay_per_round = bench.lr_decay_per_round};
  fl::FaultInjectionConfig faults;
  faults.fault_rate = w.fault_rate;
  const fl::VirtualClientProvider provider(train, part, part_rng, local,
                                           faults, seed);
  std::shared_ptr<nn::Sequential> model =
      nn::build_model(bench.model, model_rng);
  const dp::ParamGroups groups = fl::to_param_groups(model->layer_groups());
  const TensorList global = tensor::list::clone(model->weights());
  const std::int64_t batch_size = bench.batch_size;
  const double kt = static_cast<double>(w.clients_per_round);
  const bool serving = w.engine == Engine::kServing;
  const bool streaming = w.engine == Engine::kStreaming;

  Calls calls;
  calls.model_numel = static_cast<double>(tensor::list::total_numel(global));
  auto add = [&](const char* metric, double ms, double per_round) {
    calls.stages.push_back({metric, ms, per_round});
  };

  // nn: the kernels one local iteration runs.
  const fl::Client client = provider.client(0);
  Rng batch_rng = root.fork("perfbench-batch");
  const data::Batch batch = client.data().sample_batch(batch_rng, batch_size);
  TensorList grads;
  add("nn.batch_grad_ms", median_call_ms(budget_ms, [&] {
        grads = nn::compute_gradients(*model, batch.x, batch.labels);
      }),
      0.0);
  double accuracy = 0.0;
  add("nn.forward_ms", median_call_ms(budget_ms, [&] {
        accuracy = nn::evaluate_accuracy(*model, batch.x, batch.labels);
      }),
      0.0);
  tensor::list::PerExampleGrads per_example;
  add("nn.per_example_grad_ms", median_call_ms(budget_ms, [&] {
        per_example =
            nn::compute_per_example_gradients(*model, batch.x, batch.labels);
      }),
      0.0);

  // dp: the fused clip+noise passes over that batch, at the Fed-CDP
  // bound and noise of the workload's descriptor.
  const auto b = static_cast<std::size_t>(batch_size);
  const std::vector<double> bounds(b, d.clip);
  const std::vector<double> stddevs(b, d.sigma * d.clip);
  std::vector<std::uint64_t> keys(b);
  for (std::uint64_t& k : keys) k = batch_rng.next_u64();
  std::vector<double> norms;
  const double norms_ms = median_call_ms(
      budget_ms, [&] { norms = dp::batch_group_norms(per_example, groups); });
  const double scale_noise_ms = median_call_ms(budget_ms, [&] {
    dp::batch_scale_noise(per_example, groups, norms, bounds, stddevs, keys);
  });
  add("dp.norms_ms", norms_ms, 0.0);
  add("dp.scale_noise_ms", scale_noise_ms, 0.0);
  calls.sanitize_mfloat_per_s = static_cast<double>(batch_size) *
                                calls.model_numel /
                                (norms_ms + scale_noise_ms) / 1e3;

  // fl, client side: one local round, then the transport path.
  fl::ClientRoundOutcome outcome;
  add("fl.local_train_ms", median_call_ms(budget_ms, [&] {
        Rng crng = fl::VirtualClientProvider::training_stream(round_rng, 0, 0);
        outcome = client.run_round(*model, global, *policy, 0, crng);
      }),
      kt);
  const fl::ClientUpdate& update = outcome.update;
  std::vector<std::uint8_t> plain, sealed, opened, input;
  add("fl.serialize_ms",
      median_call_ms(budget_ms, [&] { plain = fl::serialize_update(update); }),
      kt);
  calls.update_bytes = static_cast<double>(plain.size());
  const fl::SecureChannel channel(fl::client_channel_key(seed, 0));
  add("fl.seal_ms",
      median_call_ms(
          budget_ms, [&] { input = plain; },
          [&] { sealed = channel.seal(std::move(input)); }),
      kt);
  bool decoded_ok = true;
  add("fl.open_ms",
      median_call_ms(
          budget_ms, [&] { input = sealed; },
          [&] {
            Result<std::vector<std::uint8_t>> r =
                channel.open(std::move(input));
            decoded_ok = r.ok();
            if (decoded_ok) opened = r.take();
          }),
      kt);
  add("fl.deserialize_ms", median_call_ms(budget_ms, [&] {
        decoded_ok = decoded_ok &&
                     fl::deserialize_update(fl::ByteSpan(opened)).ok();
      }),
      kt);
  FEDCL_CHECK(decoded_ok) << "update failed to round-trip the channel";

  // fl, server side and streaming.
  fl::Server server(tensor::list::clone(global));
  Rng sample_rng = round_rng.fork("perfbench-sample");
  std::vector<std::size_t> chosen;
  add("fl.sample_ms", median_call_ms(budget_ms, [&] {
        chosen = server.sample_clients(
            static_cast<std::size_t>(w.total_clients),
            static_cast<std::size_t>(w.clients_per_round), sample_rng);
      }),
      1.0);
  std::optional<fl::Client> materialized;
  std::int64_t next_id = 0;
  add("fl.virtual_client_ms",
      median_call_ms(
          budget_ms,
          [&] {
            materialized.reset();
            next_id = (next_id + 7919) % w.total_clients;
          },
          [&] { materialized.emplace(provider.client(next_id)); }),
      kt);
  const fl::UpdateScreener screener;
  const std::vector<tensor::Shape> shapes = tensor::list::shapes_of(global);
  bool screened_ok = true;
  add("fl.screen_ms", median_call_ms(budget_ms, [&] {
        fl::ScreeningReport report;
        screened_ok =
            screener.screen_one(update, shapes, 0, 0, report).accepted();
      }),
      streaming ? kt : 0.0);
  FEDCL_CHECK(screened_ok) << "a fresh update failed screening";
  fl::StreamingReducer reducer;
  TensorList leaf;
  add("fl.fold_ms",
      median_call_ms(
          budget_ms, [&] { leaf = tensor::list::clone(update.delta); },
          [&] { reducer.push(std::move(leaf), 1.0); }),
      streaming ? kt : 0.0);
  std::vector<fl::ClientUpdate> cohort;
  Rng agg_rng = round_rng.fork("perfbench-aggregate");
  add("fl.aggregate_ms",
      median_call_ms(
          budget_ms,
          [&] {
            cohort.clear();
            for (std::int64_t k = 0; k < w.clients_per_round; ++k) {
              cohort.push_back({k, server.round(),
                                tensor::list::clone(update.delta)});
            }
          },
          [&] { (void)server.aggregate(std::move(cohort), *policy, groups,
                                       agg_rng); }),
      streaming ? 0.0 : 1.0);

  // net: the codecs one serving round runs, Kt updates and one train
  // request per worker.
  if (serving) {
    net::UpdateMsg msg;
    msg.client_id = 0;
    msg.data_size = client.data().size();
    msg.sealed = sealed;
    std::vector<std::uint8_t> update_payload, request_payload;
    const double encode_update_ms = median_call_ms(
        budget_ms, [&] { update_payload = net::encode_update(msg); });
    const double decode_update_ms = median_call_ms(budget_ms, [&] {
      decoded_ok = decoded_ok && net::decode_update(update_payload).ok();
    });
    net::TrainRequestMsg request;
    for (std::int64_t k = 0; k < w.clients_per_round; k += w.workers) {
      request.client_ids.push_back(k);
    }
    request.weights_blob = fl::serialize_tensor_list(global);
    const double encode_request_ms = median_call_ms(
        budget_ms,
        [&] { request_payload = net::encode_train_request(request); });
    const double decode_request_ms = median_call_ms(budget_ms, [&] {
      decoded_ok =
          decoded_ok && net::decode_train_request(request_payload).ok();
    });
    FEDCL_CHECK(decoded_ok) << "serving codecs failed to round-trip";
    add("net.codec_ms",
        kt * (encode_update_ms + decode_update_ms) +
            w.workers * (encode_request_ms + decode_request_ms),
        1.0);
    calls.net_bytes_per_round =
        w.workers * static_cast<double>(net::kFrameHeaderBytes +
                                        request_payload.size()) +
        kt * static_cast<double>(net::kFrameHeaderBytes +
                                 update_payload.size());
  }
  return calls;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Throughput and set-up are medians over the pass's repetitions, so a
// burst of host noise during one repetition does not move them.
std::vector<Metric> end_to_end_metrics(const Workload& w, const Pass& pass,
                                       double rss_mib) {
  const double examples_per_update = static_cast<double>(
      w.local_iterations *
      data::benchmark_config(w.bench, BenchScale::kSmall).batch_size);
  std::vector<double> throughputs, setups;
  for (const Rep& rep : pass.reps) {
    double round_ms = 0.0;
    for (double ms : rep.round_ms) round_ms += ms;
    if (round_ms > 0.0) {
      throughputs.push_back(static_cast<double>(rep.updates_accepted) *
                            examples_per_update / (round_ms / 1e3));
    }
    setups.push_back(rep.setup_ms);
  }
  return {
      {"examples_per_s", median(throughputs), "examples/s"},
      {"round_ms_p50", percentile(pass.round_ms, 50.0), "ms"},
      {"setup_s", median(setups) / 1e3, "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
}

// Sum of the self time of every stage named `name` (and carrying exactly
// `labels` when given).
double self_ms(const Pass& pass, const std::string& name,
               const std::string& labels = "") {
  double total = 0.0;
  for (const auto& [key, stage] : pass.stages) {
    const bool match = labels.empty()
                           ? key.substr(0, key.find('{')) == name
                           : key == name + "{" + labels + "}";
    if (match) total += stage.self_ms;
  }
  return total;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const Pass& plain,
                                      const Pass& traced, const Calls& calls) {
  const double rounds =
      static_cast<double>(std::max<std::int64_t>(1, traced.rounds()));
  auto per_round = [&](double ms) { return ms / rounds; };

  fl::RoundFailureStats failures;
  std::int64_t all_rounds = 0, accepted = 0, levels = 0;
  for (const Pass* pass : {&plain, &traced}) {
    for (const Rep& rep : pass->reps) {
      failures.accumulate(rep.failures);
      all_rounds += rep.rounds;
      accepted += rep.updates_accepted;
      levels = std::max(levels, rep.reducer_levels);
    }
  }
  const double slots = static_cast<double>(all_rounds) *
                       static_cast<double>(w.clients_per_round);
  const double n_rounds =
      static_cast<double>(std::max<std::int64_t>(1, all_rounds));

  const std::int64_t batch_size =
      data::benchmark_config(w.bench, BenchScale::kSmall).batch_size;
  double noise_per_client = 0.0;
  if (w.policy == net::PolicyId::kFedCdp) {
    noise_per_client = static_cast<double>(w.local_iterations * batch_size) *
                       calls.model_numel;
  } else if (w.policy == net::PolicyId::kFedSdp) {
    noise_per_client = calls.model_numel;
  }

  const double sanitize_ms = self_ms(traced, "dp.sanitize");
  double client_train_ms = 0.0;
  for (const Rep& rep : traced.reps) client_train_ms += rep.client_train_ms;

  double round_dur = 0.0, round_covered = 0.0;
  for (const StageSink::RoundSpan& r : traced.round_spans) {
    round_dur += r.dur_ms;
    round_covered += r.covered_ms;
  }
  const double plain_rounds =
      static_cast<double>(std::max<std::int64_t>(1, plain.rounds()));
  const double cpu_ms_per_round = plain.cpu_ms / plain_rounds;
  const double busy_threads =
      static_cast<double>(compute_pool().size()) + w.workers;
  const double plain_mean = plain.round_wall_ms() / plain_rounds;
  const double traced_mean = traced.round_wall_ms() / rounds;

  return {
      {"nn.batch_grad_ms", calls.ms("nn.batch_grad_ms"), "ms"},
      {"nn.forward_ms", calls.ms("nn.forward_ms"), "ms"},
      {"nn.per_example_grad_ms", calls.ms("nn.per_example_grad_ms"), "ms"},
      {"dp.norms_ms", calls.ms("dp.norms_ms"), "ms"},
      {"dp.scale_noise_ms", calls.ms("dp.scale_noise_ms"), "ms"},
      {"dp.sanitize_mfloat_per_s", calls.sanitize_mfloat_per_s, "Mfloat/s"},
      {"dp.sanitize_ms_per_round", per_round(sanitize_ms), "ms"},
      {"dp.sanitize_share",
       client_train_ms > 0.0 ? sanitize_ms / client_train_ms : 0.0,
       "fraction"},
      {"dp.noise_floats_per_round",
       static_cast<double>(accepted) * noise_per_client / n_rounds, "count"},
      {"fl.local_train_ms", calls.ms("fl.local_train_ms"), "ms"},
      {"fl.serialize_ms", calls.ms("fl.serialize_ms"), "ms"},
      {"fl.seal_ms", calls.ms("fl.seal_ms"), "ms"},
      {"fl.open_ms", calls.ms("fl.open_ms"), "ms"},
      {"fl.deserialize_ms", calls.ms("fl.deserialize_ms"), "ms"},
      {"fl.update_bytes", calls.update_bytes, "count"},
      {"fl.sample_ms", calls.ms("fl.sample_ms"), "ms"},
      {"fl.virtual_client_ms", calls.ms("fl.virtual_client_ms"), "ms"},
      {"fl.screen_ms", calls.ms("fl.screen_ms"), "ms"},
      {"fl.fold_ms", calls.ms("fl.fold_ms"), "ms"},
      {"fl.aggregate_ms", calls.ms("fl.aggregate_ms"), "ms"},
      {"fl.aggregate_phase_ms",
       per_round(self_ms(traced, "fl.phase", "phase=aggregate")), "ms"},
      {"fl.local_train_phase_ms",
       per_round(self_ms(traced, "fl.phase", "phase=local_train")), "ms"},
      {"fl.reducer_levels", static_cast<double>(levels), "count"},
      {"fl.retries_per_round",
       static_cast<double>(failures.retry_attempts) / n_rounds, "count"},
      {"fl.expired_per_round",
       static_cast<double>(failures.fault_expired) / n_rounds, "count"},
      {"fl.screened_per_round",
       static_cast<double>(failures.fault_screened) / n_rounds, "count"},
      {"ops_failed_frac",
       slots > 0.0 ? static_cast<double>(failures.fault_screened +
                                         failures.fault_expired) /
                         slots
                   : 0.0,
       "fraction"},
      {"net.dispatch_ms",
       per_round(self_ms(traced, "fl.phase", "phase=dispatch")), "ms"},
      {"net.recv_wait_ms", per_round(self_ms(traced, "fl.net.recv")), "ms"},
      {"net.screen_ms", per_round(self_ms(traced, "fl.net.screen")), "ms"},
      {"net.worker_train_ms",
       per_round(self_ms(traced, "fl.client.phase", "phase=local_train")),
       "ms"},
      {"net.worker_serialize_ms",
       per_round(self_ms(traced, "fl.client.phase", "phase=serialize")), "ms"},
      {"net.worker_upload_ms",
       per_round(self_ms(traced, "fl.client.phase", "phase=upload")), "ms"},
      {"net.codec_ms", calls.ms("net.codec_ms"), "ms"},
      {"net.bytes_per_round", calls.net_bytes_per_round, "count"},
      {"proc.cpu_ms_per_round", cpu_ms_per_round, "ms"},
      {"proc.cpu_util",
       plain.wall_ms > 0.0 ? plain.cpu_ms / (plain.wall_ms * busy_threads)
                           : 0.0,
       "fraction"},
      {"trace.closure.span", round_dur > 0.0 ? round_covered / round_dur : 0.0,
       "fraction"},
      {"trace.closure.call",
       cpu_ms_per_round > 0.0 ? calls.round_cost_ms() / cpu_ms_per_round : 0.0,
       "fraction"},
      {"trace.overhead_frac",
       plain_mean > 0.0 ? traced_mean / plain_mean - 1.0 : 0.0, "fraction"},
      // Two end-to-end numbers kept out of the end-to-end set: their
      // IQR/median across ten seeds exceeds any allowed bound on
      // sdp_cnn_serving (0.38 for the tail on a noisy host, 0.40 for the
      // accuracy). The accuracy is fixed by the seed and flags any
      // change to the arithmetic.
      {"round_ms_tail", percentile(plain.round_ms, w.tail_percentile), "ms"},
      {"final_accuracy", plain.reps.back().final_accuracy, "fraction"},
  };
}

// Which end-to-end metric each layer's numbers should move (README.md).
const char* const kLayerMap[] = {
    "nn.*          -> examples_per_s on sdp_cnn_serving; under ~6% of the "
    "cdp_mlp round",
    "dp.*          -> examples_per_s on cdp_mlp; no change predicted on the "
    "other two",
    "fl.* client   -> examples_per_s on stream_virtual (local_train, "
    "serialize, seal, open, deserialize, update_bytes)",
    "fl.* server   -> examples_per_s and peak_rss_mib on stream_virtual "
    "(sample, virtual_client, screen, fold, aggregate, counts)",
    "net.*         -> round_ms_p50 and round_ms_tail on sdp_cnn_serving; "
    "zero on the other two",
    "proc.*        -> examples_per_s on all three (idle cores show as low "
    "cpu_util)",
    "trace.*       -> round time no stage accounts for (closure) and the "
    "cost of tracing",
};

void print_trace_report(const Workload& w, const Pass& traced,
                        const Calls& calls,
                        const std::vector<Metric>& metrics) {
  const double rounds =
      static_cast<double>(std::max<std::int64_t>(1, traced.rounds()));
  std::printf("\n== %s: [span] stages, traced pass of %lld rounds ==\n",
              w.name, static_cast<long long>(traced.rounds()));
  std::printf("%-42s %12s %14s %14s\n", "span", "spans/round",
              "incl ms/round", "self ms/round");
  for (const auto& [key, stage] : traced.stages) {
    std::printf("%-42s %12.2f %14.4f %14.4f\n", key.c_str(),
                static_cast<double>(stage.count) / rounds,
                stage.inclusive_ms / rounds, stage.self_ms / rounds);
  }
  std::printf("\n== %s: [call] stages, median of one call on one thread ==\n",
              w.name);
  std::printf("%-42s %12s %14s %14s\n", "stage", "ms/call", "calls/round",
              "ms/round");
  for (const CallStage& s : calls.stages) {
    std::printf("%-42s %12.5f %14.0f %14.4f\n", s.metric.c_str(), s.ms,
                s.per_round, s.ms * s.per_round);
  }
  std::printf("%-42s %12s %14s %14.4f\n", "round total (calls/round > 0)", "",
              "", calls.round_cost_ms());
  for (const Metric& m : metrics) {
    if (m.name.rfind("trace.", 0) == 0 || m.name.rfind("proc.", 0) == 0) {
      std::printf("%s = %.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("\n== layer -> end-to-end metric it should move ==\n");
  for (const char* line : kLayerMap) std::printf("%s\n", line);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Manifest

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

std::string isa_level() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
  if (__builtin_cpu_supports("x86-64-v2")) return "x86-64-v2";
  return "x86-64";
#else
  return "non-x86";
#endif
}

bool avx512_dispatch() {
#if FEDCL_HAVE_V4_KERNELS
  return fedcl_cpu_has_v4();
#else
  return false;
#endif
}

json::Value manifest(const Workload& w, std::uint64_t seed, double seconds,
                     int trace, bool tiny) {
  const data::BenchmarkConfig bench =
      data::benchmark_config(w.bench, BenchScale::kSmall);
  json::Value params = json::Value::object();
  params["engine"] = engine_name(w.engine);
  params["benchmark"] = data::benchmark_name(w.bench);
  params["scale"] = "small";
  params["policy"] = net::policy_id_name(w.policy);
  params["K"] = w.total_clients;
  params["Kt"] = w.clients_per_round;
  params["L"] = w.local_iterations;
  params["B"] = bench.batch_size;
  params["rounds_per_experiment"] = tiny ? std::int64_t{3} : w.rounds;
  params["fault_rate"] = w.fault_rate;
  params["retry_attempts"] = w.retry_attempts;
  params["tree_fan_out"] = w.tree_fan_out;
  params["tail_percentile"] = w.tail_percentile;

  json::Value m = json::Value::object();
  m["workload"] = w.name;
  m["seed"] = static_cast<std::int64_t>(seed);
  m["seconds"] = seconds;
  m["trace"] = trace;
  m["tiny"] = tiny;
  m["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  m["compute_pool_threads"] = static_cast<std::int64_t>(compute_pool().size());
  m["worker_threads"] = w.workers;
  m["cpu_model"] = cpu_model();
  m["isa"] = isa_level();
  m["avx512_dispatch"] = avx512_dispatch();
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  m["git_sha"] = runinfo::current().git_sha;
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  m["source_digest"] = digest != nullptr ? digest : "unknown";
  m["params"] = std::move(params);
  json::Value line = json::Value::object();
  line["manifest"] = std::move(m);
  return line;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;      // self-test length: 3 rounds per experiment
  std::string inject;     // self-test hook, see injections()
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "fedcl_perfbench: %s\nusage: fedcl_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--tiny] "
               "[--inject WHAT]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--inject") {
        args.inject = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (!args.inject.empty() &&
      std::find(injections().begin(), injections().end(), args.inject) ==
          injections().end()) {
    usage("unknown --inject " + args.inject);
  }
  return args;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload '" + args.workload + "'");
  Workload w = *found;
  if (args.tiny) w.rounds = 3;

  // Before anything sizes the compute pool.
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  setenv("FEDCL_THREADS",
         std::to_string(std::min(w.pool_threads, nproc)).c_str(), 1);
  std::printf("%s\n",
              manifest(w, args.seed, args.seconds, args.trace, args.tiny)
                  .dump()
                  .c_str());

  const std::int64_t min_rounds = args.tiny ? 0 : w.min_rounds();
  std::vector<std::string> failed;
  std::vector<Metric> metrics;
  std::vector<const Pass*> passes;

  Pass plain, traced;
  if (args.trace == 0) {
    plain = run_pass(w, args.seed, args.seconds, false, 0);
    const double rss = peak_rss_mib();
    inject(args.inject, w, plain);
    metrics = end_to_end_metrics(w, plain, rss);
    passes = {&plain};
    std::printf(
        "%lld rounds; examples_per_s and setup_s are medians of %zu "
        "repetitions; final accuracy %.6f\n",
        static_cast<long long>(plain.rounds()), plain.reps.size(),
        plain.reps.back().final_accuracy);
  } else {
    // The untraced pass also yields round_ms_tail, so it times enough
    // rounds for ten to lie beyond the tail percentile.
    plain = run_pass(w, args.seed, 0.4 * args.seconds, false, min_rounds);
    std::printf(
        "round_ms_tail is p%g over %lld untraced rounds (%.0f beyond it)\n",
        w.tail_percentile, static_cast<long long>(plain.rounds()),
        static_cast<double>(plain.rounds()) *
            (1.0 - w.tail_percentile / 100.0));
    traced = run_pass(w, args.seed, 0.6 * args.seconds, true, 0);
    inject(args.inject, w, plain);
    const double budget_ms = args.tiny ? 2.0 : 150.0;
    Calls timed;
    compute_pool()
        .submit([&] { timed = time_calls(w, args.seed, budget_ms); })
        .get();
    metrics = per_layer_metrics(w, plain, traced, timed);
    print_trace_report(w, traced, timed, metrics);
    passes = {&plain, &traced};
    if (fnv1a(traced.reps.front().weights) !=
        fnv1a(plain.reps.front().weights)) {
      failed.push_back("the traced pass ended with different final weights");
    }
  }

  std::int64_t attempted = 0, failed_rounds = 0;
  for (const Pass* pass : passes) {
    check_pass(w, *pass, failed);
    for (const Rep& rep : pass->reps) {
      attempted += rep.rounds;
      failed_rounds += rep.rounds - rep.completed_rounds;
    }
  }
  if (w.engine == Engine::kServing) {
    check_serving_parity(w, args.seed, plain.reps.back(), failed);
  }

  json::Value metric_values = json::Value::object();
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) failed.push_back(m.name + " is not finite");
    json::Value v = json::Value::object();
    v["value"] = std::isfinite(m.value) ? m.value : 0.0;
    v["unit"] = m.unit;
    metric_values[m.name] = std::move(v);
  }
  for (const std::string& f : failed) {
    std::printf("check failed: %s\n", f.c_str());
  }
  json::Value result = json::Value::object();
  result["correct"] = failed.empty();
  result["attempted"] = attempted;
  result["failed"] = failed_rounds;
  result["metrics"] = std::move(metric_values);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  runinfo::set_command_line(argc, argv);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcl_perfbench: %s\n", e.what());
    return 1;
  }
}
