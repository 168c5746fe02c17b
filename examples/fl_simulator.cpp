// fl_simulator: a command-line federated-learning simulator over the
// full policy and benchmark matrix — the "run your own experiment"
// entry point.
//
// Examples:
//   fl_simulator --dataset=mnist --policy=fed-cdp --clients=50
//                --per-round=10 --rounds=30 --sigma=0.25 --clip=4
//   fl_simulator --dataset=adult --policy=fed-sdp --dropout=0.2
//   fl_simulator --dataset=lfw --policy=fed-cdp-decay --attack
//   fl_simulator --dataset=mnist --policy=non-private --prune=0.3
//                --save=global.ckpt
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "attack/leakage_eval.h"
#include "common/env.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/metrics_http.h"
#include "common/run_info.h"
#include "common/telemetry.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/dssgd.h"
#include "fl/protocol.h"
#include "fl/trainer.h"
#include "privacy_line.h"

namespace {

using namespace fedcl;

// nullptr for a name the usage text does not list.
std::unique_ptr<core::PrivacyPolicy> parse_policy(const std::string& name,
                                                  double c, double sigma,
                                                  std::int64_t rounds) {
  if (name == "non-private") return core::make_non_private();
  if (name == "fed-sdp") return core::make_fed_sdp(c, sigma);
  if (name == "fed-cdp") return core::make_fed_cdp(c, sigma);
  if (name == "fed-cdp-decay") {
    return core::make_fed_cdp_decay(rounds, data::kDecayClipStart,
                                    data::kDecayClipEnd, sigma);
  }
  if (name == "dssgd") return std::make_unique<fl::DssgdPolicy>(0.1);
  return nullptr;
}

// What --help prints (a printf format, the program name its one
// argument), and the flags the binary accepts.
constexpr char kUsage[] =
    "usage: %s [--dataset=mnist|cifar10|lfw|adult|cancer]\n"
    "          [--policy=non-private|fed-sdp|fed-cdp|fed-cdp-decay|dssgd]\n"
    "          [--clients=K] [--per-round=Kt] [--rounds=T] "
    "[--local-iters=L]\n"
    "          [--sigma=S] [--clip=C] [--prune=R] [--dropout=P]\n"
    "          [--server-momentum=M] [--attack]\n"
    "          [--seed=N] [--eval-every=N]\n"
    "          [--fault-rate=P] [--min-reporting=N] [--no-retry]\n"
    "          [--screen-max-norm=C]\n"
    "          [--async] [--async-min-apply=M] [--staleness-alpha=A]\n"
    "          [--max-staleness=S] [--retry-attempts=N]\n"
    "          [--retry-backoff-ms=B] [--soft-deadline-ms=D]\n"
    "          [--reduced-quorum=N]\n"
    "          [--streaming]  (fold the cohort in edge-aggregator units "
    "of --tree-fan-out clients, not one)\n"
    "          [--tree-fan-out=F]  (edge-aggregator fan-out, power of "
    "two; default 64)\n"
    "          [--telemetry-out=FILE.jsonl] [--telemetry-prom=FILE.prom]\n"
    "          [--metrics-port=N]  (serve /metrics over HTTP; 0 = "
    "ephemeral port)\n"
    "          [--save=FILE.ckpt]  (write the final global model)\n";

// Writes the --telemetry-prom dump if requested on EVERY exit path,
// including FEDCL_CHECK failures and other exceptions, so a crashed
// run keeps its partial counters. (The JSONL sink needs no guard: the
// global registry flushes its sinks at exit.)
class PromDumpGuard {
 public:
  explicit PromDumpGuard(std::string prom_path)
      : prom_path_(std::move(prom_path)) {}
  ~PromDumpGuard() {
    if (prom_path_.empty()) return;
    std::ofstream prom(prom_path_);
    if (!prom.good()) {
      std::fprintf(stderr,
                   "fl_simulator: cannot open --telemetry-prom file '%s'\n",
                   prom_path_.c_str());
      return;
    }
    prom << telemetry::global_registry().prometheus_text();
  }

 private:
  std::string prom_path_;
};

int run_simulator(const FlagParser& flags) {
  // Telemetry plumbing comes first so every later failure still
  // leaves the --telemetry-prom dump behind.
  const std::string telemetry_out = flags.get("telemetry-out", "");
  if (!telemetry_out.empty()) {
    auto sink = std::make_unique<telemetry::JsonlSink>(telemetry_out);
    FEDCL_CHECK(sink->ok()) << "cannot open --telemetry-out file '"
                            << telemetry_out << "'";
    telemetry::global_registry().add_sink(std::move(sink));
  }
  telemetry::install_crash_flush_handler();
  PromDumpGuard prom_guard(flags.get("telemetry-prom", ""));

  std::unique_ptr<telemetry::MetricsHttpServer> metrics_server;
  if (flags.has("metrics-port")) {
    const auto port = static_cast<int>(flags.get_int("metrics-port", 0));
    metrics_server = std::make_unique<telemetry::MetricsHttpServer>(
        telemetry::global_registry());
    std::string error;
    FEDCL_CHECK(metrics_server->start(port, &error))
        << "cannot serve --metrics-port=" << port << ": " << error;
    std::printf("fl_simulator: serving http://127.0.0.1:%d/metrics\n",
                metrics_server->port());
    // Flush so a scraper reading redirected output learns the
    // ephemeral port now, not at process exit.
    std::fflush(stdout);
  }

  const Result<data::BenchmarkId> bench_id =
      data::parse_benchmark_id(flags.get("dataset", "mnist"));
  if (!bench_id.ok()) {
    std::fprintf(stderr, "fl_simulator: %s\n", bench_id.error().c_str());
    return 1;
  }
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(bench_id.value());
  config.total_clients = flags.get_int("clients", 20);
  config.clients_per_round = flags.get_int("per-round", 10);
  config.rounds = flags.get_int("rounds", 0);
  config.local_iterations = flags.get_int("local-iters", 0);
  config.prune_ratio = flags.get_double("prune", 0.0);
  config.client_dropout = flags.get_double("dropout", 0.0);
  config.server_momentum = flags.get_double("server-momentum", 0.0);
  config.eval_every = flags.get_int("eval-every", 5);
  config.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(experiment_seed())));
  config.faults.fault_rate = flags.get_double("fault-rate", 0.0);
  config.min_reporting = flags.get_int("min-reporting", 1);
  config.retry_failed_clients = !flags.get_bool("no-retry", false);
  config.screening.max_update_norm =
      flags.get_double("screen-max-norm", 0.0);
  config.async_mode = flags.get_bool("async", false);
  config.async.min_to_apply = flags.get_int("async-min-apply", 0);
  config.async.staleness_alpha = flags.get_double("staleness-alpha", 0.5);
  config.async.max_staleness = flags.get_int("max-staleness", 8);
  config.retry.max_attempts =
      static_cast<int>(flags.get_int("retry-attempts", 1));
  config.retry.base_backoff_ms = flags.get_double("retry-backoff-ms", 8.0);
  config.retry.soft_deadline_ms =
      flags.get_double("soft-deadline-ms", 100.0);
  config.reduced_min_reporting = flags.get_int("reduced-quorum", 0);
  config.streaming_aggregation = flags.get_bool("streaming", false);
  config.tree_fan_out = flags.get_int("tree-fan-out", 64);

  const double sigma =
      flags.get_double("sigma", data::default_noise_scale());
  const double clip =
      flags.get_double("clip", data::kDefaultClippingBound);
  config.noise_scale = sigma;
  const std::string policy_name = flags.get("policy", "fed-cdp");
  auto policy =
      parse_policy(policy_name, clip, sigma, config.effective_rounds());
  if (policy == nullptr) {
    std::fprintf(stderr,
                 "fl_simulator: unknown policy '%s' (non-private|fed-sdp|"
                 "fed-cdp|fed-cdp-decay|dssgd)\n",
                 policy_name.c_str());
    return 1;
  }

  std::printf("fl_simulator: %s on %s — K=%lld Kt=%lld T=%lld L=%lld "
              "B=%lld sigma=%.3f C=%.2f prune=%.0f%% dropout=%.0f%%\n",
              policy->name().c_str(), config.bench.name.c_str(),
              static_cast<long long>(config.total_clients),
              static_cast<long long>(config.clients_per_round),
              static_cast<long long>(config.effective_rounds()),
              static_cast<long long>(config.effective_local_iterations()),
              static_cast<long long>(config.bench.batch_size), sigma, clip,
              100 * config.prune_ratio, 100 * config.client_dropout);

  fl::FlRunResult result = fl::run_experiment(config, *policy);
  for (const auto& r : result.history) {
    if (r.accuracy == r.accuracy) {
      std::printf("  round %3lld  accuracy %.4f  grad-norm %7.3f  "
                  "%.2f ms/client\n",
                  static_cast<long long>(r.round + 1), r.accuracy,
                  r.mean_grad_norm, r.mean_client_ms);
    }
  }
  std::printf("final accuracy %.4f | %.2f ms per local iteration | "
              "%lld/%lld rounds completed (%lld dropped)\n",
              result.final_accuracy, result.ms_per_local_iteration,
              static_cast<long long>(result.completed_rounds),
              static_cast<long long>(result.completed_rounds +
                                     result.dropped_rounds),
              static_cast<long long>(result.dropped_rounds));

  const fl::RoundFailureStats& f = result.total_failures;
  if (f.injected_total() > 0 || f.dropouts > 0 || f.rejected_total() > 0) {
    std::printf(
        "faults: injected %lld (crash %lld, straggler %lld, corrupt %lld, "
        "bit-flip %lld, stale %lld) + %lld dropouts\n"
        "        rejected %lld (decode %lld, shape %lld, non-finite %lld, "
        "norm %lld, stale %lld) | retried %lld | quorum missed %lld\n",
        static_cast<long long>(f.injected_total()),
        static_cast<long long>(f.injected_crash),
        static_cast<long long>(f.injected_straggler),
        static_cast<long long>(f.injected_corrupt),
        static_cast<long long>(f.injected_bit_flip),
        static_cast<long long>(f.injected_stale),
        static_cast<long long>(f.dropouts),
        static_cast<long long>(f.rejected_total()),
        static_cast<long long>(f.rejected_decode),
        static_cast<long long>(f.rejected_shape),
        static_cast<long long>(f.rejected_non_finite),
        static_cast<long long>(f.rejected_norm_outlier),
        static_cast<long long>(f.rejected_stale),
        static_cast<long long>(f.retried_clients),
        static_cast<long long>(f.quorum_missed));
  }
  if (f.retry_attempts > 0 || f.fault_accepted_stale > 0 ||
      result.reduced_quorum_rounds > 0 || config.async_mode) {
    std::printf(
        "recovery: retries %lld | expired %lld | screened %lld | "
        "accepted stale %lld | reduced-quorum rounds %lld (max noise "
        "widening %.2fx)\n",
        static_cast<long long>(f.retry_attempts),
        static_cast<long long>(f.fault_expired),
        static_cast<long long>(f.fault_screened),
        static_cast<long long>(f.fault_accepted_stale),
        static_cast<long long>(result.reduced_quorum_rounds),
        result.max_noise_widening);
  }
  if (config.async_mode) {
    std::printf("async: %lld aggregate applications over %lld rounds "
                "(M=%lld, alpha=%.2f, max staleness %lld)\n",
                static_cast<long long>(result.async_applies),
                static_cast<long long>(config.effective_rounds()),
                static_cast<long long>(
                    fl::resolve_async_config(config.async,
                                             config.clients_per_round)
                        .min_to_apply),
                config.async.staleness_alpha,
                static_cast<long long>(config.async.max_staleness));
  }
  if (config.streaming_aggregation) {
    std::printf("streaming: fan-out %lld, max reducer occupancy %lld "
                "levels (bound: log2 of the cohort)\n",
                static_cast<long long>(config.tree_fan_out),
                static_cast<long long>(result.max_stream_levels));
  }

  const std::string save_path = flags.get("save", "");
  if (!save_path.empty()) {
    fl::save_weights(save_path, result.final_weights);
    std::printf("saved global model to %s\n", save_path.c_str());
  }

  print_privacy_line(*policy, result.privacy_setup);

  if (flags.get_bool("attack", false)) {
    std::printf("\nmounting the gradient-leakage attack...\n");
    attack::LeakageExperimentConfig lcfg;
    lcfg.bench = config.bench;
    lcfg.bench.model.activation = nn::Activation::kSigmoid;
    lcfg.clients = 2;
    lcfg.prune_ratio = config.prune_ratio;
    lcfg.seed = config.seed;
    attack::LeakageReport leak = attack::evaluate_leakage(lcfg, *policy);
    std::printf("type-0/1: %s (distance %.4f, %.0f iters)\n",
                leak.type01.any_success ? "LEAKS" : "resists",
                leak.type01.mean_distance, leak.type01.mean_iterations);
    std::printf("type-2:   %s (distance %.4f, %.0f iters)\n",
                leak.type2.any_success ? "LEAKS" : "resists",
                leak.type2.mean_distance, leak.type2.mean_iterations);
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  runinfo::set_command_line(argc, argv);
  FlagParser flags(argc, argv);
  if (flags.has("help")) {
    std::printf(kUsage, flags.program().c_str());
    return 0;
  }
  if (flags.refuse_unlisted(kUsage, "fl_simulator")) return 1;
  try {
    return run_simulator(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fl_simulator: %s\n", e.what());
    return 1;
  }
}
