// Tests for the observability layer: run manifests (run_info), the
// JSONL meta header, the live /metrics HTTP exporter, and the
// metrics-documentation drift guard — every instrument the stack emits
// in a representative run must be documented in docs/METRICS.md and
// listed in docs/telemetry.schema.json's x-metric-names inventory.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "attack/leakage_eval.h"
#include "common/env.h"
#include "common/json.h"
#include "common/metrics_http.h"
#include "common/run_info.h"
#include "common/telemetry.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/trainer.h"
#include "tensor/simd.h"

namespace fedcl {
namespace {

#ifndef FEDCL_SOURCE_DIR
#define FEDCL_SOURCE_DIR "."
#endif

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Run manifest

TEST(RunInfo, CapturesHostSeedAndScale) {
  runinfo::RunInfo info = runinfo::current();
  EXPECT_FALSE(info.hostname.empty());
  EXPECT_FALSE(info.compiler.empty());
  // The CPU's x86-64 level, then "+clones" exactly when the kernels
  // were built as clones.
  const std::string level = fedcl_cpu_level();
  EXPECT_TRUE(level == "x86-64-v4" || level == "x86-64-v3" ||
              level == "baseline" || level == "non-x86")
      << level;
  EXPECT_EQ(info.isa, level + (FEDCL_KERNELS_CLONED ? "+clones" : ""));
  EXPECT_EQ(runinfo::to_json(info).find("host")->find("isa")->as_string(),
            info.isa);
  EXPECT_EQ(info.seed, experiment_seed());
  EXPECT_GE(info.hardware_threads, 1);
  EXPECT_GE(info.compute_threads, 1);
}

TEST(RunInfo, JsonShapeMatchesSchema) {
  json::Value v = runinfo::to_json();
  for (const char* key : {"git", "build", "host", "seed", "scale", "argv"}) {
    EXPECT_NE(v.find(key), nullptr) << "run manifest missing " << key;
  }
  const json::Value* git = v.find("git");
  ASSERT_NE(git, nullptr);
  ASSERT_NE(git->find("sha"), nullptr);
  EXPECT_NE(git->find("dirty"), nullptr);
  EXPECT_FALSE(git->find("sha")->as_string().empty());
  ASSERT_NE(v.find("host"), nullptr);
  EXPECT_NE(v.find("host")->find("name"), nullptr);
  ASSERT_NE(v.find("build"), nullptr);
  EXPECT_NE(v.find("build")->find("compiler"), nullptr);
}

TEST(RunInfo, JsonlMetaLineCarriesRunManifest) {
  std::ostringstream out;
  { telemetry::JsonlSink sink(&out); }
  std::istringstream lines(out.str());
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  json::Value meta;
  std::string error;
  ASSERT_TRUE(json::parse(first, meta, &error)) << error;
  ASSERT_NE(meta.find("type"), nullptr);
  EXPECT_EQ(meta.find("type")->as_string(), "meta");
  ASSERT_NE(meta.find("schema"), nullptr);
  EXPECT_EQ(meta.find("schema")->as_string(), "fedcl-telemetry-v1");
  const json::Value* run = meta.find("run");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(run->find("git"), nullptr);
  EXPECT_NE(run->find("git")->find("sha"), nullptr);
  ASSERT_NE(run->find("seed"), nullptr);
  EXPECT_EQ(run->find("seed")->as_int(),
            static_cast<std::int64_t>(experiment_seed()));
}

// ---------------------------------------------------------------------------
// Live /metrics exporter

std::string http_get(int port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(MetricsHttp, ServesByteIdenticalPrometheusText) {
  telemetry::Registry registry;
  registry.counter("fl.client.rounds_total", {{"engine", "batched"}}).add(7);
  registry.gauge("dp.epsilon", {{"level", "instance"}}).set(0.25);
  registry.histogram("fl.client.grad_norm", telemetry::norm_buckets())
      .observe(1.5);

  telemetry::MetricsHttpServer server(registry);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  ASSERT_GT(server.port(), 0);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // The exporter's body must be byte-identical to the --telemetry-prom
  // dump for the same registry state.
  EXPECT_EQ(body_of(response), registry.prometheus_text());

  // Scrape again after the state changed: the server reads live state.
  registry.counter("fl.client.rounds_total", {{"engine", "batched"}}).add(1);
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics")),
            registry.prometheus_text());

  EXPECT_NE(http_get(server.port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  server.stop();
}

// ---------------------------------------------------------------------------
// Documentation drift

std::set<std::string> emitted_names(const telemetry::TelemetrySnapshot& s) {
  std::set<std::string> names;
  for (const auto& c : s.counters) names.insert(c.name);
  for (const auto& g : s.gauges) names.insert(g.name);
  for (const auto& h : s.histograms) names.insert(h.name);
  for (const auto& p : s.series) names.insert(p.name);
  return names;
}

TEST(MetricsDoc, EveryEmittedNameIsDocumented) {
  // A representative run that exercises training, DP clipping, faults,
  // screening, eval, and the attack harness.
  fl::FlExperimentConfig config;
  config.bench = data::benchmark_config(data::BenchmarkId::kCancer);
  config.total_clients = 4;
  config.clients_per_round = 2;
  config.rounds = 3;
  config.eval_every = 1;
  config.seed = 42;
  config.faults.fault_rate = 0.4;
  config.screening.max_update_norm = 50.0;
  config.noise_scale = 0.5;
  auto policy = core::make_fed_cdp(4.0, 0.5);
  fl::FlRunResult result = fl::run_experiment(config, *policy);

  attack::LeakageExperimentConfig lcfg;
  lcfg.bench = config.bench;
  lcfg.clients = 1;
  lcfg.seed = 42;
  lcfg.attack.max_iterations = 3;
  attack::evaluate_leakage(lcfg, *policy);

  // The global registry now holds the union of both harnesses'
  // instruments (run_experiment resets it at entry, the attack
  // harness appends).
  std::set<std::string> names =
      emitted_names(telemetry::global_registry().snapshot());
  for (const auto& n : emitted_names(result.telemetry)) names.insert(n);
  ASSERT_FALSE(names.empty());

  const std::string source_dir = FEDCL_SOURCE_DIR;
  const std::string metrics_md =
      read_file_or_die(source_dir + "/docs/METRICS.md");
  const std::string schema_text =
      read_file_or_die(source_dir + "/docs/telemetry.schema.json");
  json::Value schema;
  std::string error;
  ASSERT_TRUE(json::parse(schema_text, schema, &error)) << error;
  const json::Value* listed = schema.find("x-metric-names");
  ASSERT_NE(listed, nullptr);
  std::set<std::string> inventory;
  for (const json::Value& item : listed->elements()) {
    inventory.insert(item.as_string());
  }

  for (const std::string& name : names) {
    EXPECT_NE(metrics_md.find(name), std::string::npos)
        << "metric '" << name << "' is emitted but not documented in "
        << "docs/METRICS.md — add it to the reference tables";
    EXPECT_TRUE(inventory.count(name) > 0)
        << "metric '" << name << "' is emitted but missing from "
        << "x-metric-names in docs/telemetry.schema.json";
  }
}

}  // namespace
}  // namespace fedcl
