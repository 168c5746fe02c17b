// Unit tests for the telemetry layer: instruments, label handling,
// sinks, snapshotting, and the JSONL/Prometheus serializations.
#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace fedcl::telemetry {
namespace {

TEST(TelemetryCounter, ConcurrentIncrementsFromPoolWorkers) {
  Registry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 250;
  compute_pool().parallel_for(kTasks, [&](std::size_t) {
    for (int i = 0; i < kPerTask; ++i) counter.add(1);
  });
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kTasks) * kPerTask);
}

TEST(TelemetryCounter, LabeledSeriesAreIndependent) {
  Registry registry;
  registry.counter("test.c", {{"k", "a"}}).add(2);
  registry.counter("test.c", {{"k", "b"}}).add(5);
  // Label order does not matter: {x,y} and {y,x} name one series.
  registry.counter("test.c2", {{"x", "1"}, {"y", "2"}}).add(1);
  registry.counter("test.c2", {{"y", "2"}, {"x", "1"}}).add(1);
  TelemetrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("test.c", {{"k", "a"}}), 2);
  EXPECT_EQ(snap.counter_value("test.c", {{"k", "b"}}), 5);
  EXPECT_EQ(snap.counter_value("test.c2", {{"y", "2"}, {"x", "1"}}), 2);
  EXPECT_EQ(snap.counter_value("test.missing"), 0);
}

TEST(TelemetryHistogram, BucketBoundariesAreInclusiveUpperEdges) {
  Registry registry;
  Histogram& h = registry.histogram("test.h", {1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (inclusive upper edge)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // overflow
  const std::vector<std::int64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(TelemetryHistogram, ExponentialBuckets) {
  const std::vector<double> b = exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(TelemetryRegistry, LabelCardinalityCapFoldsIntoOverflowSeries) {
  Registry registry;
  registry.set_series_limit(2);
  registry.counter("test.capped", {{"id", "1"}}).add(1);
  registry.counter("test.capped", {{"id", "2"}}).add(1);
  // Beyond the cap: folded into the overflow series, not a new one.
  registry.counter("test.capped", {{"id", "3"}}).add(1);
  registry.counter("test.capped", {{"id", "4"}}).add(1);
  TelemetrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("test.capped", {{"id", "1"}}), 1);
  EXPECT_EQ(snap.counter_value("test.capped", {{"id", "2"}}), 1);
  EXPECT_EQ(snap.counter_value("test.capped", {{"id", "3"}}), 0);
  EXPECT_EQ(snap.counter_value("test.capped", {{"overflow", "true"}}), 2);
}

TEST(TelemetryRegistry, ResetZeroesButKeepsReferencesValid) {
  Registry registry;
  Counter& c = registry.counter("test.c");
  Gauge& g = registry.gauge("test.g");
  Histogram& h = registry.histogram("test.h", {1.0});
  c.add(7);
  g.set(3.5);
  h.observe(0.5);
  registry.record_point("test.series", 0, 1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0);
  // A gauge this run has not set is absent, not 0.
  EXPECT_TRUE(std::isnan(registry.snapshot().gauge_value("test.g")));
  EXPECT_EQ(h.count(), 0);
  EXPECT_TRUE(registry.snapshot().series_points("test.series").empty());
  // The same references keep working after reset.
  c.add(1);
  g.set(1.5);
  EXPECT_EQ(registry.snapshot().counter_value("test.c"), 1);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge_value("test.g"), 1.5);
}

TEST(TelemetryRegistry, GaugeUnsetSinceResetIsAbsent) {
  // A later run that sets no gauge must not report an earlier run's
  // gauges at 0 (a privacy budget of 0 for a run that accounts none).
  Registry registry;
  Gauge& g = registry.gauge("test.g", {{"level", "instance"}});
  EXPECT_TRUE(registry.snapshot().gauges.empty());
  g.set(2.5);
  registry.reset();
  const TelemetrySnapshot unset = registry.snapshot();
  EXPECT_TRUE(unset.gauges.empty());
  EXPECT_TRUE(std::isnan(unset.gauge_value("test.g", {{"level", "instance"}})));
  EXPECT_EQ(registry.prometheus_text().find("fedcl_test_g"),
            std::string::npos);
  g.set(0.0);
  const TelemetrySnapshot set = registry.snapshot();
  ASSERT_EQ(set.gauges.size(), 1u);
  EXPECT_EQ(set.gauge_value("test.g", {{"level", "instance"}}), 0.0);
  EXPECT_NE(registry.prometheus_text().find(
                "fedcl_test_g{level=\"instance\"} 0"),
            std::string::npos);
}

TEST(TelemetryRegistry, RecordPointBuildsOrderedSeries) {
  Registry registry;
  registry.record_point("test.eps", 0, 1.5, {{"level", "instance"}});
  registry.record_point("test.eps", 1, 2.5, {{"level", "instance"}});
  registry.record_point("test.eps", 0, 9.0, {{"level", "client"}});
  const std::vector<SeriesPoint> pts =
      registry.snapshot().series_points("test.eps", {{"level", "instance"}});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].step, 0);
  EXPECT_DOUBLE_EQ(pts[0].value, 1.5);
  EXPECT_EQ(pts[1].step, 1);
  EXPECT_DOUBLE_EQ(pts[1].value, 2.5);
}

// Every line the JSONL sink writes must parse back with the fields the
// schema promises, in emission order.
TEST(TelemetryJsonl, RoundTripsThroughTheJsonParser) {
  // The stream must outlive the registry: the sink flushes into it on
  // destruction.
  std::ostringstream out;
  Registry registry;
  registry.add_sink(std::make_unique<JsonlSink>(&out, registry));
  registry.record_point("test.point", 3, 0.25, {{"k", "v"}});
  {
    SpanTimer span(registry, "test.span", {{"phase", "x"}}, 3);
  }
  registry.log_line("WARN", "something \"quoted\"\n");
  registry.flush_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::vector<json::Value> docs;
  while (std::getline(in, line)) {
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(line, v, &error)) << error << " in: " << line;
    docs.push_back(std::move(v));
  }
  ASSERT_EQ(docs.size(), 4u);

  EXPECT_EQ(docs[0].find("type")->as_string(), "meta");
  EXPECT_EQ(docs[0].find("schema")->as_string(), "fedcl-telemetry-v1");
  // The anchor that places start_ms on the wall clock, and the process.
  EXPECT_DOUBLE_EQ(docs[0].find("wall_epoch_unix_ms")->as_double(),
                   registry.wall_epoch_unix_ms());
  EXPECT_GT(docs[0].find("pid")->as_int(), 0);

  EXPECT_EQ(docs[1].find("type")->as_string(), "point");
  EXPECT_EQ(docs[1].find("name")->as_string(), "test.point");
  EXPECT_EQ(docs[1].find("step")->as_int(), 3);
  EXPECT_DOUBLE_EQ(docs[1].find("value")->as_double(), 0.25);
  EXPECT_EQ(docs[1].find("labels")->find("k")->as_string(), "v");

  EXPECT_EQ(docs[2].find("type")->as_string(), "span");
  EXPECT_EQ(docs[2].find("name")->as_string(), "test.span");
  EXPECT_GE(docs[2].find("dur_ms")->as_double(), 0.0);
  EXPECT_GT(docs[2].find("tid")->as_int(), 0);
  EXPECT_EQ(docs[2].find("labels")->find("phase")->as_string(), "x");

  EXPECT_EQ(docs[3].find("type")->as_string(), "log");
  EXPECT_EQ(docs[3].find("level")->as_string(), "WARN");
  EXPECT_EQ(docs[3].find("message")->as_string(), "something \"quoted\"\n");
}

// Trace identity: nested SpanTimers under a TraceScope share a trace
// id and form a parent chain, with the start/end anchors a timeline
// needs.
TEST(TelemetryTrace, NestedSpansCarryTraceAndParentIds) {
  std::ostringstream out;
  Registry registry;
  registry.add_sink(std::make_unique<JsonlSink>(&out));
  {
    TraceScope scope(round_trace_root(42, 7));
    SpanTimer outer(registry, "test.round", {}, 7);
    ASSERT_TRUE(outer.context().valid());
    { SpanTimer inner(registry, "test.phase", {{"phase", "x"}}, 7); }
  }
  registry.flush_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::vector<json::Value> spans;
  while (std::getline(in, line)) {
    json::Value v;
    ASSERT_TRUE(json::parse(line, v));
    if (v.find("type")->as_string() == "span") spans.push_back(std::move(v));
  }
  ASSERT_EQ(spans.size(), 2u);
  // RAII close order: the inner span is emitted first.
  const json::Value& inner = spans[0];
  const json::Value& outer = spans[1];
  EXPECT_EQ(inner.find("name")->as_string(), "test.phase");
  EXPECT_EQ(outer.find("name")->as_string(), "test.round");
  const std::string trace = outer.find("trace")->as_string();
  EXPECT_EQ(trace.size(), 32u);
  EXPECT_EQ(inner.find("trace")->as_string(), trace);
  // The round span is the trace root; the phase span parents under it.
  EXPECT_EQ(outer.find("parent"), nullptr);
  EXPECT_EQ(inner.find("parent")->as_string(),
            outer.find("span")->as_string());
  EXPECT_NE(inner.find("span")->as_string(), outer.find("span")->as_string());
  // start + duration is consistent with the emit-time anchor.
  for (const json::Value* s : {&inner, &outer}) {
    EXPECT_LE(s->find("start_ms")->as_double(), s->find("t_ms")->as_double());
    EXPECT_GE(s->find("dur_ms")->as_double(), 0.0);
  }
}

// Outside any TraceScope a span carries no trace/span/parent ids, but
// it still carries its start, within its own lifetime, so a timeline
// draws it where it ran.
TEST(TelemetryTrace, UntracedSpansCarryNoTraceFields) {
  std::ostringstream out;
  Registry registry;
  registry.add_sink(std::make_unique<JsonlSink>(&out));
  const double before_ms = registry.now_ms();
  { SpanTimer span(registry, "test.span", {}, 0); }
  const double after_ms = registry.now_ms();
  registry.flush_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);  // meta
  std::getline(in, line);  // the span
  json::Value v;
  ASSERT_TRUE(json::parse(line, v));
  EXPECT_EQ(v.find("type")->as_string(), "span");
  EXPECT_EQ(v.find("trace"), nullptr);
  EXPECT_EQ(v.find("span"), nullptr);
  EXPECT_EQ(v.find("parent"), nullptr);
  const double start_ms = v.find("start_ms")->as_double();
  EXPECT_GE(start_ms, before_ms);
  EXPECT_LE(start_ms + v.find("dur_ms")->as_double(), after_ms + 1e-9);
  EXPECT_GT(v.find("tid")->as_int(), 0);
}

TEST(TelemetryTrace, RoundTraceRootIsDeterministicPerSeedAndRound) {
  const TraceContext a = round_trace_root(97, 3);
  const TraceContext b = round_trace_root(97, 3);
  EXPECT_EQ(a.trace_hi, b.trace_hi);
  EXPECT_EQ(a.trace_lo, b.trace_lo);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.span_id, 0u);
  const TraceContext c = round_trace_root(97, 4);
  EXPECT_FALSE(c.trace_hi == a.trace_hi && c.trace_lo == a.trace_lo);
  const TraceContext d = round_trace_root(98, 3);
  EXPECT_FALSE(d.trace_hi == a.trace_hi && d.trace_lo == a.trace_lo);
}

// A context adopted from another process (TraceContext::remote, the
// wire path) marks only the directly-adopting span's parent as remote;
// grandchildren have locally-resolvable parents.
TEST(TelemetryTrace, RemoteAdoptionFlagsOnlyTheDirectChildParent) {
  std::ostringstream out;
  Registry registry;
  registry.add_sink(std::make_unique<JsonlSink>(&out));
  TraceContext wire = round_trace_root(5, 0);
  wire.span_id = next_span_id();  // the (remote) server round span
  wire.remote = true;
  {
    TraceScope scope(wire);
    SpanTimer child(registry, "test.client.round", {}, 0);
    { SpanTimer grandchild(registry, "test.client.phase", {}, 0); }
  }
  registry.flush_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::vector<json::Value> spans;
  while (std::getline(in, line)) {
    json::Value v;
    ASSERT_TRUE(json::parse(line, v));
    if (v.find("type")->as_string() == "span") spans.push_back(std::move(v));
  }
  ASSERT_EQ(spans.size(), 2u);
  const json::Value& grandchild = spans[0];
  const json::Value& child = spans[1];
  EXPECT_NE(child.find("parent_remote"), nullptr);
  EXPECT_TRUE(child.find("parent_remote")->as_bool());
  EXPECT_EQ(grandchild.find("parent_remote"), nullptr);
  EXPECT_EQ(grandchild.find("parent")->as_string(),
            child.find("span")->as_string());
}

// Pool workers adopting one round context emit concurrently into the
// same sink; every span must land with the shared trace id and the
// round span as parent, race-free (this test runs under TSan in CI).
TEST(TelemetryTrace, ConcurrentSpanEmissionFromPoolWorkers) {
  std::ostringstream out;
  Registry registry;
  registry.add_sink(std::make_unique<JsonlSink>(&out));
  std::string root_span_hex;
  {
    TraceScope scope(round_trace_root(11, 0));
    SpanTimer round(registry, "test.round", {}, 0);
    const TraceContext ctx = round.context();
    constexpr std::size_t kTasks = 32;
    compute_pool().parallel_for(kTasks, [&](std::size_t i) {
      TraceScope adopt(ctx);
      SpanTimer span(registry, "test.work", {}, static_cast<std::int64_t>(i));
    });
  }
  registry.flush_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::string trace;
  std::string round_span;
  std::size_t workers = 0;
  std::vector<std::string> worker_parents;
  while (std::getline(in, line)) {
    json::Value v;
    ASSERT_TRUE(json::parse(line, v));
    if (v.find("type")->as_string() != "span") continue;
    if (v.find("name")->as_string() == "test.round") {
      round_span = v.find("span")->as_string();
      trace = v.find("trace")->as_string();
    } else {
      ++workers;
      worker_parents.push_back(v.find("parent")->as_string());
    }
  }
  EXPECT_EQ(workers, 32u);
  ASSERT_FALSE(round_span.empty());
  for (const std::string& p : worker_parents) EXPECT_EQ(p, round_span);
}

TEST(TelemetrySpan, ObservesDurationHistogram) {
  Registry registry;
  {
    SpanTimer span(registry, "test.phase", {{"phase", "train"}}, 0);
  }
  {
    SpanTimer span(registry, "test.phase", {{"phase", "train"}}, 1);
  }
  const TelemetrySnapshot snap = registry.snapshot();
  const HistogramSample* h =
      snap.find_histogram("test.phase.duration_ms", {{"phase", "train"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
}

// Log lines routed through the global registry land in the sink stream
// interleaved with metric events, in call order.
TEST(TelemetryLogging, GlobalLogLinesReachSinksInOrder) {
  Registry& registry = global_registry();
  registry.reset();
  std::ostringstream out;
  registry.add_sink(std::make_unique<JsonlSink>(&out));
  registry.record_point("test.before", 0, 1.0);
  FEDCL_LOG(Warn) << "between events";
  registry.record_point("test.after", 0, 2.0);
  registry.clear_sinks();

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> types;
  std::string log_message;
  while (std::getline(in, line)) {
    json::Value v;
    ASSERT_TRUE(json::parse(line, v));
    types.push_back(v.find("type")->as_string());
    if (types.back() == "log") log_message = v.find("message")->as_string();
  }
  const std::vector<std::string> expected = {"meta", "point", "log", "point"};
  EXPECT_EQ(types, expected);
  EXPECT_EQ(log_message, "between events");
}

TEST(TelemetryPrometheus, TextExposition) {
  Registry registry;
  registry.counter("test.reqs_total", {{"kind", "a"}}).add(3);
  registry.gauge("dp.epsilon", {{"level", "instance"}}).set(1.25);
  Histogram& h = registry.histogram("test.lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(10.0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE fedcl_test_reqs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fedcl_test_reqs_total{kind=\"a\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fedcl_dp_epsilon{level=\"instance\"} 1.25"),
            std::string::npos);
  // Cumulative buckets with the +Inf terminal, plus _sum and _count.
  EXPECT_NE(text.find("fedcl_test_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("fedcl_test_lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("fedcl_test_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fedcl_test_lat_count 3"), std::string::npos);
}

TEST(TelemetryJson, ValueDumpAndParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc["name"] = "bench";
  doc["n"] = 42;
  doc["ratio"] = 0.1;
  doc["flag"] = true;
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["xs"] = std::move(arr);
  const std::string text = doc.dump(2);
  json::Value parsed;
  ASSERT_TRUE(json::parse(text, parsed));
  EXPECT_EQ(parsed.find("name")->as_string(), "bench");
  EXPECT_EQ(parsed.find("n")->as_int(), 42);
  EXPECT_DOUBLE_EQ(parsed.find("ratio")->as_double(), 0.1);
  EXPECT_TRUE(parsed.find("flag")->as_bool());
  ASSERT_EQ(parsed.find("xs")->size(), 2u);
  EXPECT_EQ(parsed.find("xs")->at(0).as_int(), 1);
  EXPECT_EQ(parsed.find("xs")->at(1).as_string(), "two");
}

}  // namespace
}  // namespace fedcl::telemetry
