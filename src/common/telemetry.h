// First-class observability for the federated training stack.
//
// Two complementary surfaces (see docs/METRICS.md for the full metric
// reference and DESIGN.md §8 for the architecture):
//
//  1. Aggregate instruments — thread-safe counters, gauges, and
//     histograms with labeled series, registered in a process-wide
//     Registry. These are the passive substrate: updating one is a
//     handful of atomic operations, cheap enough for the training hot
//     path, and they cost nothing to read until a snapshot or a
//     Prometheus-style text dump is requested.
//
//  2. An event stream — spans (RAII-timed phases), points (a value at
//     a step, e.g. cumulative epsilon per round), and log lines —
//     delivered in call order to attached Sinks. The JSONL sink writes
//     one JSON object per event, the only span output: every trace
//     tool reads it (tools/fedcl_trace.py). With no sink attached the
//     stream costs one relaxed atomic load per potential event.
//
// Everything in the repo records into the global registry: the trainer
// emits round/phase spans and per-round points, the DP policies count
// clip decisions, update screening counts rejections per reason, the
// accountant wiring gauges cumulative (epsilon, delta), and the attack
// harness records reconstruction RMSE. run_experiment() resets the
// registry's aggregates at the start of each run (attached sinks and
// instrument references stay valid) and returns a TelemetrySnapshot,
// so tests can assert on observed behavior.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fedcl::telemetry {

// Label sets are small ordered key/value lists; they are canonicalized
// (sorted by key) on registration so {a,b} and {b,a} name one series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------------------
// Instruments

class Counter {
 public:
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// A gauge reports only what a run set: until the first set() after it
// was created or reset, snapshots and the Prometheus text leave it out.
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    is_set_.store(true, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool is_set() const { return is_set_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    is_set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> is_set_{false};
};

class Histogram {
 public:
  // `bounds` are the inclusive upper edges of the finite buckets, in
  // increasing order; one overflow bucket is implicit.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  void reset();

  const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1 (last = overflow).
  std::vector<std::int64_t> counts() const;
  std::int64_t count() const;
  double sum() const;
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponentially spaced bucket bounds: start, start*factor, ... (count
// edges). The conventional shape for norms and durations.
std::vector<double> exponential_buckets(double start, double factor,
                                        int count);
// Default bucket sets used across the stack (documented in METRICS.md).
const std::vector<double>& duration_ms_buckets();
const std::vector<double>& norm_buckets();

// ---------------------------------------------------------------------------
// Trace context

// The distributed-tracing identity a span is emitted under: a 128-bit
// trace id (one per federated round, deterministic in (seed, round) so
// the same round traced by different processes lands in the same
// trace) plus the span id children should parent under. A context with
// trace_hi == trace_lo == 0 is "not tracing" — spans emitted outside
// any context carry no ids at all.
struct TraceContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;  // the span new children parent under
  // True when this context was adopted from another process (the wire
  // carried it here): the direct child span's parent id is then not
  // resolvable in the local event stream, and is flagged as such so
  // single-file validators don't count it as dangling.
  bool remote = false;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

// The calling thread's innermost trace context ({} when not tracing).
TraceContext current_trace();

// Process-unique nonzero span id (counter mixed with a per-process
// salt, so ids never collide across the server/worker processes of
// one deployment).
std::uint64_t next_span_id();

// Deterministic per-round root context: same (seed, round) => same
// 128-bit trace id in every process, span_id = 0 (the round span
// becomes the trace root).
TraceContext round_trace_root(std::uint64_t seed, std::int64_t round);

// RAII adoption of a trace context onto the calling thread: pool
// workers and the remote-worker round loop wrap their work in one so
// spans they emit parent correctly. SpanTimer pushes/pops its own
// context automatically; explicit scopes are for crossing thread or
// process boundaries.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool pushed_ = false;
};

// ---------------------------------------------------------------------------
// Event stream

struct Event {
  enum class Kind { kSpan, kPoint, kLog };
  Kind kind = Kind::kPoint;
  std::string name;     // span/point: metric name; log: unused
  Labels labels;
  double t_ms = 0.0;    // ms since registry creation (event emit time)
  std::int64_t step = -1;  // round/iteration index; -1 = not stepped
  double value = 0.0;   // point: the value; span: duration in ms
  std::string level;    // log only: DEBUG/INFO/WARN/ERROR
  std::string message;  // log only
  // Trace identity (kSpan only; span_id == 0 = untraced span, which
  // serializes without ids).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0 = trace root
  bool parent_remote = false;     // parent id lives in another process
  double start_ms = 0.0;  // span start, every span (t_ms is the emit time)
};

class Sink {
 public:
  virtual ~Sink() = default;
  // Called in event order under the registry's sink lock — implementors
  // need no further synchronization.
  virtual void write(const Event& event) = 0;
  virtual void flush() {}
};

// Installs SIGINT/SIGTERM handlers that flush the global registry's
// sinks (JSONL files land complete up to the interruption) and exit
// with the conventional 128+signo status. A normal exit needs no
// handler: global_registry() flushes its sinks at exit. Best-effort:
// the flush takes locks that are not async-signal-safe, acceptable
// for the Ctrl-C runbook path it guards (DEPLOYMENT.md §5).
void install_crash_flush_handler();

// ---------------------------------------------------------------------------
// Snapshot

struct SeriesPoint {
  std::int64_t step = 0;
  double value = 0.0;
};

struct CounterSample {
  std::string name;
  Labels labels;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;  // bounds.size() + 1 entries
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct SeriesSample {
  std::string name;
  Labels labels;
  std::vector<SeriesPoint> points;
};

// A consistent copy of every instrument and recorded point series,
// ordered by (name, labels). FlRunResult carries one per run.
struct TelemetrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SeriesSample> series;

  // Lookup helpers (exact label match). Missing => 0 / NaN / nullptr /
  // empty.
  std::int64_t counter_value(const std::string& name,
                             const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  const HistogramSample* find_histogram(const std::string& name,
                                        const Labels& labels = {}) const;
  std::vector<SeriesPoint> series_points(const std::string& name,
                                         const Labels& labels = {}) const;
};

// ---------------------------------------------------------------------------
// Registry

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Instrument lookup-or-create. References stay valid for the
  // registry's lifetime (reset() zeroes values, never invalidates).
  // A histogram's bounds are fixed by its first registration.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});

  // Records (step, value) into the named point series and emits a
  // kPoint event to the sinks.
  void record_point(const std::string& name, std::int64_t step, double value,
                    const Labels& labels = {});

  // Emits a fully-formed event (labels canonicalized, t_ms stamped at
  // call time). SpanTimer emits its spans through this; prefer
  // record_point / log_line elsewhere.
  void emit(Event event);

  // Emits a kLog event. The logging module routes every line that
  // passes its level filter through here, so JSONL runs capture
  // WARN/ERROR interleaved with metrics in emission order.
  void log_line(const std::string& level, const std::string& message);

  void add_sink(std::unique_ptr<Sink> sink);
  void clear_sinks();
  bool has_sinks() const {
    return has_sinks_.load(std::memory_order_relaxed);
  }
  void flush_sinks();

  // Milliseconds since this registry was created (steady clock).
  double now_ms() const;

  // Wall-clock (unix epoch) milliseconds at registry creation: the
  // anchor that places the steady-clock `t_ms`/`start_ms` offsets of
  // this process's events onto the shared cross-process timeline
  // (epoch_ms + offset). The JSONL meta line carries it.
  double wall_epoch_unix_ms() const;

  // Caps distinct label sets per metric name; beyond it, updates are
  // folded into an {"overflow","true"} series and a WARN is logged
  // once per metric (runaway label cardinality stays bounded).
  void set_series_limit(std::size_t limit);

  TelemetrySnapshot snapshot() const;

  // Prometheus text exposition of counters/gauges/histograms. Dots and
  // dashes in names become underscores, prefixed "fedcl_".
  std::string prometheus_text() const;

  // Zeroes all instruments, unsets gauges and clears point series.
  // Sinks, instrument identities, and outstanding references are
  // untouched.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> has_sinks_{false};
};

// Process-wide registry every module records into. Its sinks are
// flushed at every normal process exit (an atexit hook registered
// with the registry), so no binary has to flush them itself.
Registry& global_registry();

// One JSON object per line (see docs/telemetry.schema.json):
//   {"type":"meta","version":1,"pid":...,"wall_epoch_unix_ms":...,...}
//                                            — first line
//   {"type":"span","name":...,"dur_ms":...,"start_ms":...,"tid":...}
//   {"type":"point","name":...,"value":...}
//   {"type":"log","level":...,"message":...}
// `registry` is the one the sink is attached to: its wall-clock epoch
// goes on the meta line, so a reader places every span at
// wall_epoch_unix_ms + start_ms (tools/fedcl_trace.py merge).
class JsonlSink final : public Sink {
 public:
  // Opens (truncates) `path` and writes the meta line.
  explicit JsonlSink(const std::string& path,
                     const Registry& registry = global_registry());
  // Test form: writes to a caller-owned stream.
  explicit JsonlSink(std::ostream* out,
                     const Registry& registry = global_registry());
  ~JsonlSink() override;

  bool ok() const { return out_ != nullptr; }
  void write(const Event& event) override;
  void flush() override;

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;
};

// ---------------------------------------------------------------------------
// Spans

// RAII phase timer: on destruction observes the elapsed ms into the
// histogram `<name>.duration_ms` (with the same labels) and, when a
// sink is attached, emits one kSpan event carrying its start and
// duration (and its trace ids when traced).
//
// Tracing: when the calling thread has an active trace context
// (TraceScope, or an enclosing SpanTimer), the timer allocates its
// span id at *construction* — so context() is usable immediately, e.g.
// to stamp a TrainRequest before the round span closes — captures the
// enclosing context as its parent, and pushes its own context for the
// scope of the span. Outside any context the span stays untraced and
// costs one thread-local read extra.
class SpanTimer {
 public:
  SpanTimer(Registry& registry, std::string name, Labels labels = {},
            std::int64_t step = -1);
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  // This span's context ({trace ids, span_id}; invalid when untraced).
  // Hand it to TraceScope in a pool-worker lambda or encode it onto
  // the wire to parent remote spans under this one.
  TraceContext context() const { return ctx_; }

 private:
  Registry& registry_;
  std::string name_;
  Labels labels_;
  std::int64_t step_;
  double start_ms_;
  TraceContext ctx_;               // valid() only when tracing
  std::uint64_t parent_span_ = 0;
  bool parent_remote_ = false;
  bool pushed_ = false;
};

}  // namespace fedcl::telemetry
