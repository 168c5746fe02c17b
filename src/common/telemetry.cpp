#include "common/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/json.h"
#include "common/logging.h"
#include "common/run_info.h"

namespace fedcl::telemetry {

namespace {

// First line of every JSONL stream: schema id, the process id and
// the wall-clock anchor of the stream's `t_ms`/`start_ms` offsets, and
// the run manifest, so any stream identifies the code, config, and
// host that produced it and merges onto a cross-process timeline.
void write_meta_line(std::ostream& out, const Registry& registry) {
  json::Value meta = json::Value::object();
  meta["type"] = "meta";
  meta["version"] = 1;
  meta["schema"] = "fedcl-telemetry-v1";
  meta["pid"] = static_cast<std::int64_t>(::getpid());
  meta["wall_epoch_unix_ms"] = registry.wall_epoch_unix_ms();
  meta["run"] = runinfo::to_json();
  out << meta.dump() << '\n';
}

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Map key: name and canonical labels, joined with bytes that cannot
// appear in either.
std::string encode_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Fixed-width lowercase hex, the textual form of trace/span ids in
// JSONL (JSON numbers cannot carry u64).
std::string hex_id(std::uint64_t v, int digits) {
  static const char* kHex = "0123456789abcdef";
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0 && v != 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xF];
  }
  return out;
}

std::string trace_hex(std::uint64_t hi, std::uint64_t lo) {
  return hex_id(hi, 16) + hex_id(lo, 16);
}

thread_local std::vector<TraceContext> t_trace_stack;

}  // namespace

// ---------------------------------------------------------------------------
// Trace context

TraceContext current_trace() {
  return t_trace_stack.empty() ? TraceContext{} : t_trace_stack.back();
}

std::uint64_t next_span_id() {
  // Per-process salt from pid + wall clock: two processes of one
  // deployment mint from disjoint streams, so ids are unique across a
  // merged trace (collision probability is splitmix-negligible).
  static const std::uint64_t kSalt = [] {
    std::uint64_t s =
        static_cast<std::uint64_t>(::getpid()) ^
        static_cast<std::uint64_t>(
            std::chrono::system_clock::now().time_since_epoch().count());
    return splitmix64(s);
  }();
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t id = 0;
  while (id == 0) {
    std::uint64_t state =
        kSalt + counter.fetch_add(1, std::memory_order_relaxed);
    id = splitmix64(state);
  }
  return id;
}

TraceContext round_trace_root(std::uint64_t seed, std::int64_t round) {
  // Deterministic in (seed, round) and identical in every process, so
  // the server's, the workers', and the simulator's spans for one round
  // share a trace id and merge into one Perfetto track group.
  std::uint64_t state = seed ^ 0xF3D7A5C912B86E04ULL;
  const std::uint64_t mixed_seed = splitmix64(state);
  state = mixed_seed + static_cast<std::uint64_t>(round);
  TraceContext ctx;
  ctx.trace_hi = splitmix64(state);
  ctx.trace_lo = splitmix64(state);
  if ((ctx.trace_hi | ctx.trace_lo) == 0) ctx.trace_lo = 1;
  ctx.span_id = 0;  // the round span becomes the root
  return ctx;
}

TraceScope::TraceScope(const TraceContext& ctx) {
  if (!ctx.valid()) return;
  t_trace_stack.push_back(ctx);
  pushed_ = true;
}

TraceScope::~TraceScope() {
  if (pushed_) t_trace_stack.pop_back();
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1, 0),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::observe(double v) {
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                v) -
                               bounds_.begin());
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[bucket];
  ++total_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

std::vector<std::int64_t> Histogram::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

const std::vector<double>& duration_ms_buckets() {
  // 0.05 ms .. ~27 s in x2.5 steps: local rounds land mid-range at any
  // FEDCL_SCALE.
  static const std::vector<double> kBuckets =
      exponential_buckets(0.05, 2.5, 15);
  return kBuckets;
}

const std::vector<double>& norm_buckets() {
  // 1e-3 .. ~1e3 in x2 steps covers gradient/update L2 norms across the
  // model zoo (Fig. 3's range sits well inside).
  static const std::vector<double> kBuckets =
      exponential_buckets(0.001, 2.0, 21);
  return kBuckets;
}

// ---------------------------------------------------------------------------
// JsonlSink

namespace {

// Small dense per-thread ids for the span "tid" field (hashed
// std::thread::id values render as noise in Perfetto's track names).
int current_tid() {
  static std::atomic<int> next{1};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

JsonlSink::JsonlSink(const std::string& path, const Registry& registry)
    : file_(path) {
  if (!file_) return;
  out_ = &file_;
  write_meta_line(*out_, registry);
}

JsonlSink::JsonlSink(std::ostream* out, const Registry& registry)
    : out_(out) {
  write_meta_line(*out_, registry);
}

JsonlSink::~JsonlSink() { flush(); }

void JsonlSink::write(const Event& event) {
  if (out_ == nullptr) return;
  json::Value v = json::Value::object();
  switch (event.kind) {
    case Event::Kind::kSpan:
      v["type"] = "span";
      v["name"] = event.name;
      break;
    case Event::Kind::kPoint:
      v["type"] = "point";
      v["name"] = event.name;
      break;
    case Event::Kind::kLog:
      v["type"] = "log";
      break;
  }
  v["t_ms"] = event.t_ms;
  if (event.kind == Event::Kind::kSpan) {
    v["dur_ms"] = event.value;
    v["start_ms"] = event.start_ms;
    // Sinks write on the emitting thread, which for a span is the
    // thread it ran on.
    v["tid"] = current_tid();
  } else if (event.kind == Event::Kind::kPoint) {
    v["value"] = event.value;
  } else {
    v["level"] = event.level;
    v["message"] = event.message;
  }
  if (event.step >= 0) v["step"] = event.step;
  if (event.kind == Event::Kind::kSpan && event.span_id != 0) {
    // Trace identity (absent on untraced spans). Ids are lowercase hex
    // strings: JSON numbers are doubles and cannot carry u64.
    v["trace"] = trace_hex(event.trace_hi, event.trace_lo);
    v["span"] = hex_id(event.span_id, 16);
    if (event.parent_span != 0) v["parent"] = hex_id(event.parent_span, 16);
    if (event.parent_remote) v["parent_remote"] = true;
  }
  if (!event.labels.empty()) {
    json::Value labels = json::Value::object();
    for (const auto& [k, val] : event.labels) labels[k] = val;
    v["labels"] = std::move(labels);
  }
  *out_ << v.dump() << '\n';
}

void JsonlSink::flush() {
  if (out_ != nullptr) out_->flush();
}

// ---------------------------------------------------------------------------
// Snapshot lookups

namespace {

template <typename Sample>
const Sample* find_sample(const std::vector<Sample>& samples,
                          const std::string& name, const Labels& labels) {
  const Labels want = canonical(labels);
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == want) return &s;
  }
  return nullptr;
}

}  // namespace

std::int64_t TelemetrySnapshot::counter_value(const std::string& name,
                                              const Labels& labels) const {
  const CounterSample* s = find_sample(counters, name, labels);
  return s != nullptr ? s->value : 0;
}

double TelemetrySnapshot::gauge_value(const std::string& name,
                                      const Labels& labels) const {
  const GaugeSample* s = find_sample(gauges, name, labels);
  return s != nullptr ? s->value : std::nan("");
}

const HistogramSample* TelemetrySnapshot::find_histogram(
    const std::string& name, const Labels& labels) const {
  return find_sample(histograms, name, labels);
}

std::vector<SeriesPoint> TelemetrySnapshot::series_points(
    const std::string& name, const Labels& labels) const {
  const SeriesSample* s = find_sample(series, name, labels);
  return s != nullptr ? s->points : std::vector<SeriesPoint>{};
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  // Wall-clock anchor captured together with `start`: unix-epoch ms
  // that t_ms == 0 corresponds to (the cross-process trace timeline).
  double wall_epoch_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::system_clock::now()
                                 .time_since_epoch())
                             .count();

  // Guards instruments, series, and cardinality bookkeeping. The sink
  // mutex below is the innermost lock: it is never held while taking
  // this one.
  mutable std::mutex mu;
  std::map<std::string, Entry<Counter>> counters;
  std::map<std::string, Entry<Gauge>> gauges;
  std::map<std::string, Entry<Histogram>> histograms;
  std::map<std::string, SeriesSample> series;
  // Distinct label sets per "<kind>:<name>" family, and whether the
  // overflow warning fired for it.
  std::map<std::string, std::size_t> family_count;
  std::map<std::string, bool> family_warned;
  std::size_t series_limit = 1024;

  mutable std::mutex sink_mu;
  std::vector<std::unique_ptr<Sink>> sinks;

  // Looks up or creates an instrument, enforcing the per-family label
  // cardinality cap. Returns {instrument, warn_now}.
  template <typename T, typename Make>
  std::pair<T*, bool> get(std::map<std::string, Entry<T>>& table,
                          const char* kind, const std::string& name,
                          const Labels& labels, const Make& make) {
    Labels canon = canonical(labels);
    std::string key = encode_key(name, canon);
    std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(key);
    if (it != table.end()) return {it->second.instrument.get(), false};
    const std::string family = std::string(kind) + ":" + name;
    bool warn = false;
    if (family_count[family] >= series_limit) {
      canon = {{"overflow", "true"}};
      key = encode_key(name, canon);
      it = table.find(key);
      if (it != table.end()) return {it->second.instrument.get(), false};
      if (!family_warned[family]) {
        family_warned[family] = true;
        warn = true;
      }
    } else {
      ++family_count[family];
    }
    Entry<T> entry{name, std::move(canon), make()};
    T* instrument = entry.instrument.get();
    table.emplace(std::move(key), std::move(entry));
    return {instrument, warn};
  }

  void write_sinks(const Event& event) {
    std::lock_guard<std::mutex> lock(sink_mu);
    for (auto& sink : sinks) sink->write(event);
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

double Registry::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - impl_->start)
      .count();
}

double Registry::wall_epoch_unix_ms() const { return impl_->wall_epoch_ms; }

namespace {

void warn_cardinality(const std::string& name) {
  FEDCL_LOG(Warn) << "telemetry: metric '" << name
                  << "' exceeded its label-cardinality limit; further "
                     "label sets fold into {overflow=\"true\"}";
}

}  // namespace

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  auto [c, warn] = impl_->get(impl_->counters, "counter", name, labels,
                              [] { return std::make_unique<Counter>(); });
  if (warn) warn_cardinality(name);
  return *c;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  auto [g, warn] = impl_->get(impl_->gauges, "gauge", name, labels,
                              [] { return std::make_unique<Gauge>(); });
  if (warn) warn_cardinality(name);
  return *g;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const Labels& labels) {
  auto [h, warn] = impl_->get(impl_->histograms, "histogram", name, labels,
                              [&] {
                                return std::make_unique<Histogram>(
                                    std::move(bounds));
                              });
  if (warn) warn_cardinality(name);
  return *h;
}

void Registry::record_point(const std::string& name, std::int64_t step,
                            double value, const Labels& labels) {
  const double t = now_ms();
  Labels canon = canonical(labels);
  bool warn = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::string key = encode_key(name, canon);
    auto it = impl_->series.find(key);
    if (it == impl_->series.end()) {
      const std::string family = "series:" + name;
      if (impl_->family_count[family] >= impl_->series_limit) {
        canon = {{"overflow", "true"}};
        key = encode_key(name, canon);
        if (!impl_->family_warned[family]) {
          impl_->family_warned[family] = true;
          warn = true;
        }
      } else {
        ++impl_->family_count[family];
      }
      it = impl_->series.emplace(key, SeriesSample{name, canon, {}}).first;
    }
    it->second.points.push_back({step, value});
  }
  if (warn) warn_cardinality(name);
  if (has_sinks()) {
    Event e;
    e.kind = Event::Kind::kPoint;
    e.name = name;
    e.labels = std::move(canon);
    e.t_ms = t;
    e.step = step;
    e.value = value;
    impl_->write_sinks(e);
  }
}

void Registry::emit(Event event) {
  if (!has_sinks()) return;
  event.labels = canonical(std::move(event.labels));
  event.t_ms = now_ms();
  impl_->write_sinks(event);
}

void Registry::log_line(const std::string& level, const std::string& message) {
  if (!has_sinks()) return;
  Event e;
  e.kind = Event::Kind::kLog;
  e.t_ms = now_ms();
  e.level = level;
  e.message = message;
  impl_->write_sinks(e);
}

void Registry::add_sink(std::unique_ptr<Sink> sink) {
  std::lock_guard<std::mutex> lock(impl_->sink_mu);
  impl_->sinks.push_back(std::move(sink));
  has_sinks_.store(true, std::memory_order_relaxed);
}

void Registry::clear_sinks() {
  std::lock_guard<std::mutex> lock(impl_->sink_mu);
  for (auto& sink : impl_->sinks) sink->flush();
  impl_->sinks.clear();
  has_sinks_.store(false, std::memory_order_relaxed);
}

void Registry::flush_sinks() {
  std::lock_guard<std::mutex> lock(impl_->sink_mu);
  for (auto& sink : impl_->sinks) sink->flush();
}

void Registry::set_series_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->series_limit = limit;
}

TelemetrySnapshot Registry::snapshot() const {
  TelemetrySnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [key, entry] : impl_->counters) {
    snap.counters.push_back(
        {entry.name, entry.labels, entry.instrument->value()});
  }
  for (const auto& [key, entry] : impl_->gauges) {
    if (!entry.instrument->is_set()) continue;
    snap.gauges.push_back(
        {entry.name, entry.labels, entry.instrument->value()});
  }
  for (const auto& [key, entry] : impl_->histograms) {
    const Histogram& h = *entry.instrument;
    snap.histograms.push_back({entry.name, entry.labels, h.bounds(),
                               h.counts(), h.count(), h.sum(), h.min(),
                               h.max()});
  }
  for (const auto& [key, s] : impl_->series) snap.series.push_back(s);
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [key, entry] : impl_->counters) entry.instrument->reset();
  for (auto& [key, entry] : impl_->gauges) entry.instrument->reset();
  for (auto& [key, entry] : impl_->histograms) entry.instrument->reset();
  // Series are per-run data, not instruments: drop them (and release
  // their cardinality slots) entirely.
  impl_->series.clear();
  for (auto it = impl_->family_count.begin();
       it != impl_->family_count.end();) {
    if (it->first.rfind("series:", 0) == 0) {
      it = impl_->family_count.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "fedcl_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + json::escape(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string Registry::prometheus_text() const {
  const TelemetrySnapshot snap = snapshot();
  std::string out;
  std::string last_family;
  auto type_line = [&](const std::string& name, const char* type) {
    if (name != last_family) {
      out += "# TYPE " + prom_name(name) + " " + type + "\n";
      last_family = name;
    }
  };
  for (const auto& c : snap.counters) {
    type_line(c.name, "counter");
    out += prom_name(c.name) + prom_labels(c.labels) + " " +
           std::to_string(c.value) + "\n";
  }
  last_family.clear();
  for (const auto& g : snap.gauges) {
    type_line(g.name, "gauge");
    out += prom_name(g.name) + prom_labels(g.labels) + " " +
           prom_number(g.value) + "\n";
  }
  last_family.clear();
  for (const auto& h : snap.histograms) {
    type_line(h.name, "histogram");
    const std::string base = prom_name(h.name);
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.counts[b];
      Labels with_le = h.labels;
      with_le.emplace_back("le", prom_number(h.bounds[b]));
      out += base + "_bucket" + prom_labels(with_le) + " " +
             std::to_string(cumulative) + "\n";
    }
    Labels inf = h.labels;
    inf.emplace_back("le", "+Inf");
    out += base + "_bucket" + prom_labels(inf) + " " +
           std::to_string(h.count) + "\n";
    out += base + "_sum" + prom_labels(h.labels) + " " + prom_number(h.sum) +
           "\n";
    out += base + "_count" + prom_labels(h.labels) + " " +
           std::to_string(h.count) + "\n";
  }
  return out;
}

namespace {

void flush_global_sinks() { global_registry().flush_sinks(); }

}  // namespace

Registry& global_registry() {
  // Leaked on purpose: policies and static objects may hold instrument
  // references or log through the sinks during shutdown, so the global
  // registry must outlive every other static. Its sinks are therefore
  // never destroyed, and the atexit hook is what writes out their
  // buffered tail on a normal exit.
  static Registry* registry = [] {
    auto* r = new Registry();
    std::atexit(flush_global_sinks);
    return r;
  }();
  return *registry;
}

// ---------------------------------------------------------------------------
// SpanTimer

SpanTimer::SpanTimer(Registry& registry, std::string name, Labels labels,
                     std::int64_t step)
    : registry_(registry),
      name_(std::move(name)),
      labels_(std::move(labels)),
      step_(step),
      start_ms_(registry.now_ms()) {
  const TraceContext parent = current_trace();
  if (!parent.valid()) return;  // no active trace: untraced span
  // The span id is minted here, at construction, so context() can be
  // propagated (onto the wire, into pool workers) while the span is
  // still open.
  ctx_.trace_hi = parent.trace_hi;
  ctx_.trace_lo = parent.trace_lo;
  ctx_.span_id = next_span_id();
  parent_span_ = parent.span_id;
  parent_remote_ = parent.remote;
  t_trace_stack.push_back(ctx_);
  pushed_ = true;
}

SpanTimer::~SpanTimer() {
  if (pushed_) t_trace_stack.pop_back();
  const double dur_ms = registry_.now_ms() - start_ms_;
  registry_.histogram(name_ + ".duration_ms", duration_ms_buckets(), labels_)
      .observe(dur_ms);
  if (!registry_.has_sinks()) return;
  Event e;
  e.kind = Event::Kind::kSpan;
  e.name = std::move(name_);
  e.labels = std::move(labels_);
  e.step = step_;
  e.value = dur_ms;
  e.start_ms = start_ms_;
  if (ctx_.valid()) {
    e.trace_hi = ctx_.trace_hi;
    e.trace_lo = ctx_.trace_lo;
    e.span_id = ctx_.span_id;
    e.parent_span = parent_span_;
    e.parent_remote = parent_remote_ && parent_span_ != 0;
  }
  registry_.emit(std::move(e));
}

// ---------------------------------------------------------------------------
// Crash-path flush

namespace {

extern "C" void crash_flush_signal_handler(int signo) {
  // Best-effort: flush_sinks takes the sink mutex and writes files —
  // not async-signal-safe, but the runbook's Ctrl-C lands while the
  // process waits on sockets or rounds, where the locks are free.
  // Restoring the default disposition first means a second Ctrl-C
  // kills a wedged flush the normal way.
  std::signal(signo, SIG_DFL);
  global_registry().flush_sinks();
  std::_Exit(128 + signo);
}

}  // namespace

void install_crash_flush_handler() {
  std::signal(SIGINT, crash_flush_signal_handler);
  std::signal(SIGTERM, crash_flush_signal_handler);
}

}  // namespace fedcl::telemetry
