#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include <mutex>

#include "obs/json.h"

namespace preemptdb::obs {

namespace {

// Counter registry: append-only, bounded. Counters are namespace-scope
// objects so registration happens at static-init or first-use time, never on
// a hot path.
constexpr int kMaxCounters = 128;
std::mutex g_counter_mu;
const Counter* g_counters[kMaxCounters];
std::atomic<int> g_num_counters{0};

// Stage-histogram registry: same append-only shape as counters. Instances
// are namespace-scope objects (obs/timeline.cc), so registration is
// static-init only.
constexpr int kMaxStageHistograms = 64;
std::mutex g_stage_mu;
const StageHistogram* g_stages[kMaxStageHistograms];
std::atomic<int> g_num_stages{0};

struct GaugeEntry {
  int id;
  std::string name;
  std::function<double()> fn;
};
std::mutex g_gauge_mu;
std::vector<GaugeEntry>& Gauges() {
  static std::vector<GaugeEntry>* v = new std::vector<GaugeEntry>();
  return *v;
}
int g_next_gauge_id = 1;

}  // namespace

Counter::Counter(const char* name) : name_(name) {
  std::lock_guard<std::mutex> g(g_counter_mu);
  int n = g_num_counters.load(std::memory_order_relaxed);
  if (n < kMaxCounters) {
    g_counters[n] = this;
    g_num_counters.store(n + 1, std::memory_order_release);
  }
}

uint64_t Counter::Value() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t sum = value_.load(std::memory_order_relaxed);
  for (const LocalCounter* l : locals_) sum += l->Value();
  return sum;
}

LocalCounter::LocalCounter(Counter& total) : total_(total) {
  std::lock_guard<std::mutex> g(total_.mu_);
  total_.locals_.push_back(this);
}

LocalCounter::~LocalCounter() {
  std::lock_guard<std::mutex> g(total_.mu_);
  // Fold and unlink in one critical section, so Value() sees this count
  // exactly once.
  total_.value_.fetch_add(Value(), std::memory_order_relaxed);
  auto& v = total_.locals_;
  v.erase(std::find(v.begin(), v.end(), this));
}

StageHistogram::StageHistogram(const char* name) : name_(name) {
  std::lock_guard<std::mutex> g(g_stage_mu);
  int n = g_num_stages.load(std::memory_order_relaxed);
  if (n < kMaxStageHistograms) {
    g_stages[n] = this;
    g_num_stages.store(n + 1, std::memory_order_release);
  }
}

int NumStageHistograms() {
  return g_num_stages.load(std::memory_order_acquire);
}

const StageHistogram* StageHistogramAt(int i) {
  return i >= 0 && i < NumStageHistograms() ? g_stages[i] : nullptr;
}

int RegisterGauge(const std::string& name, std::function<double()> fn) {
  std::lock_guard<std::mutex> g(g_gauge_mu);
  int id = g_next_gauge_id++;
  Gauges().push_back(GaugeEntry{id, name, std::move(fn)});
  return id;
}

void UnregisterGauge(int id) {
  std::lock_guard<std::mutex> g(g_gauge_mu);
  auto& v = Gauges();
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->id == id) {
      v.erase(it);
      return;
    }
  }
}

void SampleGauges(const std::function<void(const std::string&, double)>& fn) {
  std::lock_guard<std::mutex> g(g_gauge_mu);
  for (const GaugeEntry& e : Gauges()) fn(e.name, e.fn());
}

int NumCounters() { return g_num_counters.load(std::memory_order_acquire); }

const Counter* CounterAt(int i) {
  return i >= 0 && i < NumCounters() ? g_counters[i] : nullptr;
}

HistogramStats HistogramStats::From(const LatencyHistogram& h) {
  HistogramStats s;
  s.count = h.Count();
  if (s.count == 0) return s;  // all-zero stats for an empty histogram
  s.min_ns = h.MinNanos();
  s.max_ns = h.MaxNanos();
  s.mean_ns = h.MeanNanos();
  s.p50_ns = static_cast<double>(h.PercentileNanos(50));
  s.p90_ns = static_cast<double>(h.PercentileNanos(90));
  s.p99_ns = static_cast<double>(h.PercentileNanos(99));
  s.p999_ns = static_cast<double>(h.PercentileNanos(99.9));
  return s;
}

void MetricsSnapshot::SetMeta(const std::string& key,
                              const std::string& value) {
  for (auto& kv : meta_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void MetricsSnapshot::AddCounter(const std::string& name, uint64_t value) {
  counters_.emplace_back(name, value);
}

void MetricsSnapshot::AddGauge(const std::string& name, double value) {
  gauges_.emplace_back(name, value);
}

void MetricsSnapshot::AddHistogramNanos(const std::string& name,
                                        const LatencyHistogram& h) {
  histograms_.emplace_back(name, HistogramStats::From(h));
}

void MetricsSnapshot::AddTxnType(const std::string& name, uint64_t committed,
                                 uint64_t aborted, uint64_t not_found,
                                 double tps, const LatencyHistogram& lat) {
  txn_types_.push_back(TxnRow{name, committed, aborted, not_found, tps,
                              HistogramStats::From(lat)});
}

void MetricsSnapshot::CaptureRegistry() {
  int n = NumCounters();
  for (int i = 0; i < n; ++i) {
    const Counter* c = CounterAt(i);
    AddCounter(c->name(), c->Value());
  }
  SampleGauges([this](const std::string& name, double v) { AddGauge(name, v); });
  int ns = NumStageHistograms();
  for (int i = 0; i < ns; ++i) {
    const StageHistogram* s = StageHistogramAt(i);
    AddHistogramNanos(s->name(), s->hist());
  }
}

namespace {

void WriteHistogram(JsonWriter& w, const HistogramStats& h) {
  w.BeginObject();
  w.Key("count").Uint(h.count);
  w.Key("min_ns").Uint(h.min_ns);
  w.Key("max_ns").Uint(h.max_ns);
  w.Key("mean_ns").Double(h.mean_ns);
  w.Key("p50_ns").Double(h.p50_ns);
  w.Key("p90_ns").Double(h.p90_ns);
  w.Key("p99_ns").Double(h.p99_ns);
  w.Key("p999_ns").Double(h.p999_ns);
  w.EndObject();
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("meta").BeginObject();
  for (const auto& kv : meta_) w.Key(kv.first.c_str()).String(kv.second);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& kv : counters_) w.Key(kv.first.c_str()).Uint(kv.second);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& kv : gauges_) w.Key(kv.first.c_str()).Double(kv.second);
  w.EndObject();
  w.Key("histograms_ns").BeginObject();
  for (const auto& kv : histograms_) {
    w.Key(kv.first.c_str());
    WriteHistogram(w, kv.second);
  }
  w.EndObject();
  w.Key("txn_types").BeginArray();
  for (const TxnRow& t : txn_types_) {
    w.BeginObject();
    w.Key("name").String(t.name);
    w.Key("committed").Uint(t.committed);
    w.Key("aborted").Uint(t.aborted);
    w.Key("not_found").Uint(t.not_found);
    w.Key("tps").Double(t.tps);
    w.Key("latency");
    WriteHistogram(w, t.latency);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool MetricsSnapshot::WriteFile(const std::string& path,
                                std::string* err) const {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  if (n != json.size()) {
    if (err != nullptr) *err = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace preemptdb::obs
