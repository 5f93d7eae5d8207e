// Counter/gauge registry and JSON metrics snapshots.
//
// Counters are process-global named atomics, cheap enough for hot paths
// (one relaxed RMW). A per-instance view of the same event count is a
// LocalCounter bound to the Counter: the instance increments only its own
// atomic and the registry sums it in, so every event is counted exactly
// once. Gauges are pull-style callbacks sampled at snapshot (or
// StatsReporter) time — used for queue depths and other instantaneous state.
// A MetricsSnapshot collects counters, gauges, histograms, and per-txn-type
// rows (extending sched::Metrics rather than replacing it) and serializes to
// JSON for machine-parseable benchmark output (--metrics-json).
#ifndef PREEMPTDB_OBS_METRICS_H_
#define PREEMPTDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/macros.h"

namespace preemptdb::obs {

class LocalCounter;

// A named process-global counter. Instances must outlive all use, including
// every LocalCounter bound to them (declare at namespace scope);
// registration happens once in the constructor.
class Counter {
 public:
  explicit Counter(const char* name);
  PDB_DISALLOW_COPY_AND_ASSIGN(Counter);

  // For events with no per-instance owner.
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  // Direct adds, plus the final counts of destroyed locals, plus the live
  // locals. Never goes backwards when a local dies.
  uint64_t Value() const;
  const char* name() const { return name_; }

 private:
  friend class LocalCounter;

  const char* name_;
  // Direct adds and retired locals (folded in under mu_).
  std::atomic<uint64_t> value_{0};
  // Guards the live locals; taken on link, unlink and Value(), never by Add.
  mutable std::mutex mu_;
  std::vector<const LocalCounter*> locals_;
};

// A per-instance share of a Counter: Add() is one relaxed RMW on this
// instance's own atomic, Value() is this instance's count, and the bound
// Counter's Value() includes it, before and after this object dies.
class LocalCounter {
 public:
  explicit LocalCounter(Counter& total);
  ~LocalCounter();
  PDB_DISALLOW_COPY_AND_ASSIGN(LocalCounter);

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  Counter& total_;
  std::atomic<uint64_t> value_{0};
};

// A named process-global latency histogram, the histogram sibling of
// Counter: declare at namespace scope, record from any thread (relaxed
// atomics inside LatencyHistogram), enumerated into every MetricsSnapshot.
// Used for the per-request stage histograms (net.stage.*, sched.stage.* —
// see obs/timeline.h).
class StageHistogram {
 public:
  explicit StageHistogram(const char* name);
  PDB_DISALLOW_COPY_AND_ASSIGN(StageHistogram);

  void RecordNanos(uint64_t nanos) { hist_.RecordNanos(nanos); }
  const LatencyHistogram& hist() const { return hist_; }
  const char* name() const { return name_; }

 private:
  const char* name_;
  LatencyHistogram hist_;
};

// Enumeration hooks (append-only registry, like counters).
int NumStageHistograms();
const StageHistogram* StageHistogramAt(int i);

// Pull-style gauge: `fn` is sampled at snapshot time. Returns a registration
// id to pass to UnregisterGauge before any captured state dies.
int RegisterGauge(const std::string& name, std::function<double()> fn);
void UnregisterGauge(int id);

// RAII bundle of gauges that share one lifetime — the pattern for
// per-instance families like the net server's per-shard `net.shard<i>.*`
// gauges, which must all unregister together before the shards they sample
// are destroyed. Clear() (or destruction) unregisters everything added.
class GaugeGroup {
 public:
  GaugeGroup() = default;
  ~GaugeGroup() { Clear(); }
  PDB_DISALLOW_COPY_AND_ASSIGN(GaugeGroup);

  void Add(const std::string& name, std::function<double()> fn) {
    ids_.push_back(RegisterGauge(name, std::move(fn)));
  }
  void Clear() {
    for (int id : ids_) UnregisterGauge(id);
    ids_.clear();
  }
  size_t size() const { return ids_.size(); }

 private:
  std::vector<int> ids_;
};

// Enumeration hooks for snapshots (registry is append-only for counters).
int NumCounters();
const Counter* CounterAt(int i);

// Samples every registered gauge under the registry lock (StatsReporter and
// snapshot capture).
void SampleGauges(const std::function<void(const std::string&, double)>& fn);

struct HistogramStats {
  uint64_t count = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  double mean_ns = 0;
  double p50_ns = 0, p90_ns = 0, p99_ns = 0, p999_ns = 0;

  static HistogramStats From(const LatencyHistogram& h);
};

// A point-in-time bundle of metrics, serializable to JSON:
//   {"meta":{...},"counters":{...},"gauges":{...},
//    "histograms_ns":{name:{count,min,max,mean,p50,...}},
//    "txn_types":[{name,committed,aborted,not_found,tps,latency:{...}}]}
class MetricsSnapshot {
 public:
  MetricsSnapshot() = default;

  void SetMeta(const std::string& key, const std::string& value);
  void AddCounter(const std::string& name, uint64_t value);
  void AddGauge(const std::string& name, double value);
  void AddHistogramNanos(const std::string& name, const LatencyHistogram& h);
  void AddTxnType(const std::string& name, uint64_t committed, uint64_t aborted,
                  uint64_t not_found, double tps, const LatencyHistogram& lat);

  // Pulls every registered Counter, gauge, and StageHistogram into this
  // snapshot. Stage histograms are included even when empty so consumers
  // (CI, pdb_top) can rely on the keys existing.
  void CaptureRegistry();

  std::string ToJson() const;
  // Serializes and writes to `path`; returns false (and fills err) on I/O
  // failure.
  bool WriteFile(const std::string& path, std::string* err = nullptr) const;

 private:
  struct TxnRow {
    std::string name;
    uint64_t committed, aborted, not_found;
    double tps;
    HistogramStats latency;
  };
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, HistogramStats>> histograms_;
  std::vector<TxnRow> txn_types_;
};

}  // namespace preemptdb::obs

#endif  // PREEMPTDB_OBS_METRICS_H_
