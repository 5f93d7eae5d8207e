// SLO watchdog: rolling-window per-class latency percentiles vs targets.
//
// The sensor half of the adaptive-preemption control loop (ROADMAP): a
// deterministic, injectable-clock SloTracker per priority class keeps a
// fixed ring of timestamped latency samples, computes the configured
// percentile over the samples inside the rolling window on demand, and
// reports breach/ok; an SloWatchdog wraps two trackers with an evaluation
// thread (absolute-deadline paced, same discipline as StatsReporter),
// process-global slo.{hp,lp}_violations counters, current-percentile gauges,
// and kSloBreach/kSloRecover trace events on transitions.
//
// Violation semantics: each evaluation that finds the windowed percentile
// above target counts one violation. A latency spike therefore increments
// violations for as long as its samples remain inside the rolling window and
// stops incrementing — exactly — once they age out; a recovered feed goes
// quiet without any reset call.
#ifndef PREEMPTDB_OBS_SLO_H_
#define PREEMPTDB_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/macros.h"

namespace preemptdb::obs {

struct SloConfig {
  // Per-class p-percentile targets in microseconds; 0 disables the class.
  uint64_t hp_target_us = 0;
  uint64_t lp_target_us = 0;
  double percentile = 99.0;       // which percentile the targets bound
  uint64_t window_ms = 1000;      // rolling sample window
  uint64_t eval_period_ms = 100;  // watchdog evaluation cadence
  size_t ring_capacity = 8192;    // samples kept per class (power of two)

  bool enabled() const { return hp_target_us > 0 || lp_target_us > 0; }
};

// One class's rolling-window percentile tracker. Record() is thread-safe
// and lock-free (producers are shard threads); Evaluate() is single-caller
// (the watchdog thread, or a test driving time by hand).
class SloTracker {
 public:
  SloTracker(uint64_t target_ns, double percentile, uint64_t window_ns,
             size_t ring_capacity);
  PDB_DISALLOW_COPY_AND_ASSIGN(SloTracker);

  void Record(uint64_t latency_ns, uint64_t now_ns);

  struct Verdict {
    bool breach = false;       // windowed percentile exceeded the target
    uint64_t measured_ns = 0;  // the windowed percentile (0: no samples)
    size_t samples = 0;        // samples inside the window
  };
  // Percentile over samples with timestamp in (now_ns - window, now_ns].
  Verdict Evaluate(uint64_t now_ns) const;

  uint64_t target_ns() const { return target_ns_; }

 private:
  struct Sample {
    std::atomic<uint64_t> ts_ns{0};  // 0 = slot never written
    std::atomic<uint64_t> latency_ns{0};
  };

  const uint64_t target_ns_;
  const double percentile_;
  const uint64_t window_ns_;
  size_t mask_;
  std::vector<Sample> ring_;
  std::atomic<uint64_t> next_{0};
};

// Two-class watchdog with its own evaluation thread. Also usable without
// Start(): tests call EvaluateOnce(now_ns) with synthetic clocks and read
// the per-instance violation counts.
class SloWatchdog {
 public:
  explicit SloWatchdog(const SloConfig& config);
  ~SloWatchdog();
  PDB_DISALLOW_COPY_AND_ASSIGN(SloWatchdog);

  // Spawns / joins the evaluation thread (no-ops when !config.enabled()).
  void Start();
  void Stop();

  // Feed one completed request's end-to-end latency (any thread).
  void Record(bool high_priority, uint64_t latency_ns, uint64_t now_ns);

  // One evaluation pass at `now_ns`: updates violation counts, breach
  // state, gauges, and emits transition trace events. Called by the thread
  // every eval_period_ms; exposed for deterministic tests.
  void EvaluateOnce(uint64_t now_ns);

  // Per-instance counts (the process-global slo.*_violations counters sum
  // across instances).
  uint64_t hp_violations() const { return hp_violations_.Value(); }
  uint64_t lp_violations() const { return lp_violations_.Value(); }
  bool hp_breached() const {
    return hp_breached_.load(std::memory_order_relaxed);
  }
  bool lp_breached() const {
    return lp_breached_.load(std::memory_order_relaxed);
  }
  uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  // Last evaluated windowed percentile per class (gauge backing store).
  uint64_t hp_measured_ns() const {
    return hp_measured_ns_.load(std::memory_order_relaxed);
  }
  uint64_t lp_measured_ns() const {
    return lp_measured_ns_.load(std::memory_order_relaxed);
  }

  const SloConfig& config() const { return config_; }

 private:
  void ThreadBody();
  void EvaluateClass(bool high_priority, const SloTracker& tracker,
                     uint64_t now_ns);

  const SloConfig config_;
  SloTracker hp_;
  SloTracker lp_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  LocalCounter hp_violations_;  // slo.hp_violations
  LocalCounter lp_violations_;  // slo.lp_violations
  std::atomic<bool> hp_breached_{false};
  std::atomic<bool> lp_breached_{false};
  std::atomic<uint64_t> hp_measured_ns_{0};
  std::atomic<uint64_t> lp_measured_ns_{0};
  std::atomic<uint64_t> evaluations_{0};
  GaugeGroup gauges_;
};

}  // namespace preemptdb::obs

#endif  // PREEMPTDB_OBS_SLO_H_
