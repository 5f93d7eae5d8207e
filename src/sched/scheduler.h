// The scheduling thread (paper §4.1/§6.1): runs a placement pass whenever a
// push-based frontend rings Notify(), and on every arrival tick (the arrival
// model of synthetic generators). A pass tops up each worker's LP queue (once
// per worker per tick), admits a high-priority batch round-robin into
// the workers' HP queues subject to starvation prevention, and — under the
// PreemptDB policy — issues one user interrupt per filled worker (batched
// on-demand preemption, §5).
#ifndef PREEMPTDB_SCHED_SCHEDULER_H_
#define PREEMPTDB_SCHED_SCHEDULER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "sched/config.h"
#include "sched/request.h"
#include "sched/tunable.h"
#include "sched/worker.h"
#include "sync/doorbell.h"
#include "util/macros.h"

namespace preemptdb::sched {

class Scheduler {
 public:
  // Request generators run on the scheduling thread and return false when
  // they have nothing to produce right now (push-based frontends drain a
  // submission queue and ring Notify() after each push; synthetic
  // benchmarks always produce, once per tick). gen_high may be null (no
  // high-priority stream, e.g., the Fig. 8 overhead experiment).
  struct Workload {
    std::function<bool(Request*)> gen_low;
    std::function<bool(Request*)> gen_high;
    // The executor (required). Workers step low-priority requests through
    // the interleaving slot dispatcher, up to tunables().interleave_slots()
    // transactions round-robin; a one-shot executor returns {kDone, rc} on
    // its first call. High-priority requests always run to completion in
    // one go (steps driven back-to-back), so preemption latency is
    // unchanged.
    StepFn step = nullptr;
    void* exec_ctx = nullptr;
    // Invoked (on the scheduling thread) for each high-priority request
    // shed at the arrival-interval deadline. Frontends that own resources
    // inside requests (e.g. the DB facade's closures) reclaim or requeue
    // them here; when unset, shed requests are simply counted and dropped
    // (the paper's benchmark behaviour).
    std::function<void(const Request&)> on_shed;
    // Invoked (on the scheduling thread) for each request whose
    // deadline_ns passed before it could be placed. Unlike on_shed the
    // request is dead — frontends complete it with Rc::kTimeout rather than
    // requeue it. When unset, expired requests are counted and dropped.
    std::function<void(const Request&)> on_expired;
  };

  Scheduler(const SchedulerConfig& config, Workload workload);
  ~Scheduler();
  PDB_DISALLOW_COPY_AND_ASSIGN(Scheduler);

  // Spawns workers and the scheduling thread; returns once all are polling.
  void Start();
  // Stops the scheduling thread first, then the workers, and joins all.
  void Stop();

  // Doorbell for push-based frontends: call after publishing work that
  // gen_low/gen_high will produce. The scheduling thread runs a placement
  // pass at once instead of on its next tick (an LP backlog still drains at
  // one top-up per worker per tick). Cheap when the thread is busy
  // (one CAS); at most one FUTEX_WAKE per park. Async-signal-safe.
  void Notify() { doorbell_.Ring(); }

  Metrics& metrics() { return metrics_; }
  const SchedulerConfig& config() const { return config_; }
  // Runtime-tunable knob registry, seeded from config().tunables. Mutations
  // go through tunables().Apply() and take effect on the next placement
  // pass / worker drain — no restart, no lock on the hot path.
  TunableConfig& tunables() { return tunables_; }
  const TunableConfig& tunables() const { return tunables_; }
  // Number of workers currently demoted to cooperative-yield placement.
  int degraded_workers() const {
    int n = 0;
    for (const auto& w : workers_) n += w->degraded() ? 1 : 0;
    return n;
  }
  Worker& worker(int i) { return *workers_[i]; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  uint64_t uipis_sent() const {
    return uipis_sent_.load(std::memory_order_relaxed);
  }
  // High-priority requests that could not be placed before their arrival
  // interval elapsed (overload shedding, paper §6.1).
  uint64_t hp_dropped() const {
    return hp_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t hp_admitted() const {
    return hp_admitted_.load(std::memory_order_relaxed);
  }
  // Requests whose deadline passed before placement (distinct from shed:
  // expired work is completed as kTimeout, never requeued).
  uint64_t expired() const { return expired_.Value(); }

  // Degradation transitions taken so far (see SchedulerConfig degradation
  // knobs): preempt->yield demotions and yield->preempt promotions.
  uint64_t demotions() const { return demotions_.Value(); }
  uint64_t promotions() const { return promotions_.Value(); }
  bool worker_degraded(int i) const { return workers_[i]->degraded(); }

  // Queue-depth aggregates sampled while running (started by Start() when
  // config.stats_period_ms > 0). Valid for AppendTo() after Stop().
  const obs::StatsReporter& stats_reporter() const { return stats_reporter_; }

 private:
  // Signal-path health of one worker, maintained on the scheduling thread.
  // Drives the preempt -> yield -> preempt degradation state machine.
  struct WorkerHealth {
    uint64_t last_received = 0;     // receiver delivery count at last check
    int consecutive_failures = 0;   // SendUipi returned false, in a row
    uint64_t unacked_sends = 0;     // successful sends since last delivery
    uint64_t first_unacked_ns = 0;  // when the oldest unacked send happened
    uint64_t ticks_since_probe = 0; // probe pacing while demoted
  };

  void SchedulingLoop();
  // One placement pass: tops up LP queues from gen_low (on a tick every
  // worker's, between ticks only those not yet topped up this tick), then
  // admits one gen_high batch, shedding what is unplaced by `deadline_ns`.
  void PlacementPass(uint64_t deadline_ns, bool tick);
  // Attempts to place `batch` into HP queues round-robin until placed or
  // `deadline_ns`; returns the number placed.
  size_t PlaceHighPriorityBatch(std::vector<Request>& batch,
                                uint64_t deadline_ns);
  // Completes (via on_expired) and removes batch entries past their
  // deadline, compacting indices >= `from`; returns the new batch size.
  size_t PruneExpired(std::vector<Request>& batch, size_t from, uint64_t now);
  // Sends one interrupt to `w`, recording the outcome in its health state.
  bool SendTracked(Worker& w);
  // Per-tick degradation bookkeeping: acknowledge deliveries, demote workers
  // whose signal path is failing, probe and promote demoted ones.
  void UpdateWorkerHealth();

  SchedulerConfig config_;
  // Declared before workers_: each Worker holds a pointer into it.
  TunableConfig tunables_;
  Workload workload_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<WorkerHealth> health_;
  // Per worker: received LP work since the last tick. Scheduling thread only.
  std::vector<bool> lp_topped_up_;
  Doorbell doorbell_;
  std::thread sched_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> uipis_sent_{0};
  std::atomic<uint64_t> hp_dropped_{0};
  std::atomic<uint64_t> hp_admitted_{0};
  obs::LocalCounter expired_;     // sched.hp_expired
  obs::LocalCounter demotions_;   // sched.worker_demoted
  obs::LocalCounter promotions_;  // sched.worker_promoted
  size_t rr_next_ = 0;
  obs::StatsReporter stats_reporter_;
  std::vector<int> gauge_ids_;
};

}  // namespace preemptdb::sched

#endif  // PREEMPTDB_SCHED_SCHEDULER_H_
