// Scheduling policies and their knobs (paper §5/§6.1).
#ifndef PREEMPTDB_SCHED_CONFIG_H_
#define PREEMPTDB_SCHED_CONFIG_H_

#include <cstdint>

#include "sched/tunable.h"
#include "uintr/uintr.h"

namespace preemptdb::sched {

enum class Policy : uint8_t {
  // Non-preemptive FIFO with a high/low priority queue pair: high-priority
  // work is taken only at transaction boundaries ("Wait").
  kWait,
  // Engine-level cooperative yielding every `yield_interval_records` record
  // accesses ("Cooperative"); handcrafted_q2_blocks > 0 switches to the
  // workload-specific handcrafted variant of Fig. 11.
  kCooperative,
  // Userspace-interrupt preemption with batched on-demand preemption and
  // starvation prevention ("PreemptDB").
  kPreempt,
};

inline const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kWait:
      return "Wait";
    case Policy::kCooperative:
      return "Cooperative";
    case Policy::kPreempt:
      return "PreemptDB";
  }
  return "?";
}

// Structural (construction-time, immutable) scheduler configuration. The
// runtime-tunable knobs — starvation prevention, HP batch size, degradation
// pacing — live in `tunables` (sched/tunable.h): those seed a TunableConfig
// registry the scheduler and workers read per-tick, mutable at runtime via
// TunableConfig::Apply (used by the adaptive controller and the wire admin
// plane). Everything else here is fixed for the scheduler's lifetime:
// thread/queue shapes that cannot change under running workers, and
// policy/experiment selectors.
struct SchedulerConfig {
  Policy policy = Policy::kWait;
  int num_workers = 4;

  // Paper defaults (§6.1): LP queue size 1, HP queue size 4, batch =
  // workers * hp_queue_capacity, arrival interval 1 ms.
  size_t lp_queue_capacity = 1;
  size_t hp_queue_capacity = 4;
  // The scheduling tick. It is the arrival model of synthetic generators (one
  // LP top-up and one HP batch per tick), the deadline by which an HP batch
  // is placed or shed, and the period of health housekeeping (degradation
  // probes count in ticks; Fig. 8 empty interrupts go out once per tick).
  // Pushed submissions dispatch as soon as the frontend rings
  // Scheduler::Notify(), except that each worker takes at most one LP
  // top-up per tick: an LP backlog drains at the tick's pace.
  uint64_t arrival_interval_us = 1000;

  // Cooperative knobs.
  uint64_t yield_interval_records = 10000;
  uint64_t handcrafted_q2_blocks = 0;  // >0: handcrafted variant

  uintr::PendingMode pending_mode = uintr::PendingMode::kDrop;

  // Graceful degradation (preempt -> yield). When the signal path of a
  // worker turns flaky — SendUipi failing, or sends going undelivered past
  // the latency budget — the scheduler demotes that worker to
  // cooperative-yield placement (it keeps receiving HP work but no
  // interrupts; the worker's engine-hook yield points drain the queue, so HP
  // latency degrades to Yield-mode instead of stalling). While demoted the
  // scheduler keeps probing with a single interrupt every
  // `tunables.probe_interval_ticks` and promotes the worker back once a
  // delivery is observed again. This master switch is structural (it decides
  // whether yield hooks are installed at worker start); the demotion
  // thresholds and probe pacing are tunable at runtime.
  bool enable_degradation = true;

  // Seed values for the runtime-tunable knobs (starvation prevention,
  // hp_batch_size, degradation thresholds). See sched/tunable.h.
  TunableValues tunables;

  // Fig. 8 overhead mode: periodically interrupt workers although no
  // high-priority requests exist.
  bool send_empty_interrupts = false;

  // Whether workers register uintr receivers at all ("without uintr
  // mechanisms" baseline of Fig. 8). Cooperative and Preempt require it.
  bool register_receivers = true;

  // Period of the background gauge sampler (obs::StatsReporter) that records
  // queue-depth aggregates for --metrics-json output. 0 disables the
  // sampling thread; gauges stay registered and can still be read at
  // snapshot time.
  uint64_t stats_period_ms = 0;
};

}  // namespace preemptdb::sched

#endif  // PREEMPTDB_SCHED_CONFIG_H_
