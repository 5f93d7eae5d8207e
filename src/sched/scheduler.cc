#include "sched/scheduler.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <string>
#include <thread>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::sched {

namespace {
obs::Counter g_expired_counter("sched.hp_expired");
obs::Counter g_demoted_counter("sched.worker_demoted");
obs::Counter g_promoted_counter("sched.worker_promoted");
}  // namespace

Scheduler::Scheduler(const SchedulerConfig& config, Workload workload)
    : config_(config),
      tunables_(config.tunables,
                static_cast<size_t>(config.num_workers > 0 ? config.num_workers
                                                           : 1) *
                    config.hp_queue_capacity),
      workload_(std::move(workload)),
      expired_(g_expired_counter),
      demotions_(g_demoted_counter),
      promotions_(g_promoted_counter),
      stats_reporter_(config.stats_period_ms) {
  PDB_CHECK(workload_.step != nullptr);
  PDB_CHECK(config_.num_workers >= 1);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        i, config_, &tunables_, workload_.step, workload_.exec_ctx,
        &metrics_));
  }
  health_.resize(workers_.size());
  lp_topped_up_.resize(workers_.size());
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  for (auto& w : workers_) w->Start();
  for (auto& w : workers_) {
    while (!w->Ready()) sched_yield();
  }
  for (auto& w : workers_) {
    Worker* wp = w.get();
    std::string prefix = "worker" + std::to_string(wp->id());
    gauge_ids_.push_back(obs::RegisterGauge(
        prefix + ".hp_depth",
        [wp] { return static_cast<double>(wp->HpDepth()); }));
    gauge_ids_.push_back(obs::RegisterGauge(
        prefix + ".lp_depth",
        [wp] { return static_cast<double>(wp->LpDepth()); }));
    gauge_ids_.push_back(obs::RegisterGauge(
        prefix + ".starvation",
        [wp] { return wp->StarvationLevel(); }));
  }
  if (config_.stats_period_ms > 0) stats_reporter_.Start();
  sched_thread_ = std::thread([this] { SchedulingLoop(); });
}

void Scheduler::Stop() {
  if (stop_.exchange(true)) return;
  Notify();  // the scheduling thread may be parked until its next tick
  if (sched_thread_.joinable()) sched_thread_.join();
  stats_reporter_.Stop();
  for (int id : gauge_ids_) obs::UnregisterGauge(id);
  gauge_ids_.clear();
  for (auto& w : workers_) w->RequestStop();
  for (auto& w : workers_) w->Join();
}

size_t Scheduler::PruneExpired(std::vector<Request>& batch, size_t from,
                               uint64_t now) {
  // Compact-in-place removal of dead requests. Expired work is completed by
  // the frontend (kTimeout), never requeued — spending placement budget or
  // worker time on it would only delay requests someone still waits for.
  size_t kept = from;
  for (size_t i = from; i < batch.size(); ++i) {
    const Request& r = batch[i];
    if (r.deadline_ns != 0 && now >= r.deadline_ns) {
      expired_.Add();
      obs::Trace(obs::EventType::kHpExpired, r.type);
      if (workload_.on_expired) workload_.on_expired(r);
    } else {
      if (kept != i) batch[kept] = batch[i];
      ++kept;
    }
  }
  batch.resize(kept);
  return kept;
}

bool Scheduler::SendTracked(Worker& w) {
  uintr::Receiver* r = w.receiver();
  if (r == nullptr) return false;
  // Record before the send so the receiver's UipiDelivered always
  // timestamps after it (the exporter pairs the two by track).
  obs::Trace(obs::EventType::kUipiSent, static_cast<uint32_t>(w.obs_track()));
  WorkerHealth& h = health_[static_cast<size_t>(w.id())];
  if (uintr::SendUipi(r)) {
    uipis_sent_.fetch_add(1, std::memory_order_relaxed);
    h.consecutive_failures = 0;
    if (h.unacked_sends == 0) h.first_unacked_ns = MonoNanos();
    ++h.unacked_sends;
    return true;
  }
  ++h.consecutive_failures;
  return false;
}

size_t Scheduler::PlaceHighPriorityBatch(std::vector<Request>& batch,
                                         uint64_t deadline_ns) {
  // Round-robin placement (paper §5): pick workers in turn, skip workers
  // whose low-priority transaction is already starved beyond the threshold,
  // fill each selected worker's queue as far as possible, and send a single
  // user interrupt per worker that received work.
  size_t placed = 0;
  size_t next = 0;  // batch cursor
  const bool preempt = config_.policy == Policy::kPreempt;
  // Tunables read once per placement call: one Apply() generation governs a
  // whole batch, so a mid-batch retune cannot split it across two policies.
  const double starvation_threshold = tunables_.starvation_threshold();
  // Under an enabled threshold of 0 the work is still placed but gets no
  // interrupt: it runs on the regular path only. Any other threshold skips
  // a worker whose LP transaction is already starved past it.
  const bool regular_only = tunables_.regular_path_hp_only();
  const bool interrupts = preempt && !regular_only;
  const bool skip_starved = tunables_.starvation_enabled() && !regular_only;
  PruneExpired(batch, next, MonoNanos());
  while (next < batch.size()) {
    bool progress = false;
    for (size_t i = 0; i < workers_.size() && next < batch.size(); ++i) {
      Worker& w = *workers_[rr_next_];
      rr_next_ = (rr_next_ + 1) % workers_.size();
      if (skip_starved && w.StarvationLevel() >= starvation_threshold) {
        continue;
      }
      // Fault injection: treat this worker's queue as full for the round,
      // exercising the shed/requeue path without needing real overload.
      if (PDB_UNLIKELY(fault::Enabled()) &&
          fault::ShouldFire(fault::Point::kQueueFull)) {
        continue;
      }
      size_t pushed = 0;
      while (next < batch.size() && w.hp_queue().TryPush(batch[next])) {
        obs::Trace(obs::EventType::kHpEnqueue,
                   static_cast<uint32_t>(w.obs_track()));
        ++next;
        ++pushed;
        ++placed;
      }
      // One interrupt per worker that received work; a worker whose queue is
      // still full gets re-interrupted too — the previous interrupt may have
      // been dropped inside a non-preemptible region (paper §4.4), and the
      // request must still be served "immediately" once the region exits.
      // Degraded workers get work but no interrupt: their signal path is the
      // thing that failed, and their boundary checks + yield hooks drain the
      // queue cooperatively until a probe proves delivery works again.
      if (pushed > 0 || (interrupts && !w.hp_queue().Empty())) {
        if (pushed > 0) {
          progress = true;
          w.Wake();  // an idle worker is parked, not polling
        }
        if (interrupts && !w.degraded()) SendTracked(w);
      }
    }
    if (next >= batch.size()) break;
    uint64_t now = MonoNanos();
    if (now >= deadline_ns || stop_.load(std::memory_order_acquire)) {
      break;  // shed the rest (paper: "or the next arrival interval passes")
    }
    if (PruneExpired(batch, next, now) <= next) continue;
    if (!progress) {
      // Queues full: give the workers the core instead of spinning it away.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return placed;
}

void Scheduler::UpdateWorkerHealth() {
  // Degradation state machine, run once per tick on the scheduling thread.
  // Signals: SendUipi failing outright (ESRCH/EAGAIN-exhaustion/injected
  // drop) counts consecutive failures; successful sends that the receiver
  // never acknowledges (its delivery counter stalls) count send->delivery
  // latency. Either exceeding its threshold demotes the worker to
  // cooperative-yield placement. While demoted, a probe interrupt goes out
  // every probe_interval_ticks; the receiver's delivery counter advancing
  // proves the path works again and promotes the worker back.
  if (!config_.enable_degradation || config_.policy != Policy::kPreempt) {
    return;
  }
  // Live-read the degradation knobs: the adaptive controller retunes them
  // while workers are demoted (faster probing, larger latency budget).
  const int demote_failures = tunables_.demote_failure_threshold();
  const uint64_t demote_latency_ns = tunables_.demote_latency_ns();
  const uint64_t probe_ticks = tunables_.probe_interval_ticks();
  const uint64_t now = MonoNanos();
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    uintr::Receiver* r = w.receiver();
    if (r == nullptr) continue;
    WorkerHealth& h = health_[i];
    const uint64_t received =
        uintr::StatsOf(r).received.load(std::memory_order_relaxed);
    const bool advanced = received != h.last_received;
    if (advanced) {
      h.last_received = received;
      h.unacked_sends = 0;
      h.first_unacked_ns = 0;
    }
    if (!w.degraded()) {
      // Both triggers honor their documented "0 disables" contract (the old
      // code demoted instantly at threshold 0).
      const bool failing = demote_failures > 0 &&
                           h.consecutive_failures >= demote_failures;
      const bool stalled = demote_latency_ns > 0 && h.unacked_sends > 0 &&
                           h.first_unacked_ns != 0 &&
                           now - h.first_unacked_ns >= demote_latency_ns;
      if (failing || stalled) {
        w.SetDegraded(true);
        demotions_.Add();
        obs::Trace(obs::EventType::kWorkerDemoted,
                   static_cast<uint32_t>(w.obs_track()));
        h.consecutive_failures = 0;
        h.unacked_sends = 0;
        h.first_unacked_ns = 0;
        h.ticks_since_probe = 0;
      }
    } else if (advanced) {
      w.SetDegraded(false);
      promotions_.Add();
      obs::Trace(obs::EventType::kWorkerPromoted,
                 static_cast<uint32_t>(w.obs_track()));
      h.consecutive_failures = 0;
      h.unacked_sends = 0;
      h.first_unacked_ns = 0;
    } else if (++h.ticks_since_probe >= probe_ticks) {
      h.ticks_since_probe = 0;
      SendTracked(w);
    }
  }
}

void Scheduler::PlacementPass(uint64_t deadline_ns, bool tick) {
  // Keep every worker's low-priority queue topped up, once per tick: a tick
  // refills every LP queue, and a pass between ticks refills only a worker
  // that has had no LP placement since the last tick. An LP submission that
  // meets an unused top-up dispatches at once; a backlog drains at one
  // top-up per worker per tick, as in the paper's arrival model, so LP
  // throughput at saturation is set by the tick rather than by how much CPU
  // the host grants the workers.
  if (workload_.gen_low) {
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!tick && lp_topped_up_[i]) continue;
      Worker* w = workers_[i].get();
      size_t pushed = 0;
      while (w->lp_queue().FreeSlots() > 0) {
        Request r;
        if (!workload_.gen_low(&r)) break;
        r.priority = Priority::kLow;
        r.gen_ns = MonoNanos();
        if (r.deadline_ns != 0 && r.gen_ns >= r.deadline_ns) {
          expired_.Add();
          obs::Trace(obs::EventType::kHpExpired, r.type);
          if (workload_.on_expired) workload_.on_expired(r);
          continue;
        }
        if (!w->lp_queue().TryPush(r)) break;
        ++pushed;
      }
      lp_topped_up_[i] = pushed > 0;
      if (pushed > 0) w->Wake();
    }
  }

  // Admit a batch of high-priority transactions, all stamped with the same
  // generation timestamp (paper §6.1).
  if (workload_.gen_high) {
    const size_t batch_size = tunables_.EffectiveHpBatch();
    std::vector<Request> batch;
    batch.reserve(batch_size);
    uint64_t gen = MonoNanos();
    for (size_t i = 0; i < batch_size; ++i) {
      Request r;
      if (!workload_.gen_high(&r)) break;
      r.priority = Priority::kHigh;
      r.gen_ns = gen;
      batch.push_back(r);
    }
    size_t placed = PlaceHighPriorityBatch(batch, deadline_ns);
    hp_admitted_.fetch_add(placed, std::memory_order_relaxed);
    hp_dropped_.fetch_add(batch.size() - placed, std::memory_order_relaxed);
    if (placed < batch.size()) {
      obs::Trace(obs::EventType::kHpShed, 0, batch.size() - placed);
    }
    if (workload_.on_shed) {
      for (size_t i = placed; i < batch.size(); ++i) {
        workload_.on_shed(batch[i]);
      }
    }
  }
}

void Scheduler::SchedulingLoop() {
  // The paper dedicates a CPU core to the scheduling thread (§6.1), so it
  // reacts to arrivals immediately. On machines with fewer cores than
  // threads the closest analog is a realtime priority: the thread parks
  // between passes and preempts CFS workers the moment it wakes, instead of
  // waiting out their timeslices. Requires CAP_SYS_NICE; silently degrades
  // to normal priority without it.
  sched_param rt{.sched_priority = 10};
  (void)pthread_setschedparam(pthread_self(), SCHED_RR, &rt);
  if (obs::TraceEnabled()) obs::RegisterThisThread("scheduler");

  // Two things wake the thread for a placement pass:
  //   - Notify(): a push-based frontend published a submission (or a worker
  //     freed queue room with more waiting). Pushed HP work is dispatched at
  //     once, not on the next tick; pushed LP work too, as long as its
  //     worker's top-up for this tick is unused (see PlacementPass).
  //   - The tick, every arrival_interval_us. It is the arrival model of
  //     synthetic generators, which never ring (so Fig. 10/12/13 batch
  //     arrivals are unchanged), the LP top-up period, the shed deadline of
  //     an HP batch, and the period of health housekeeping (degradation
  //     probes, Fig. 8 empty interrupts), which runs on tick boundaries only.
  // Between passes the thread parks on the doorbell — never spins. A
  // realtime thread that busy-waits on a single-core machine starves every
  // CFS worker.
  const uint64_t interval_ns = config_.arrival_interval_us * 1000;
  uint64_t next_tick = MonoNanos();
  uint32_t seen = doorbell_.Seq();
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t now = MonoNanos();
    const bool tick = now >= next_tick;
    // Read before the pass scans the submission sources: a ring that races
    // the pass leaves the sequence moved and buys another pass.
    const uint32_t seq = doorbell_.Seq();
    if (!tick && seq == seen) {
      doorbell_.Park(seen, next_tick);
      continue;
    }
    seen = seq;
    if (tick) next_tick = now + interval_ns;

    PlacementPass(next_tick, tick);
    if (!tick) continue;

    // Fig. 8 overhead mode: interrupt all workers although no high-priority
    // requests were generated.
    if (config_.send_empty_interrupts &&
        config_.policy == Policy::kPreempt) {
      for (auto& w : workers_) SendTracked(*w);
    }

    UpdateWorkerHealth();
  }
}

}  // namespace preemptdb::sched
