// Worker threads (paper Fig. 5): each worker owns a low- and a high-priority
// scheduling queue and two transaction contexts. The main context runs the
// regular scheduling path; the preemptive context is entered either by a
// user interrupt (PreemptDB policy) or voluntarily at yield points
// (Cooperative policy), drains the high-priority queue subject to the
// starvation-prevention policy, and swaps back.
#ifndef PREEMPTDB_SCHED_WORKER_H_
#define PREEMPTDB_SCHED_WORKER_H_

#include <atomic>
#include <thread>

#include "sched/config.h"
#include "sched/request.h"
#include "sched/tunable.h"
#include "sync/doorbell.h"
#include "sync/spsc_queue.h"
#include "uintr/uintr.h"
#include "util/macros.h"

namespace preemptdb::sched {

class Worker {
 public:
  // `tunables` is the owning scheduler's runtime knob registry (outlives the
  // worker); the worker reads the starvation knobs from it on every drain
  // and the interleave depth on every slot refill. `step` (non-null) runs
  // every request: low-priority ones through the interleaving slot array
  // (see InterleaveLoop), high-priority ones driven to completion.
  Worker(int id, const SchedulerConfig& config, const TunableConfig* tunables,
         StepFn step, void* exec_ctx, Metrics* metrics);
  ~Worker();
  PDB_DISALLOW_COPY_AND_ASSIGN(Worker);

  void Start();
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }
  void Join();

  int id() const { return id_; }

  // Producer side is the scheduling thread only (SPSC). The producer calls
  // Wake() after pushing: an idle worker parks until then.
  SpscQueue<Request>& lp_queue() { return lp_queue_; }
  SpscQueue<Request>& hp_queue() { return hp_queue_; }
  void Wake() { wake_.Ring(); }

  // Receiver handle for SendUipi; null until the worker thread registered.
  uintr::Receiver* receiver() const {
    return receiver_.load(std::memory_order_acquire);
  }

  // Starvation level L = T_h / (T_1 - T_0) of the in-progress low-priority
  // transaction (paper §5, Fig. 7); 0 when none is active.
  double StarvationLevel() const;

  // True once the worker thread is up and polling.
  bool Ready() const { return ready_.load(std::memory_order_acquire); }

  // Degradation state (set by the scheduling thread, read by both). While
  // degraded, a preempt-policy worker behaves cooperatively: it prefers the
  // HP queue at transaction boundaries and its engine-hook yield points
  // drain HP work mid-transaction, so a broken signal path costs Yield-mode
  // latency instead of stalling high-priority transactions.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  void SetDegraded(bool on) {
    degraded_.store(on, std::memory_order_relaxed);
  }

  // Trace track id of the worker thread's event ring (obs/trace.h); -1 until
  // the thread has registered. The scheduler stamps this into UipiSent events
  // so the exporter can pair them with the receiver's UipiDelivered.
  int obs_track() const { return obs_track_.load(std::memory_order_acquire); }

  // Current queue depths (racy reads; gauge sampling only).
  size_t LpDepth() const { return lp_queue_.Size(); }
  size_t HpDepth() const { return hp_queue_.Size(); }

  uint64_t hp_executed() const {
    return hp_executed_.load(std::memory_order_relaxed);
  }
  uint64_t hp_executed_preempt() const {
    return hp_executed_preempt_.load(std::memory_order_relaxed);
  }

 private:
  static void PreemptEntryThunk(void* self);
  static void YieldHookThunk();

  void ThreadBody();
  // The regular path: a CoroBase-style interleaving dispatcher that
  // round-robins up to tunables->interleave_slots() resumable low-priority
  // transactions over a fixed slot array, so a stalled slot's sibling runs
  // while the stalled one's prefetched line arrives. Brackets each LP step
  // with Stui/Clui, anchors the t0/th starvation window to one active slot,
  // applies the per-policy HP queue preference at round boundaries and,
  // under PreemptDB, delivers a pending (dropped) interrupt before each LP
  // step. Parks on a futex when idle. At depth 1 with a one-step executor
  // it is the plain pop-run-repeat loop.
  void InterleaveLoop();
  void PreemptLoop();  // context-2 body; never returns
  void YieldHook();    // cooperative yield point

  // Runs one high-priority request to completion and records metrics.
  // `count_starvation` accumulates its cycles into T_h (used when running in
  // the preemptive context above a paused low-priority transaction).
  void RunRequest(const Request& req, bool count_starvation);
  // Records a finished request's outcome in metrics_ and the trace.
  void RecordDone(const Request& req, Rc rc);

  // True if the starvation threshold forbids running more high-priority
  // work on this worker right now.
  bool StarvationExceeded() const;

  const int id_;
  const SchedulerConfig& config_;
  const TunableConfig* const tunables_;
  const StepFn step_;
  void* const exec_ctx_;
  Metrics* const metrics_;

  SpscQueue<Request> lp_queue_;
  SpscQueue<Request> hp_queue_;
  // Deep-idle parking word, rung by Wake(). No timeout: a lost wakeup must
  // hang, not hide behind a polling interval.
  Doorbell wake_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> ready_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<uintr::Receiver*> receiver_{nullptr};
  std::atomic<int> obs_track_{-1};

  // Starvation accounting, shared between the two contexts (paper Fig. 7).
  std::atomic<uint64_t> t0_cycles_{0};  // 0 = no LP transaction in progress
  std::atomic<uint64_t> th_cycles_{0};

  std::atomic<uint64_t> hp_executed_{0};
  std::atomic<uint64_t> hp_executed_preempt_{0};
};

}  // namespace preemptdb::sched

#endif  // PREEMPTDB_SCHED_WORKER_H_
