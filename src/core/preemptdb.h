// PreemptDB public API.
//
// A DB bundles the memory-optimized MVCC storage engine with the preemptive
// scheduling runtime (scheduler thread + worker threads with two transaction
// contexts each). Applications either run transactions inline on their own
// thread (Execute) or submit them tagged with a priority (Submit /
// SubmitAndWait), in which case high-priority transactions preempt
// in-progress low-priority ones via simulated user interrupts.
//
//   preemptdb::DB::Options opts;
//   opts.scheduler.policy = preemptdb::sched::Policy::kPreempt;
//   auto db = preemptdb::DB::Open(opts);
//   auto* t = db->CreateTable("accounts");
//   db->Execute([&](preemptdb::engine::Engine& eng) {
//     auto* txn = eng.Begin();
//     txn->Insert(t, 42, "hello");
//     return txn->Commit();
//   });
//   db->SubmitAndWait(preemptdb::sched::Priority::kHigh, ...);
#ifndef PREEMPTDB_CORE_PREEMPTDB_H_
#define PREEMPTDB_CORE_PREEMPTDB_H_

#include <functional>
#include <memory>
#include <string>

#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "obs/timeline.h"
#include "sched/scheduler.h"
#include "sync/mpmc_queue.h"

namespace preemptdb {

// A user transaction body: do work through the engine, return the final
// status (typically the Commit() result).
using TxnFn = std::function<Rc(engine::Engine&)>;

// Completion notification for fire-and-forget submissions (the Submit
// overload below). Invoked exactly once per accepted submission with the
// terminal status: the transaction's final Rc after retries, or Rc::kTimeout
// when the deadline expired before it could run. Runs on whichever thread
// completed the submission — a worker thread (possibly inside a fiber that
// has been preempted and resumed), or the scheduling thread for deadline
// expiry — so it must be fast, non-blocking, lock-free, and must not touch
// the engine. The networked front-end's callback appends the completion to
// a shard-local MPSC ring and issues at most one coalesced eventfd wake
// ("enqueue + maybe-wake") rather than taking locks or blocking.
using CompletionFn = std::function<void(Rc)>;

// Automatic re-execution of transactions that abort for transient reasons
// (write conflicts, serialization failures — see IsRetryableAbort). The
// default policy (max_attempts = 1) never retries; opting in re-runs the
// TxnFn up to max_attempts times total with capped exponential backoff plus
// deterministic jitter between attempts. Non-retryable outcomes (kNotFound,
// I/O errors, explicit aborts) return immediately regardless.
struct RetryPolicy {
  int max_attempts = 1;             // total attempts, including the first
  uint64_t initial_backoff_us = 20; // sleep before attempt 2
  uint64_t max_backoff_us = 2000;   // exponential growth cap
  uint64_t jitter_seed = 0;         // 0 = derive from the closure address
};

// Per-submission options.
struct SubmitOptions {
  RetryPolicy retry;
  // Relative deadline: the transaction must *finish* within timeout_us of
  // submission or it completes as Rc::kTimeout. Expiry is checked before
  // placement (scheduler), at dequeue, and before execution — a transaction
  // that already started is never cut short. 0 = no deadline.
  uint64_t timeout_us = 0;
  // Identity of the submitting front-end shard, carried through
  // sched::Request::shard_id for per-shard attribution (traces, counters).
  // Purely observational: placement, priority, and backpressure are
  // independent of it. 0 for single-shard callers.
  uint32_t shard_id = 0;
  // Optional lifecycle timeline (obs/timeline.h). The caller owns the
  // struct and must keep it alive until the completion callback fires (the
  // net layer keeps it inside the PendingOp the callback retains). The DB
  // stamps enqueue/dispatch/done, the worker stamps first-run and the
  // preemption counters, and completed runs are folded into the
  // sched.stage.* histograms. Null = no per-request tracing (zero cost).
  obs::TxnTimeline* timeline = nullptr;
};

// Outcome of a Submit() call. Backpressure contract: kQueueFull means the
// bounded submission queue rejected the closure — nothing was enqueued, the
// TxnFn was not consumed-and-dropped silently, and the caller decides
// whether to back off and resubmit, shed load, or escalate. The DB never
// blocks a Submit() caller; only SubmitAndWait* block (and they apply
// backpressure by waiting for a free slot). kStopped means the DB is
// shutting down and no further submissions are accepted.
enum class SubmitResult : uint8_t { kAccepted, kQueueFull, kStopped };

const char* SubmitResultString(SubmitResult r);

class DB {
 public:
  struct Options {
    sched::SchedulerConfig scheduler;
    // Start the scheduling runtime; if false the DB is engine-only and
    // Submit* are unavailable (Execute still works).
    bool start_scheduler = true;
    // Background version-GC period; 0 disables (collect manually via
    // engine().CollectGarbage()).
    uint64_t gc_interval_ms = 50;
    // Capacity of each bounded submission queue (per priority). Small
    // capacities make Submit() return kQueueFull under load — used by tests
    // to exercise the backpressure path deterministically.
    size_t submit_queue_capacity = 1 << 12;
    // Durability directory. Non-empty makes the DB crash-durable: opening
    // recovers whatever a previous incarnation left there (checkpoint +
    // CRC-framed redo tail), then appends to <log_dir>/redo.log with group
    // fdatasync at commit boundaries. Empty (default) keeps the engine
    // memory-resident with simulated durability. Open() PDB_CHECK-fails if
    // the directory is unusable or its contents are unrecoverable — a
    // server must not silently run non-durable when asked to be durable.
    std::string log_dir;
    // Fuzzy-checkpoint period when log_dir is set; 0 disables periodic
    // checkpoints (one can still be forced via
    // engine().WriteCheckpointNow()).
    uint64_t checkpoint_interval_ms = 0;
  };

  static std::unique_ptr<DB> Open(const Options& options);
  ~DB();
  PDB_DISALLOW_COPY_AND_ASSIGN(DB);

  // --- Engine-level access (caller's thread) ---
  engine::Engine& engine() { return engine_; }
  // What recovery found when this DB opened (meaningful with log_dir set).
  const engine::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  engine::Table* CreateTable(const std::string& name) {
    return engine_.CreateTable(name);
  }
  engine::Table* GetTable(const std::string& name) const {
    return engine_.GetTable(name);
  }

  // Runs `fn` inline on the calling thread, re-running retryable aborts per
  // `retry` (default: no retries).
  Rc Execute(const TxnFn& fn, const RetryPolicy& retry = {});

  // --- Scheduled execution ---

  // Enqueues `fn` with the given priority. Never blocks; see SubmitResult
  // for the backpressure contract. Completion is recorded in metrics().
  SubmitResult Submit(sched::Priority priority, TxnFn fn,
                      const SubmitOptions& options = {});

  // Submit with asynchronous completion: if (and only if) the submission is
  // accepted, `on_complete` fires exactly once with the terminal status (see
  // CompletionFn). On kQueueFull/kStopped nothing was enqueued and
  // `on_complete` will never be called — the caller still owns the reaction.
  SubmitResult Submit(sched::Priority priority, TxnFn fn,
                      CompletionFn on_complete,
                      const SubmitOptions& options = {});

  // Submits and blocks until the transaction ran (or its deadline expired);
  // returns its status. Waits for a queue slot rather than rejecting.
  Rc SubmitAndWait(sched::Priority priority, TxnFn fn,
                   const SubmitOptions& options = {});

  // SubmitAndWait with a deadline: returns Rc::kTimeout if the transaction
  // did not finish within timeout_us (it will not run afterwards either —
  // expired work is shed, never executed).
  Rc SubmitAndWaitFor(sched::Priority priority, TxnFn fn, uint64_t timeout_us);

  // Blocks until all submissions made so far have been executed.
  void Drain();

  sched::Metrics& metrics();
  sched::Scheduler& scheduler();

 private:
  struct Closure;

  explicit DB(const Options& options);
  // The scheduler's executor: runs one submitted closure to completion in a
  // single step.
  static sched::StepResult StepThunk(const sched::Request& req, void* ctx,
                                     int worker_id, sched::StepContext* sc);
  bool PopSubmission(sched::Priority priority, sched::Request* out);
  // Completes `c` without running it (deadline expiry): publishes `rc` to
  // any waiter, counts it as completed, and frees the closure.
  void CompleteWithoutRunning(Closure* c, Rc rc);
  // Runs `fn` with retry-on-transient-abort semantics; `deadline_ns` bounds
  // backoff sleeps (0 = unbounded).
  Rc RunWithRetry(const TxnFn& fn, const RetryPolicy& retry,
                  uint64_t jitter_base, uint64_t deadline_ns);

  engine::Engine engine_;
  engine::RecoveryStats recovery_stats_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<MpmcQueue<Closure*>> lp_submissions_;
  std::unique_ptr<MpmcQueue<Closure*>> hp_submissions_;
  // HP closures the scheduler shed at a tick deadline, oldest first. Only
  // the scheduling thread touches it while the scheduler runs, and
  // PopSubmission takes from it before hp_submissions_, so it holds at most
  // one batch. (Pushing shed work back into hp_submissions_ could wait
  // forever: the scheduling thread is that queue's only consumer.)
  std::deque<Closure*> hp_carry_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace preemptdb

#endif  // PREEMPTDB_CORE_PREEMPTDB_H_
