#include "core/preemptdb.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb {

namespace {

obs::Counter g_retry_attempts("db.retry_attempts");
obs::Counter g_retry_success("db.retry_success");
obs::Counter g_retries_exhausted("db.retries_exhausted");
obs::Counter g_txn_timeouts("db.txn_timeout");
obs::Counter g_submit_queue_full("db.submit_queue_full");

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* SubmitResultString(SubmitResult r) {
  switch (r) {
    case SubmitResult::kAccepted:
      return "accepted";
    case SubmitResult::kQueueFull:
      return "queue_full";
    case SubmitResult::kStopped:
      return "stopped";
  }
  return "?";
}

// Heap-allocated submission: owned by the queue until a worker runs it (or
// the scheduler expires it).
struct DB::Closure {
  TxnFn fn;
  std::atomic<Rc>* rc_out = nullptr;       // non-null for SubmitAndWait
  std::atomic<bool>* done_flag = nullptr;  // set after rc_out
  uint64_t deadline_ns = 0;                // absolute MonoNanos; 0 = none
  RetryPolicy retry;
  CompletionFn on_complete;  // optional; fired once with the terminal Rc
  uint32_t shard_id = 0;     // submitting front-end shard (observational)
  // Caller-owned lifecycle timeline; must not be touched after on_complete
  // fires (the owner may free it then). See SubmitOptions::timeline.
  obs::TxnTimeline* timeline = nullptr;
};

std::unique_ptr<DB> DB::Open(const Options& options) {
  return std::unique_ptr<DB>(new DB(options));
}

DB::DB(const Options& options) {
  if (!options.log_dir.empty()) {
    // Durability first: recovery must run against a fresh engine, before
    // tables, GC, or the scheduler can touch it.
    std::string err;
    bool ok = engine_.EnableDurability(options.log_dir, &err,
                                       &recovery_stats_);
    if (!ok) {
      ::fprintf(stderr, "preemptdb: EnableDurability(%s) failed: %s\n",
                options.log_dir.c_str(), err.c_str());
    }
    PDB_CHECK_MSG(ok, "EnableDurability failed");
    if (options.checkpoint_interval_ms > 0) {
      engine_.StartCheckpointer(options.checkpoint_interval_ms);
    }
  }
  size_t cap = RoundUpPow2(options.submit_queue_capacity);
  lp_submissions_ = std::make_unique<MpmcQueue<Closure*>>(cap);
  hp_submissions_ = std::make_unique<MpmcQueue<Closure*>>(cap);
  if (options.gc_interval_ms > 0) {
    engine_.StartBackgroundGc(options.gc_interval_ms);
  }
  if (options.start_scheduler) {
    sched::Scheduler::Workload workload;
    workload.step = &DB::StepThunk;
    workload.exec_ctx = this;
    workload.gen_low = [this](sched::Request* out) {
      return PopSubmission(sched::Priority::kLow, out);
    };
    workload.gen_high = [this](sched::Request* out) {
      return PopSubmission(sched::Priority::kHigh, out);
    };
    // Submissions carry owned closures: a shed request must be carried to
    // the next pass, never dropped, or Drain()/SubmitAndWait() would wait
    // forever.
    workload.on_shed = [this](const sched::Request& r) {
      hp_carry_.push_back(reinterpret_cast<Closure*>(r.params[0]));
    };
    // Expired requests are dead, not requeued: complete them as kTimeout so
    // waiters unblock and Drain() still terminates.
    workload.on_expired = [this](const sched::Request& r) {
      CompleteWithoutRunning(reinterpret_cast<Closure*>(r.params[0]),
                             Rc::kTimeout);
    };
    scheduler_ =
        std::make_unique<sched::Scheduler>(options.scheduler, workload);
    scheduler_->Start();
  }
}

DB::~DB() {
  stopping_.store(true, std::memory_order_release);
  if (scheduler_ != nullptr) {
    Drain();
    scheduler_->Stop();
  }
  // Complete any closures that never ran (engine-only DBs or races at exit)
  // with kError — "accepted implies completed" holds even for a submission
  // that slipped in as the DB shut down.
  Closure* c;
  while (lp_submissions_->TryPop(&c)) CompleteWithoutRunning(c, Rc::kError);
  for (Closure* carried : hp_carry_) {
    CompleteWithoutRunning(carried, Rc::kError);
  }
  while (hp_submissions_->TryPop(&c)) CompleteWithoutRunning(c, Rc::kError);
}

void DB::CompleteWithoutRunning(Closure* c, Rc rc) {
  if (rc == Rc::kTimeout) g_txn_timeouts.Add();
  // Never ran: stamp terminal time so the owner can compute total latency,
  // but record no run-stage samples (first_run_ns stays 0, which is the
  // "excluded from stage histograms" marker). Must happen before
  // on_complete — the owner may free the timeline from the callback.
  if (c->timeline != nullptr) {
    c->timeline->done_ns = MonoNanos();
  }
  if (c->rc_out != nullptr) {
    c->rc_out->store(rc, std::memory_order_release);
  }
  if (c->done_flag != nullptr) {
    c->done_flag->store(true, std::memory_order_release);
  }
  if (c->on_complete) c->on_complete(rc);
  delete c;
  completed_.fetch_add(1, std::memory_order_release);
}

bool DB::PopSubmission(sched::Priority priority, sched::Request* out) {
  const bool high = priority == sched::Priority::kHigh;
  auto& q = high ? *hp_submissions_ : *lp_submissions_;
  auto next = [&](Closure** c) {
    if (high && !hp_carry_.empty()) {
      *c = hp_carry_.front();
      hp_carry_.pop_front();
      return true;
    }
    return q.TryPop(c);
  };
  Closure* c;
  while (next(&c)) {
    // Dequeue-side expiry: work that died waiting in the submission queue
    // never reaches a worker.
    if (c->deadline_ns != 0 && MonoNanos() >= c->deadline_ns) {
      CompleteWithoutRunning(c, Rc::kTimeout);
      continue;
    }
    out->type = 0;
    out->params[0] = reinterpret_cast<uint64_t>(c);
    out->deadline_ns = c->deadline_ns;
    out->shard_id = c->shard_id;
    out->timeline = c->timeline;
    if (c->timeline != nullptr) {
      c->timeline->dispatch_ns = MonoNanos();
      obs::Trace(obs::EventType::kTxnDispatch, c->shard_id);
    }
    return true;
  }
  return false;
}

Rc DB::RunWithRetry(const TxnFn& fn, const RetryPolicy& retry,
                    uint64_t jitter_base, uint64_t deadline_ns) {
  const int attempts = std::max(1, retry.max_attempts);
  const uint64_t seed =
      retry.jitter_seed != 0 ? retry.jitter_seed : jitter_base;
  uint64_t backoff_us = retry.initial_backoff_us;
  Rc rc = Rc::kError;
  for (int attempt = 1;; ++attempt) {
    rc = fn(engine_);
    if (!IsRetryableAbort(rc)) {
      if (attempt > 1 && IsOk(rc)) g_retry_success.Add();
      return rc;
    }
    if (attempt >= attempts) break;
    if (deadline_ns != 0 && MonoNanos() >= deadline_ns) break;
    g_retry_attempts.Add();
    if (backoff_us > 0) {
      // Deterministic jitter in [backoff/2, backoff]: same seed, same
      // sequence of sleeps — chaos runs stay reproducible.
      uint64_t half = backoff_us / 2;
      uint64_t sleep_us =
          backoff_us - SplitMix(seed ^ static_cast<uint64_t>(attempt)) %
                           (half + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      backoff_us = std::min(backoff_us * 2, retry.max_backoff_us);
    }
  }
  if (attempts > 1) g_retries_exhausted.Add();
  return rc;
}

Rc DB::Execute(const TxnFn& fn, const RetryPolicy& retry) {
  return RunWithRetry(fn, retry, reinterpret_cast<uint64_t>(&fn), 0);
}

sched::StepResult DB::StepThunk(const sched::Request& req, void* ctx,
                                int /*worker_id*/, sched::StepContext* /*sc*/) {
  auto* db = static_cast<DB*>(ctx);
  auto* c = reinterpret_cast<Closure*>(req.params[0]);
  // This closure's start freed room in the worker's queue. If more of its
  // class is waiting, ring the scheduler so the room is refilled while this
  // one runs rather than on the next tick (for LP: the one-slot queue, if
  // the worker's top-up for this tick is unused).
  const auto& waiting = req.priority == sched::Priority::kHigh
                            ? *db->hp_submissions_
                            : *db->lp_submissions_;
  if (waiting.SizeApprox() > 0) db->scheduler_->Notify();
  // Last-chance expiry: the deadline may have passed between placement and
  // this worker picking the request up. Started transactions are never cut
  // short, so this is the final check.
  if (req.deadline_ns != 0 && MonoNanos() >= req.deadline_ns) {
    // The worker installed this request's timeline as the thread's active
    // one; drop it before completion frees the struct, or an interrupt
    // landing between the free and the worker's restore would write through
    // a dangling pointer.
    if (c->timeline != nullptr) obs::SetActiveTimeline(nullptr);
    db->CompleteWithoutRunning(c, Rc::kTimeout);
    return {sched::StepStatus::kDone, Rc::kTimeout};
  }
  Rc rc = db->RunWithRetry(c->fn, c->retry, reinterpret_cast<uint64_t>(c),
                           req.deadline_ns);
  // Terminal timeline bookkeeping, strictly before the completion callback:
  // once on_complete fires the owner may free the timeline, so this is the
  // last point it can be touched. Clearing the active slot here (rather
  // than in the worker, which runs after this returns) closes the window
  // where a preemption could attribute itself to a freed timeline.
  if (c->timeline != nullptr) {
    c->timeline->done_ns = MonoNanos();
    obs::RecordSchedStages(*c->timeline);
    obs::SetActiveTimeline(nullptr);
  }
  if (c->rc_out != nullptr) {
    c->rc_out->store(rc, std::memory_order_release);
  }
  if (c->done_flag != nullptr) {
    c->done_flag->store(true, std::memory_order_release);
  }
  if (c->on_complete) c->on_complete(rc);
  delete c;
  db->completed_.fetch_add(1, std::memory_order_release);
  return {sched::StepStatus::kDone, rc};
}

SubmitResult DB::Submit(sched::Priority priority, TxnFn fn,
                        const SubmitOptions& options) {
  return Submit(priority, std::move(fn), CompletionFn(), options);
}

SubmitResult DB::Submit(sched::Priority priority, TxnFn fn,
                        CompletionFn on_complete,
                        const SubmitOptions& options) {
  PDB_CHECK_MSG(scheduler_ != nullptr, "DB opened without a scheduler");
  if (stopping_.load(std::memory_order_acquire)) return SubmitResult::kStopped;
  auto* c = new Closure{std::move(fn), nullptr, nullptr, 0, options.retry,
                        std::move(on_complete), options.shard_id,
                        options.timeline};
  if (options.timeout_us > 0) {
    c->deadline_ns = MonoNanos() + options.timeout_us * 1000;
  }
  if (c->timeline != nullptr) {
    c->timeline->high_priority = priority == sched::Priority::kHigh ? 1 : 0;
    c->timeline->enqueue_ns = MonoNanos();
  }
  auto& q = priority == sched::Priority::kHigh ? *hp_submissions_
                                               : *lp_submissions_;
  if (!q.TryPush(c)) {
    delete c;
    g_submit_queue_full.Add();
    return SubmitResult::kQueueFull;
  }
  submitted_.fetch_add(1, std::memory_order_release);
  scheduler_->Notify();
  return SubmitResult::kAccepted;
}

Rc DB::SubmitAndWait(sched::Priority priority, TxnFn fn,
                     const SubmitOptions& options) {
  PDB_CHECK_MSG(scheduler_ != nullptr, "DB opened without a scheduler");
  std::atomic<Rc> rc{Rc::kError};
  std::atomic<bool> done{false};
  auto* c = new Closure{std::move(fn), &rc, &done, 0, options.retry,
                        CompletionFn(), options.shard_id, options.timeline};
  if (c->timeline != nullptr) {
    c->timeline->high_priority = priority == sched::Priority::kHigh ? 1 : 0;
    c->timeline->enqueue_ns = MonoNanos();
  }
  uint64_t deadline_ns = 0;
  if (options.timeout_us > 0) {
    deadline_ns = MonoNanos() + options.timeout_us * 1000;
    c->deadline_ns = deadline_ns;
  }
  auto& q = priority == sched::Priority::kHigh ? *hp_submissions_
                                               : *lp_submissions_;
  while (!q.TryPush(c)) {
    if (deadline_ns != 0 && MonoNanos() >= deadline_ns) {
      // Never enqueued: safe to free here; nobody else saw the closure.
      delete c;
      g_txn_timeouts.Add();
      return Rc::kTimeout;
    }
    sched_yield();
  }
  submitted_.fetch_add(1, std::memory_order_release);
  scheduler_->Notify();
  // Once enqueued, ownership is with the pipeline: the waiter must see
  // done_flag before touching the stack slots again, even past the deadline
  // (expiry completes the closure as kTimeout and sets the flag).
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return rc.load(std::memory_order_acquire);
}

Rc DB::SubmitAndWaitFor(sched::Priority priority, TxnFn fn,
                        uint64_t timeout_us) {
  SubmitOptions options;
  options.timeout_us = timeout_us;
  return SubmitAndWait(priority, std::move(fn), options);
}

void DB::Drain() {
  while (completed_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

sched::Metrics& DB::metrics() {
  PDB_CHECK(scheduler_ != nullptr);
  return scheduler_->metrics();
}

sched::Scheduler& DB::scheduler() {
  PDB_CHECK(scheduler_ != nullptr);
  return *scheduler_;
}

}  // namespace preemptdb
