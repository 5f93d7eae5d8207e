#include "sched/worker.h"

#include <sched.h>

#include <cstdio>
#include <thread>

#include "engine/hooks.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::sched {

namespace {

// Interleaving observability (sched.interleave.*). Average slot occupancy is
// steps/rounds (each round steps every active slot once), steps-per-txn is
// steps/txns, prefetch rate is prefetch_issued/steps.
obs::Counter g_ilv_steps("sched.interleave.steps");
obs::Counter g_ilv_rounds("sched.interleave.rounds");
obs::Counter g_ilv_txns("sched.interleave.txns");
obs::Counter g_ilv_prefetch("sched.interleave.prefetch_issued");
obs::Counter g_ilv_stall_yields("sched.interleave.stall_yields");
obs::Counter g_ilv_voluntary_yields("sched.interleave.voluntary_yields");

// The worker owning the current thread (for hook thunks).
thread_local Worker* tls_worker = nullptr;
// Set by YieldHook just before swapping so PreemptLoop can tell a voluntary
// entry (yield) from an interrupt-driven one (preempt) when attributing the
// pause to the interrupted transaction's timeline. Main-context write,
// preempt-context read, same thread — no atomics needed.
thread_local bool tls_entered_via_yield = false;

// Installs `req`'s timeline (if it carries one) as the thread's active
// timeline, stamping first_run_ns on its first step. Returns the previous
// active timeline; the caller restores it after the step. Only the pointer
// is restored — after a kDone step the completion callback may have freed
// *req.timeline.
obs::TxnTimeline* EnterTimeline(const Request& req) {
  if (req.timeline == nullptr) return nullptr;
  if (req.timeline->first_run_ns == 0) {
    req.timeline->first_run_ns = MonoNanos();
  }
  return obs::SetActiveTimeline(req.timeline);
}
}  // namespace

Worker::Worker(int id, const SchedulerConfig& config,
               const TunableConfig* tunables, StepFn step, void* exec_ctx,
               Metrics* metrics)
    : id_(id),
      config_(config),
      tunables_(tunables),
      step_(step),
      exec_ctx_(exec_ctx),
      metrics_(metrics),
      lp_queue_(config.lp_queue_capacity),
      hp_queue_(config.hp_queue_capacity) {}

Worker::~Worker() {
  if (thread_.joinable()) {
    RequestStop();
    Join();
  }
}

void Worker::Start() { thread_ = std::thread([this] { ThreadBody(); }); }

void Worker::Join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::PreemptEntryThunk(void* self) {
  static_cast<Worker*>(self)->PreemptLoop();
}

void Worker::YieldHookThunk() {
  Worker* w = tls_worker;
  if (w != nullptr) w->YieldHook();
}

void Worker::ThreadBody() {
  tls_worker = this;
  // Ring registration allocates, so only threads started while tracing is
  // enabled get one; everyone else records nothing (counted drops).
  if (obs::TraceEnabled()) {
    char trace_name[32];
    std::snprintf(trace_name, sizeof(trace_name), "worker-%d", id_);
    obs_track_.store(obs::RegisterThisThread(trace_name),
                     std::memory_order_release);
  }
  if (config_.register_receivers) {
    receiver_.store(uintr::RegisterReceiver(&PreemptEntryThunk, this,
                                            uintr::kDefaultFiberStackBytes,
                                            config_.pending_mode),
                    std::memory_order_release);
    // Delivery is enabled only while a low-priority step runs (Stui/Clui
    // brackets in InterleaveLoop).
    uintr::Clui();
  }
  if (config_.policy == Policy::kCooperative) {
    // Engine-interface yield counter (paper §6.1), or the handcrafted Q2
    // block hook for the Fig. 11 variant.
    if (config_.handcrafted_q2_blocks > 0) {
      engine::hooks::Install(&YieldHookThunk, 0, config_.handcrafted_q2_blocks);
    } else {
      engine::hooks::Install(&YieldHookThunk, config_.yield_interval_records,
                             0);
    }
  } else if (config_.policy == Policy::kPreempt && config_.enable_degradation) {
    // Degradation fallback: the yield hook stays installed but no-ops until
    // the scheduler demotes this worker (YieldHook checks degraded_), at
    // which point it provides the cooperative path HP work falls back to.
    engine::hooks::Install(&YieldHookThunk, config_.yield_interval_records, 0);
  }
  ready_.store(true, std::memory_order_release);
  InterleaveLoop();
  engine::hooks::Uninstall();
  if (config_.register_receivers) {
    uintr::UnregisterReceiver();
    receiver_.store(nullptr, std::memory_order_release);
  }
}

void Worker::RunRequest(const Request& req, bool count_starvation) {
  // arg = submitting shard so sharded-front-end traces attribute each txn to
  // the event loop that admitted it (0 for single-shard / non-net work).
  obs::Trace(obs::EventType::kTxnStart, req.type, req.shard_id);
  // The previous active timeline is preserved because the preemptive
  // context runs HP requests *above* a paused LP transaction whose timeline
  // must come back into effect.
  obs::TxnTimeline* prev_tl = EnterTimeline(req);
  uint64_t c0 = count_starvation ? RdtscP() : 0;
  // High-priority work runs to completion in one go: the step function is
  // driven back-to-back with no sibling work interposed, so preemption
  // latency does not depend on the interleave depth.
  StepContext sc;
  StepResult sr;
  do {
    sr = step_(req, exec_ctx_, id_, &sc);
    ++sc.steps;
  } while (sr.status != StepStatus::kDone);
  if (req.timeline != nullptr) obs::SetActiveTimeline(prev_tl);
  RecordDone(req, sr.rc);
  if (count_starvation) {
    th_cycles_.fetch_add(RdtscP() - c0, std::memory_order_relaxed);
  }
}

void Worker::RecordDone(const Request& req, Rc rc) {
  uint64_t done = MonoNanos();
  metrics_->Record(req.type, req.gen_ns, done, rc);
  if (IsOk(rc)) {
    obs::Trace(obs::EventType::kTxnCommit, req.type, done - req.gen_ns);
  } else {
    obs::Trace(obs::EventType::kTxnAbort, req.type);
  }
}

double Worker::StarvationLevel() const {
  uint64_t t0 = t0_cycles_.load(std::memory_order_acquire);
  if (t0 == 0) return 0.0;  // no LP transaction to starve
  uint64_t th = th_cycles_.load(std::memory_order_acquire);
  uint64_t now = RdtscP();
  if (now <= t0) return 0.0;
  return static_cast<double>(th) / static_cast<double>(now - t0);
}

bool Worker::StarvationExceeded() const {
  // Live read: a runtime retune of the starvation knobs applies to the very
  // next drain-loop iteration. Disabled means the preemptive drain is
  // bounded only by its batch budget.
  if (!tunables_->starvation_enabled()) return false;
  return StarvationLevel() >= tunables_->starvation_threshold();
}

void Worker::InterleaveLoop() {
  // The regular scheduling path (Fig. 5 context 1). Low-priority
  // transactions occupy a fixed slot array and are stepped round-robin, one
  // step per active slot per dispatch round, up to interleave_slots() at a
  // time. At the default depth of 1 with a one-step executor a round is one
  // whole transaction, so this is the plain pop-run-repeat loop.
  //
  // Queue preference (paper §4.1), applied at round boundaries: under
  // Wait/Cooperative the worker checks the high-priority queue first and
  // exhausts it before the next round — that is the only way HP work runs
  // at all. At depth > 1 a round steps every active slot, so these policies
  // see the HP queue once per round: with one-step executors, after up to
  // `depth` LP transactions rather than after each one. Every active slot is
  // suspended between rounds, so HP work running there nests above paused
  // LP transactions that hold no latches, exactly like a cooperative yield
  // point. Under PreemptDB the regular path serves low-priority work (HP
  // work arrives via preemption, Fig. 5 path 1) and falls back to the HP
  // queue only when no LP work exists (path 2); an interrupt dropped while
  // delivery was off is taken as pending before the next LP step instead.
  // Preferring HP here would let a constant HP stream keep Q2 from ever
  // *starting*, which no starvation threshold could fix. A degraded preempt
  // worker flips to the cooperative preference at runtime: with its
  // interrupts undeliverable, boundary checks are the only way HP work
  // starts promptly.
  const bool policy_prefers_hp = config_.policy != Policy::kPreempt;
  const bool preempt_at_steps =
      config_.policy == Policy::kPreempt && config_.register_receivers;

  struct Slot {
    Request req;
    StepContext sc;
    bool active = false;
  };
  Slot slots[kInterleaveSlotsMax];
  size_t active = 0;
  // Starvation-window anchor (paper Fig. 7 generalized to a batch): t0/th
  // track the lifetime of one in-progress LP transaction. With a slot batch
  // the window is anchored to one designated active slot; when that slot's
  // transaction completes the window restarts on a surviving slot, so the
  // denominator stays "one LP transaction's wall time" instead of growing
  // without bound across a continuously refilled batch.
  int window_slot = -1;
  size_t rr = 0;  // round-robin start cursor, advanced once per round
  int idle_polls = 0;

  while (!stop_.load(std::memory_order_acquire) || active > 0) {
    const bool prefer_hp =
        policy_prefers_hp || degraded_.load(std::memory_order_relaxed);
    Request hp_req;
    auto try_hp = [&] {
      // The drain is wrapped in a non-preemptible region so an interrupt
      // arriving here is dropped rather than stacking a second drain on
      // top of this one.
      uintr::NonPreemptibleRegion guard;
      return hp_queue_.TryPop(&hp_req);
    };
    auto run_hp = [&] {
      idle_polls = 0;
      obs::Trace(obs::EventType::kHpDequeue, /*popped_by_preempt=*/0);
      RunRequest(hp_req, /*count_starvation=*/false);
      hp_executed_.fetch_add(1, std::memory_order_relaxed);
    };
    if (prefer_hp && try_hp()) {
      run_hp();
      continue;
    }
    if (!prefer_hp && tunables_->regular_path_hp_only()) {
      // No preemption will run the HP queue, so the regular path does, at
      // most one queue's worth per round: HP work waits for the running
      // LP round instead of pausing it, and LP work still starts between
      // batches (preferring HP outright would starve it, as under Wait).
      for (size_t budget = config_.hp_queue_capacity; budget > 0 && try_hp();
           --budget) {
        run_hp();
      }
    }

    // Refill free slots up to the live interleave depth (TunableConfig keeps
    // it in [1, kInterleaveSlotsMax]). Depth shrink takes effect by
    // attrition (extra active slots finish and are not refilled).
    if (!stop_.load(std::memory_order_acquire)) {
      const size_t want = static_cast<size_t>(tunables_->interleave_slots());
      for (int i = 0; i < kInterleaveSlotsMax && active < want; ++i) {
        Slot& s = slots[i];
        if (s.active) continue;
        if (!lp_queue_.TryPop(&s.req)) break;
        if (active == 0) {
          // Start-of-LP bookkeeping (paper Fig. 7): record T0, reset T_h.
          th_cycles_.store(0, std::memory_order_release);
          t0_cycles_.store(RdtscP(), std::memory_order_release);
          window_slot = i;
        }
        obs::Trace(obs::EventType::kTxnStart, s.req.type, s.req.shard_id);
        s.sc.Reset();
        s.active = true;
        ++active;
      }
    }

    if (active > 0) {
      idle_polls = 0;
      // One dispatch round: step each active slot once, starting at the
      // round-robin cursor so no slot monopolizes first-step position.
      uint64_t stepped = 0, stalls = 0, voluntary = 0;
      for (size_t i = 0; i < kInterleaveSlotsMax; ++i) {
        size_t idx = (rr + i) % kInterleaveSlotsMax;
        Slot& s = slots[idx];
        if (!s.active) continue;
        // Pending-interrupt delivery (UINTR semantics: a posted interrupt
        // stays pending until stui). An interrupt that landed while delivery
        // was off between steps, or inside a non-preemptible region, was
        // dropped by the handler; the HP work it announced is still queued.
        // Take it now, before delivery is re-enabled, through the same
        // bounded, starvation-accounted drain an interrupt would enter. Per
        // step, not per round: a round at depth > 1 can be long.
        if (preempt_at_steps && !hp_queue_.Empty() && !StarvationExceeded()) {
          uintr::SwapToPreempt();
        }
        // Between steps another slot's transaction owns the thread's active
        // timeline, so install/restore brackets every step.
        obs::TxnTimeline* prev_tl = EnterTimeline(s.req);
        // Interrupts are meaningful only while a low-priority step runs —
        // that is what preemption pauses. Masking delivery outside this
        // window (clui/stui, §2.3) keeps a saturating high-priority stream
        // from interrupt-storming the regular path so hard that it never
        // reaches the next low-priority step. A preempt pauses whichever
        // slot is live and the starvation drain in PreemptLoop accounts its
        // cycles into the current t0/th window.
        uintr::Stui();
        StepResult sr = step_(s.req, exec_ctx_, id_, &s.sc);
        uintr::Clui();
        ++s.sc.steps;
        ++stepped;
        if (s.req.timeline != nullptr) obs::SetActiveTimeline(prev_tl);
        if (sr.status == StepStatus::kDone) {
          RecordDone(s.req, sr.rc);
          g_ilv_txns.Add();
          g_ilv_prefetch.Add(s.sc.prefetches);
          s.active = false;
          --active;
          if (static_cast<int>(idx) == window_slot) {
            // The window transaction finished: restart the starvation
            // window on a surviving slot (else close it below).
            window_slot = -1;
            if (active > 0) {
              for (int j = 0; j < kInterleaveSlotsMax; ++j) {
                if (slots[j].active) {
                  window_slot = j;
                  break;
                }
              }
              th_cycles_.store(0, std::memory_order_release);
              t0_cycles_.store(RdtscP(), std::memory_order_release);
            }
          }
        } else if (sr.status == StepStatus::kYieldedStall) {
          ++stalls;
        } else {
          ++voluntary;
        }
      }
      rr = (rr + 1) % kInterleaveSlotsMax;
      g_ilv_rounds.Add();
      g_ilv_steps.Add(stepped);
      if (stalls > 0) g_ilv_stall_yields.Add(stalls);
      if (voluntary > 0) g_ilv_voluntary_yields.Add(voluntary);
      if (active == 0) {
        t0_cycles_.store(0, std::memory_order_release);
        window_slot = -1;
      }
      continue;
    }

    if (!prefer_hp && try_hp()) {
      run_hp();
      continue;
    }
    idle_polls = idle_polls < 1000 ? idle_polls + 1 : idle_polls;
    if (idle_polls > 100) {
      // Deep idle: park instead of spinning so active threads (and signal
      // deliveries) get the core on small machines. The scheduler wakes us
      // right after pushing into either queue, and RequestStop() wakes us
      // too; the sequence is read before the re-scan so a push that races
      // the park is never missed.
      const uint32_t seen = wake_.Seq();
      if (lp_queue_.Empty() && hp_queue_.Empty() &&
          !stop_.load(std::memory_order_acquire)) {
        wake_.Park(seen);
      }
    } else {
      sched_yield();
    }
  }
}

void Worker::PreemptLoop() {
  // Body of the preemptive context (Fig. 5 context 2). Entered passively via
  // user interrupt (PreemptDB) or voluntarily at yield points (Cooperative);
  // drains the high-priority queue, then swaps back to the paused
  // transaction.
  while (true) {
    // Attribute this activation to the transaction it paused (if any, and
    // if it carries a timeline): entered via a yield point or via an
    // interrupt. The paused transaction's timeline is the thread's active
    // one here — the HP requests below nest their own above it and restore.
    const bool via_yield = tls_entered_via_yield;
    tls_entered_via_yield = false;
    obs::TxnTimeline* paused_tl = obs::ActiveTimeline();
    if (paused_tl != nullptr) {
      if (via_yield) {
        ++paused_tl->yields;
      } else {
        ++paused_tl->preempts;
      }
    }
    if (!stop_.load(std::memory_order_acquire)) {
      // Execute at most one batch per activation (paper §5: the interrupt
      // asks the worker "to execute the batch immediately"), bounded by the
      // starvation threshold. Without the batch bound, a scheduler that
      // refills faster than the drain would trap the worker in this
      // context forever and the paused low-priority transaction — and the
      // regular path itself — would never resume.
      Request req;
      size_t budget = config_.hp_queue_capacity;
      while (budget-- > 0 && !StarvationExceeded() &&
             hp_queue_.TryPop(&req)) {
        obs::Trace(obs::EventType::kHpDequeue, /*popped_by_preempt=*/1);
        RunRequest(req, /*count_starvation=*/true);
        hp_executed_.fetch_add(1, std::memory_order_relaxed);
        hp_executed_preempt_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (paused_tl != nullptr && obs::ActiveTimeline() == paused_tl) {
      // The pause is over: the paused transaction resumes right after the
      // swap below. (The identity re-check is paranoia — RunRequest always
      // restores — but a stale pointer here would be a write-after-free.)
      paused_tl->last_resume_ns = MonoNanos();
      obs::Trace(obs::EventType::kTxnResume, paused_tl->preempts);
    }
    uintr::SwapToMain();
  }
}

void Worker::YieldHook() {
  // Cooperative yield point: only meaningful on the main context with
  // pending high-priority work. Under the preempt policy the hook is armed
  // only while the scheduler has demoted this worker (degraded signal path).
  if (uintr::InPreemptContext()) return;
  if (config_.policy == Policy::kPreempt &&
      !degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  if (hp_queue_.Empty()) return;
  obs::Trace(obs::EventType::kYieldHookFired);
  tls_entered_via_yield = true;
  uintr::SwapToPreempt();
}

}  // namespace preemptdb::sched
