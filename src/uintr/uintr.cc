#include "uintr/uintr.h"

#include <errno.h>
#include <sched.h>
#include <signal.h>
#include <string.h>

#include <mutex>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::uintr {

namespace {
// Send-path failure accounting (snapshot-visible). A real UINTR senduipi
// cannot fail, but the pthread_kill substitution can — silently eating those
// failures would hide exactly the flakiness the scheduler's degradation
// policy needs to observe.
obs::Counter g_send_esrch("uintr.send_esrch");          // receiver died
obs::Counter g_send_eagain("uintr.send_eagain_retries"); // queue-full retries
obs::Counter g_send_failed("uintr.send_failed");        // gave up entirely
}  // namespace

// Receiver: per-worker-thread preemption state (the two transaction contexts
// of Fig. 5 plus delivery flags). All volatile fields are accessed only by
// the owning thread (possibly from its signal handler); atomics are for
// cross-thread visibility (sender side).
class Receiver {
 public:
  pthread_t thread;
  Tcb main_ctx;                       // context 1 in the paper's Fig. 5
  Tcb preempt_ctx;                    // context 2
  std::unique_ptr<Fiber> preempt_fiber;
  volatile int current = 0;           // which context is executing
  volatile bool in_switch = false;    // RIP-range-check analog (Alg. 1 l.2-6)
  volatile bool enabled = true;       // stui/clui state
  PendingMode mode = PendingMode::kDrop;
  std::atomic<bool> alive{false};
  ReceiverStats stats;

  Tcb* context(int id) { return id == 0 ? &main_ctx : &preempt_ctx; }
};

namespace {

thread_local Receiver* tls_receiver = nullptr;
// TCB of the currently running context. For unregistered threads, points at
// a per-thread dummy so NonPreemptibleEnter/Exit and CLS behave uniformly.
thread_local Tcb* tls_current_tcb = nullptr;
thread_local Tcb tls_dummy_tcb;

std::once_flag g_sigaction_once;

// Common switch path used by the handler (passive), SwapToPreempt /
// SwapToMain (active) and the deferred-at-unlock path. Must be called with
// interrupts logically masked: the caller either runs inside the signal
// handler (SIGURG blocked by sa_mask) or sets in_switch first, which the
// handler honors — the equivalent of the paper's Alg. 2 clui + RIP check.
void SwitchTo(Receiver* r, int target) {
  Tcb* from = r->context(r->current);
  Tcb* to = r->context(target);
  obs::Trace(obs::EventType::kFiberSwitchOut, static_cast<uint32_t>(target));
  r->in_switch = true;
  r->current = target;
  tls_current_tcb = to;
  pdb_fiber_switch(&from->saved_rsp, to->saved_rsp);
  // Execution resumes here when some later switch re-enters `from`. The
  // switcher already updated current/tls_current_tcb to describe us.
  r->in_switch = false;
  obs::Trace(obs::EventType::kFiberSwitchIn, static_cast<uint32_t>(from->id));
}

// The uintr handler (paper Alg. 1). Runs on the interrupted context's stack;
// the kernel-pushed signal frame below us is the uintr frame analog and
// stays frozen across the context switch until we return.
void SigurgHandler(int /*signo*/, siginfo_t* /*info*/, void* /*uctx*/) {
  Receiver* r = tls_receiver;
  if (r == nullptr) return;  // stray signal during registration/teardown
  r->stats.received.fetch_add(1, std::memory_order_relaxed);
  // Signal-safe by design: Trace() is a relaxed load + branch when disabled,
  // and a lock-free ring write when enabled.
  obs::Trace(obs::EventType::kUipiDelivered);

  // RIP check analog: an active switch is mid-flight; its TCB state is
  // half-saved, so return without touching the stacks (Alg. 1 lines 2-6).
  if (r->in_switch) {
    r->stats.dropped_in_switch.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Already serving the preemptive context: the current design does not
  // further interrupt an in-progress high-priority transaction (§4.1).
  if (r->current != 0) {
    r->stats.dropped_in_preempt.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!r->enabled) {
    r->stats.dropped_disabled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Tcb* tcb = r->context(0);
  if (tcb->npreempt_depth > 0) {
    // Non-preemptible region (§4.4): return directly to the current context.
    r->stats.dropped_npreempt.fetch_add(1, std::memory_order_relaxed);
    if (r->mode == PendingMode::kDefer) tcb->preempt_pending = true;
    return;
  }
  r->stats.switched.fetch_add(1, std::memory_order_relaxed);
  // The preemptive context runs on this thread, so the errno it leaves
  // behind would leak into the interrupted code: keep the interrupted value.
  const int saved_errno = errno;
  SwitchTo(r, 1);
  errno = saved_errno;
  // Back from the preemptive context; returning pops the signal frame and
  // resumes the interrupted transaction exactly where it was preempted.
}

void InstallSigaction() {
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &SigurgHandler;
  // SA_RESTART: interrupted syscalls resume, like real UINTR which never
  // aborts them. SIGURG is blocked while the handler (and anything it
  // switches to) runs, matching the CPU disabling user interrupts on
  // delivery (§2.3).
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  PDB_CHECK(sigaction(SIGURG, &sa, nullptr) == 0);
}

}  // namespace

Receiver* RegisterReceiver(FiberEntry entry, void* arg, size_t stack_bytes,
                           PendingMode mode) {
  PDB_CHECK_MSG(tls_receiver == nullptr, "thread already registered");
  std::call_once(g_sigaction_once, InstallSigaction);

  auto* r = new Receiver();
  r->thread = pthread_self();
  r->mode = mode;
  r->main_ctx.id = 0;
  r->preempt_ctx.id = 1;
  r->preempt_fiber = std::make_unique<Fiber>(entry, arg, stack_bytes);
  r->preempt_ctx.saved_rsp = r->preempt_fiber->initial_rsp();

  tls_current_tcb = &r->main_ctx;
  tls_receiver = r;
  r->alive.store(true, std::memory_order_release);

  // Make sure SIGURG is deliverable on this thread.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGURG);
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
  return r;
}

void UnregisterReceiver() {
  Receiver* r = tls_receiver;
  PDB_CHECK_MSG(r != nullptr, "thread not registered");
  PDB_CHECK_MSG(r->current == 0, "cannot unregister from preempt context");
  r->alive.store(false, std::memory_order_release);
  // Block SIGURG so a racing SendUipi cannot trap into a dying receiver,
  // then detach the thread-locals. The Receiver object is leaked on purpose:
  // a sender may still hold the handle and read stats; receivers are
  // per-worker and workers live for the process lifetime in practice.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGURG);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  tls_receiver = nullptr;
  tls_current_tcb = nullptr;
}

Receiver* CurrentReceiver() { return tls_receiver; }

Tcb* CurrentTcb() {
  if (tls_current_tcb == nullptr) tls_current_tcb = &tls_dummy_tcb;
  return tls_current_tcb;
}

bool SendUipi(Receiver* r) {
  PDB_CHECK(r != nullptr);
  if (!r->alive.load(std::memory_order_acquire)) return false;
  if (PDB_UNLIKELY(fault::Enabled())) {
    // Injected delivery latency: stall the sender, not the receiver — the
    // paper's send->delivery gap is what the degradation policy watches.
    if (fault::ShouldFire(fault::Point::kSigDelay)) {
      uint64_t until =
          MonoNanos() + fault::Param(fault::Point::kSigDelay) * 1000;
      while (MonoNanos() < until) CpuPause();
    }
    // Injected lost interrupt: the signal evaporates in flight.
    if (fault::ShouldFire(fault::Point::kSigDrop)) return false;
  }
  // pthread_kill can fail where real senduipi cannot: ESRCH means the
  // receiver thread is gone (mark the handle dead so senders stop trying);
  // EAGAIN means the kernel's signal queue is exhausted (transient — retry a
  // bounded number of times before reporting the send lost).
  constexpr int kMaxEagainRetries = 8;
  for (int attempt = 0;; ++attempt) {
    int err = pthread_kill(r->thread, SIGURG);
    if (PDB_LIKELY(err == 0)) return true;
    if (err == ESRCH) {
      r->alive.store(false, std::memory_order_release);
      g_send_esrch.Add();
      return false;
    }
    if (err == EAGAIN && attempt < kMaxEagainRetries) {
      g_send_eagain.Add();
      sched_yield();
      continue;
    }
    g_send_failed.Add();
    return false;
  }
}

void SwapToPreempt() {
  Receiver* r = tls_receiver;
  PDB_CHECK_MSG(r != nullptr, "SwapToPreempt on unregistered thread");
  PDB_CHECK_MSG(r->current == 0, "SwapToPreempt from preempt context");
  SwitchTo(r, 1);
}

void SwapToMain() {
  Receiver* r = tls_receiver;
  PDB_CHECK_MSG(r != nullptr, "SwapToMain on unregistered thread");
  PDB_CHECK_MSG(r->current == 1, "SwapToMain from main context");
  SwitchTo(r, 0);
}

bool InPreemptContext() {
  Receiver* r = tls_receiver;
  return r != nullptr && r->current == 1;
}

void Clui() {
  Receiver* r = tls_receiver;
  if (r != nullptr) r->enabled = false;
}

void Stui() {
  Receiver* r = tls_receiver;
  if (r != nullptr) r->enabled = true;
}

bool UintrEnabled() {
  Receiver* r = tls_receiver;
  return r != nullptr && r->enabled;
}

void NonPreemptibleEnter() {
  Tcb* t = CurrentTcb();
  t->npreempt_depth = t->npreempt_depth + 1;
}

void NonPreemptibleExit() {
  Tcb* t = CurrentTcb();
  PDB_DCHECK(t->npreempt_depth > 0);
  uint32_t depth = t->npreempt_depth - 1;
  t->npreempt_depth = depth;
  if (depth == 0 && PDB_UNLIKELY(t->preempt_pending)) {
    t->preempt_pending = false;
    Receiver* r = tls_receiver;
    // Take the deferred interrupt now (kDefer mode): only meaningful when
    // leaving the outermost region of the main context with delivery on.
    if (r != nullptr && r->current == 0 && r->enabled && !r->in_switch) {
      r->stats.deferred_taken.fetch_add(1, std::memory_order_relaxed);
      SwitchTo(r, 1);
    }
  }
}

bool InNonPreemptibleRegion() { return CurrentTcb()->npreempt_depth > 0; }

const ReceiverStats& Stats() {
  PDB_CHECK(tls_receiver != nullptr);
  return tls_receiver->stats;
}

const ReceiverStats& StatsOf(const Receiver* r) { return r->stats; }

uint64_t SwitchCount(const Receiver* r) {
  return r->stats.switched.load(std::memory_order_relaxed) +
         r->stats.deferred_taken.load(std::memory_order_relaxed);
}

}  // namespace preemptdb::uintr
