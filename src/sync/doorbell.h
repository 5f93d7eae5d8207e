// Futex-backed wakeup word: one parking consumer thread, any number of
// producers. It is the one wakeup mechanism of the scheduling runtime — the
// scheduler parks on its doorbell between placement passes, and each idle
// worker parks on its own until the scheduler pushes into its queues.
//
// Protocol: the consumer reads Seq() *before* scanning for work and, if it
// finds none, calls Park(seq). Producers publish work and then Ring(). Park
// sleeps only while no Ring() happened since that Seq() read, so a wakeup
// cannot be lost. The word's low bit is the "consumer is parked" flag, set
// by Park and cleared by the Ring that bumps the sequence past it in the same
// CAS: exactly one producer sees the flag per park and pays the FUTEX_WAKE
// syscall; every other Ring is one uncontended CAS.
#ifndef PREEMPTDB_SYNC_DOORBELL_H_
#define PREEMPTDB_SYNC_DOORBELL_H_

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>

#include "util/macros.h"

namespace preemptdb {

class Doorbell {
 public:
  Doorbell() = default;
  PDB_DISALLOW_COPY_AND_ASSIGN(Doorbell);

  // Consumer: the sequence to pass to Park(). Acquire pairs with Ring(), so
  // work published before a ring this read observes is visible to the scan
  // that follows.
  uint32_t Seq() const { return word_.load(std::memory_order_acquire); }

  // Consumer: blocks until a Ring() after `seen` was read, or until the
  // absolute CLOCK_MONOTONIC time `deadline_ns` (0 = no timeout). Returns at
  // once if a ring already happened; may return spuriously (signals), so
  // callers re-scan for work either way.
  void Park(uint32_t seen, uint64_t deadline_ns = 0) {
    uint32_t expect = seen;
    if (!word_.compare_exchange_strong(expect, seen | kParked,
                                       std::memory_order_acquire)) {
      return;  // rung since `seen`
    }
    timespec abs{};
    if (deadline_ns != 0) {
      abs.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
      abs.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
    }
    // The kernel re-checks the word against seen|kParked under its own lock,
    // so a Ring() between the CAS above and this call makes it return at once.
    syscall(SYS_futex, &word_, FUTEX_WAIT_BITSET_PRIVATE, seen | kParked,
            deadline_ns != 0 ? &abs : nullptr, nullptr, FUTEX_BITSET_MATCH_ANY);
    // Timed out or woken spuriously: take the flag back down unless a ring
    // already did.
    expect = seen | kParked;
    word_.compare_exchange_strong(expect, seen, std::memory_order_relaxed);
  }

  // Producer: call after publishing work. Advances the sequence and clears
  // the parked flag in one step; wakes the consumer iff it was parked.
  // Async-signal-safe (a CAS loop and at most one syscall).
  void Ring() {
    uint32_t old = word_.load(std::memory_order_relaxed);
    while (!word_.compare_exchange_weak(old, (old | kParked) + 1,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
    if (old & kParked) {
      syscall(SYS_futex, &word_, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
              nullptr, 0);
    }
  }

 private:
  static constexpr uint32_t kParked = 1;
  // Sequence in the upper 31 bits (advanced by 2 per ring), parked flag in
  // bit 0. Seq() values are always even.
  std::atomic<uint32_t> word_{0};
};

}  // namespace preemptdb

#endif  // PREEMPTDB_SYNC_DOORBELL_H_
