// Spin latches used as database latches (paper footnote 4: spin locks, CAS —
// no built-in deadlock detection, hence the non-preemptible-region machinery
// in src/uintr/).
#ifndef PREEMPTDB_UTIL_LATCH_H_
#define PREEMPTDB_UTIL_LATCH_H_

#include <atomic>
#include <cstdint>

#include "util/macros.h"

namespace preemptdb {

// Test-and-test-and-set spin latch.
class SpinLatch {
 public:
  SpinLatch() = default;
  PDB_DISALLOW_COPY_AND_ASSIGN(SpinLatch);

  void Lock() {
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) CpuPause();
    }
  }

  bool TryLock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void Unlock() { locked_.store(false, std::memory_order_release); }

  bool IsLocked() const { return locked_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> locked_{false};
};

// RAII guard for SpinLatch.
class SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) : latch_(latch) { latch_.Lock(); }
  ~SpinLatchGuard() { latch_.Unlock(); }
  PDB_DISALLOW_COPY_AND_ASSIGN(SpinLatchGuard);

 private:
  SpinLatch& latch_;
};

// Fields of an OptLatch-guarded node that optimistic readers load while the
// latch holder may be changing them. Both sides use relaxed atomic accesses:
// the version check discards whatever a racing load saw, and the accesses
// themselves are not data races (so TSan checks them like any other). On
// x86-64 both are plain moves. The latch holder's own loads, and stores to a
// node no reader can reach yet, stay plain.
template <typename T>
inline T OptimisticLoad(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}

template <typename T>
inline void LatchedStore(T& field, T value) {
  std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
}

// Optimistic versioned latch for lock-coupling indexes: readers sample the
// version, do their work, and revalidate; writers make the version odd while
// holding exclusive access.
class OptLatch {
 public:
  static constexpr uint64_t kLockedBit = 1ull;

  OptLatch() = default;
  PDB_DISALLOW_COPY_AND_ASSIGN(OptLatch);

  // Returns a stable (even) version, spinning past writers.
  uint64_t ReadLock() const {
    uint64_t v = version_.load(std::memory_order_acquire);
    while (v & kLockedBit) {
      CpuPause();
      v = version_.load(std::memory_order_acquire);
    }
    return v;
  }

  // True iff the version is still `v` (no writer intervened).
  bool Validate(uint64_t v) const {
    return version_.load(std::memory_order_acquire) == v;
  }

  void WriteLock() {
    while (true) {
      uint64_t v = ReadLock();
      if (version_.compare_exchange_weak(v, v | kLockedBit,
                                         std::memory_order_acquire)) {
        return;
      }
      CpuPause();
    }
  }

  // Upgrade a previously sampled read version to a write lock; fails if any
  // writer got in between.
  bool TryUpgrade(uint64_t v) {
    return version_.compare_exchange_strong(v, v | kLockedBit,
                                            std::memory_order_acquire);
  }

  void WriteUnlock() {
    version_.fetch_add(kLockedBit, std::memory_order_release);
  }

  bool IsWriteLocked() const {
    return version_.load(std::memory_order_acquire) & kLockedBit;
  }

 private:
  // Even = unlocked; odd = write-locked. Incremented on every unlock so
  // readers detect intervening writes.
  std::atomic<uint64_t> version_{2};
};

}  // namespace preemptdb

#endif  // PREEMPTDB_UTIL_LATCH_H_
