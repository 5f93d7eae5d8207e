// Tests for the simulated user-interrupt machinery (paper §4.2/§4.4):
// passive preemption, active switches, clui/stui, non-preemptible regions in
// both drop and defer modes, and starvation-free delivery.
#include <gtest/gtest.h>

#include <errno.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "uintr/uintr.h"

namespace preemptdb::uintr {
namespace {

using namespace std::chrono_literals;

// Harness: a worker thread registered as a receiver whose preemptive context
// increments a counter and swaps straight back.
class WorkerHarness {
 public:
  explicit WorkerHarness(PendingMode mode = PendingMode::kDrop) {
    thread_ = std::thread([this, mode] {
      receiver_.store(
          RegisterReceiver(&WorkerHarness::PreemptEntry, this,
                           kDefaultFiberStackBytes, mode),
          std::memory_order_release);
      Body();
      UnregisterReceiver();
    });
    while (receiver_.load(std::memory_order_acquire) == nullptr) {
      std::this_thread::yield();
    }
  }

  ~WorkerHarness() {
    stop_.store(true);
    thread_.join();
  }

  Receiver* receiver() { return receiver_.load(std::memory_order_acquire); }
  uint64_t preempt_hits() const { return preempt_hits_.load(); }

  // Section control for the main loop.
  std::atomic<bool> in_npr{false};     // run inside a non-preemptible region
  std::atomic<bool> uintr_off{false};  // run with Clui in effect

 protected:
  static void PreemptEntry(void* self) {
    auto* h = static_cast<WorkerHarness*>(self);
    while (true) {
      h->preempt_hits_.fetch_add(1, std::memory_order_relaxed);
      h->OnPreempt();
      SwapToMain();
    }
  }

  virtual void OnPreempt() {}

  void Body() {
    volatile uint64_t sink = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      if (in_npr.load(std::memory_order_acquire)) {
        NonPreemptibleRegion g;
        for (int i = 0; i < 64; ++i) sink = sink + 1;
      } else if (uintr_off.load(std::memory_order_acquire)) {
        Clui();
        for (int i = 0; i < 64; ++i) sink = sink + 1;
        Stui();
      } else {
        sink = sink + 1;
      }
    }
  }

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<Receiver*> receiver_{nullptr};
  std::atomic<uint64_t> preempt_hits_{0};
};

// Sends interrupts until `pred` or a deadline; returns pred().
template <typename Pred>
bool SendUntil(Receiver* r, Pred pred, int max_ms = 3000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(max_ms);
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    SendUipi(r);
    std::this_thread::sleep_for(200us);
  }
  return pred();
}

TEST(Uintr, PassivePreemptionRunsPreemptContext) {
  WorkerHarness w;
  EXPECT_TRUE(SendUntil(w.receiver(), [&] { return w.preempt_hits() > 10; }));
  const auto& st = StatsOf(w.receiver());
  EXPECT_GT(st.switched.load(), 0u);
}

TEST(Uintr, CluiBlocksDelivery) {
  WorkerHarness w;
  w.uintr_off.store(true);
  std::this_thread::sleep_for(10ms);
  // With delivery mostly disabled, drops must occur.
  for (int i = 0; i < 200; ++i) {
    SendUipi(w.receiver());
    std::this_thread::sleep_for(100us);
  }
  const auto& st = StatsOf(w.receiver());
  EXPECT_GT(st.dropped_disabled.load(), 0u);
  w.uintr_off.store(false);
  EXPECT_TRUE(SendUntil(w.receiver(), [&] { return w.preempt_hits() > 0; }));
}

TEST(Uintr, NonPreemptibleRegionDropsInterrupts) {
  WorkerHarness w(PendingMode::kDrop);
  w.in_npr.store(true);
  std::this_thread::sleep_for(10ms);
  for (int i = 0; i < 200; ++i) {
    SendUipi(w.receiver());
    std::this_thread::sleep_for(100us);
  }
  const auto& st = StatsOf(w.receiver());
  EXPECT_GT(st.dropped_npreempt.load(), 0u);
  EXPECT_EQ(st.deferred_taken.load(), 0u) << "drop mode must not defer";
}

TEST(Uintr, DeferModeTakesSwitchAtUnlock) {
  WorkerHarness w(PendingMode::kDefer);
  w.in_npr.store(true);
  EXPECT_TRUE(SendUntil(w.receiver(), [&] {
    return StatsOf(w.receiver()).deferred_taken.load() > 0;
  }));
  EXPECT_GT(w.preempt_hits(), 0u);
}

TEST(Uintr, StatsReceivedCountsEverything) {
  WorkerHarness w;
  for (int i = 0; i < 50; ++i) {
    SendUipi(w.receiver());
    std::this_thread::sleep_for(200us);
  }
  std::this_thread::sleep_for(5ms);
  const auto& st = StatsOf(w.receiver());
  // Coalescing means received <= sent, but something must have arrived.
  EXPECT_GT(st.received.load(), 0u);
  EXPECT_LE(st.switched.load(), st.received.load());
}

TEST(Uintr, SwitchCountAggregates) {
  WorkerHarness w;
  SendUntil(w.receiver(), [&] { return w.preempt_hits() >= 5; });
  EXPECT_GE(SwitchCount(w.receiver()), 5u);
}

// Voluntary switches from the worker's own code (cooperative path).
TEST(Uintr, VoluntarySwapToPreempt) {
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> done{false};
  std::thread t([&] {
    struct Ctx {
      std::atomic<uint64_t>* hits;
    } ctx{&hits};
    RegisterReceiver(
        +[](void* p) {
          auto* c = static_cast<Ctx*>(p);
          while (true) {
            c->hits->fetch_add(1);
            SwapToMain();
          }
        },
        &ctx);
    for (int i = 0; i < 10; ++i) SwapToPreempt();
    UnregisterReceiver();
    done.store(true);
  });
  t.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(hits.load(), 10u);
}

TEST(Uintr, InPreemptContextReflectsState) {
  std::atomic<bool> in_preempt_seen{false};
  std::atomic<bool> in_main_seen{false};
  std::thread t([&] {
    struct Ctx {
      std::atomic<bool>* seen;
    } ctx{&in_preempt_seen};
    RegisterReceiver(
        +[](void* p) {
          auto* c = static_cast<Ctx*>(p);
          while (true) {
            c->seen->store(InPreemptContext());
            SwapToMain();
          }
        },
        &ctx);
    in_main_seen.store(!InPreemptContext());
    SwapToPreempt();
    UnregisterReceiver();
  });
  t.join();
  EXPECT_TRUE(in_main_seen.load());
  EXPECT_TRUE(in_preempt_seen.load());
}

TEST(Uintr, NestedNonPreemptibleRegions) {
  // Depth bookkeeping on an unregistered thread (dummy TCB).
  EXPECT_FALSE(InNonPreemptibleRegion());
  {
    NonPreemptibleRegion a;
    EXPECT_TRUE(InNonPreemptibleRegion());
    {
      NonPreemptibleRegion b;
      NonPreemptibleRegion c;
      EXPECT_TRUE(InNonPreemptibleRegion());
    }
    EXPECT_TRUE(InNonPreemptibleRegion());
  }
  EXPECT_FALSE(InNonPreemptibleRegion());
}

class NestingDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(NestingDepthTest, DepthRestoredAfterNesting) {
  int depth = GetParam();
  for (int i = 0; i < depth; ++i) NonPreemptibleEnter();
  EXPECT_TRUE(InNonPreemptibleRegion());
  for (int i = 0; i < depth; ++i) NonPreemptibleExit();
  EXPECT_FALSE(InNonPreemptibleRegion());
}

INSTANTIATE_TEST_SUITE_P(Depths, NestingDepthTest,
                         ::testing::Values(1, 2, 5, 32, 1000));

TEST(Uintr, UnregisteredThreadHasDummyTcb) {
  Tcb* t = CurrentTcb();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(CurrentReceiver(), nullptr);
  EXPECT_FALSE(UintrEnabled());  // no receiver -> reported disabled
}

TEST(Uintr, SendToDeadReceiverFails) {
  Receiver* r = nullptr;
  std::thread t([&] {
    r = RegisterReceiver(+[](void*) {
      while (true) SwapToMain();
    }, nullptr);
    UnregisterReceiver();
  });
  t.join();
  EXPECT_FALSE(SendUipi(r));
}

TEST(Uintr, PreemptContextCanAllocate) {
  // Allocation inside the preemptive context must be safe even while the
  // main context is being interrupted at arbitrary points (guarded
  // operator new makes allocations non-preemptible; the preempted context
  // can therefore never be mid-malloc).
  class AllocHarness : public WorkerHarness {
   protected:
    void OnPreempt() override {
      std::string s(256, 'x');
      volatile size_t n = s.size();
      (void)n;
    }
  };
  AllocHarness w;
  EXPECT_TRUE(SendUntil(w.receiver(), [&] { return w.preempt_hits() > 100; },
                        5000));
}

TEST(Uintr, PreemptionPreservesInterruptedErrno) {
  // The preemptive context shares the interrupted thread's errno; whatever
  // it leaves there must not show up in the code it preempted.
  std::atomic<Receiver*> recv{nullptr};
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> clobbered{0};
  std::thread t([&] {
    recv.store(RegisterReceiver(
                   +[](void* p) {
                     auto* n = static_cast<std::atomic<uint64_t>*>(p);
                     while (true) {
                       errno = ERANGE;
                       n->fetch_add(1);
                       SwapToMain();
                     }
                   },
                   &hits),
               std::memory_order_release);
    volatile int* err = &errno;
    *err = EDOM;
    while (!stop.load(std::memory_order_acquire)) {
      if (*err != EDOM) {
        clobbered.fetch_add(1);
        *err = EDOM;
      }
    }
    UnregisterReceiver();
  });
  while (recv.load(std::memory_order_acquire) == nullptr) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(SendUntil(recv.load(), [&] { return hits.load() >= 20; }));
  stop.store(true, std::memory_order_release);
  t.join();
  EXPECT_EQ(clobbered.load(), 0u);
}

TEST(Uintr, HeavyPreemptionStress) {
  WorkerHarness w;
  auto deadline = std::chrono::steady_clock::now() + 500ms;
  uint64_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    SendUipi(w.receiver());
    ++sent;
    std::this_thread::sleep_for(50us);
  }
  EXPECT_GT(w.preempt_hits(), 100u);
  const auto& st = StatsOf(w.receiver());
  EXPECT_LE(st.switched.load(), sent);
}

}  // namespace
}  // namespace preemptdb::uintr
