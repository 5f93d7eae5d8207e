// Public DB facade tests: open, inline execution, prioritized submission.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "core/preemptdb.h"
#include "engine/hooks.h"
#include "util/clock.h"

namespace preemptdb {
namespace {

DB::Options EngineOnly() {
  DB::Options o;
  o.start_scheduler = false;
  return o;
}

DB::Options WithScheduler(sched::Policy policy) {
  DB::Options o;
  o.scheduler.policy = policy;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 500;
  return o;
}

TEST(DbApi, OpenEngineOnly) {
  auto db = DB::Open(EngineOnly());
  ASSERT_NE(db, nullptr);
  auto* t = db->CreateTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(db->GetTable("t"), t);
  EXPECT_EQ(db->GetTable("missing"), nullptr);
}

TEST(DbApi, ExecuteInline) {
  auto db = DB::Open(EngineOnly());
  auto* t = db->CreateTable("kv");
  Rc rc = db->Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    Rc r = txn->Insert(t, 1, "value1");
    if (!IsOk(r)) {
      txn->Abort();
      return r;
    }
    return txn->Commit();
  });
  EXPECT_EQ(rc, Rc::kOk);
  rc = db->Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    Slice s;
    Rc r = txn->Read(t, 1, &s);
    EXPECT_EQ(s.ToString(), "value1");
    txn->Commit();
    return r;
  });
  EXPECT_EQ(rc, Rc::kOk);
}

TEST(DbApi, SubmitAndWaitReturnsStatus) {
  auto db = DB::Open(WithScheduler(sched::Policy::kPreempt));
  auto* t = db->CreateTable("t");
  Rc rc = db->SubmitAndWait(sched::Priority::kHigh, [&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    Rc r = txn->Insert(t, 99, "hp");
    if (!IsOk(r)) {
      txn->Abort();
      return r;
    }
    return txn->Commit();
  });
  EXPECT_EQ(rc, Rc::kOk);
  // The write is visible from the caller's thread.
  rc = db->Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    Slice s;
    Rc r = txn->Read(t, 99, &s);
    txn->Commit();
    return r;
  });
  EXPECT_EQ(rc, Rc::kOk);
}

TEST(DbApi, SubmitAndWaitPropagatesAborts) {
  auto db = DB::Open(WithScheduler(sched::Policy::kWait));
  Rc rc = db->SubmitAndWait(sched::Priority::kLow, [](engine::Engine& eng) {
    auto* txn = eng.Begin();
    txn->Abort();
    return Rc::kAbortUser;
  });
  EXPECT_EQ(rc, Rc::kAbortUser);
}

TEST(DbApi, DrainWaitsForAllSubmissions) {
  auto db = DB::Open(WithScheduler(sched::Policy::kPreempt));
  auto* t = db->CreateTable("t");
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(
        SubmitResult::kAccepted,
        db->Submit(i % 2 == 0 ? sched::Priority::kHigh : sched::Priority::kLow,
                   [&ran, t, i](engine::Engine& eng) {
                     auto* txn = eng.Begin();
                     Rc r = txn->Insert(t, 1000 + i, "x");
                     if (!IsOk(r)) {
                       txn->Abort();
                     } else {
                       r = txn->Commit();
                     }
                     ran.fetch_add(1);
                     return r;
                   }));
  }
  db->Drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(DbApi, ShedHighPriorityWorkNeverWedgesDrain) {
  // HP submissions arrive faster than the one worker's one-slot HP queue
  // takes them, so every placement pass sheds part of its batch while a
  // flooding submitter keeps the bounded submission queue full. Shed work
  // must wait somewhere that does not need a free slot in that queue, or
  // the scheduling thread (its only consumer) waits on itself and Drain()
  // never returns.
  auto opts = WithScheduler(sched::Policy::kPreempt);
  opts.scheduler.num_workers = 1;
  opts.scheduler.hp_queue_capacity = 1;
  opts.scheduler.arrival_interval_us = 200;
  opts.submit_queue_capacity = 4;
  auto db = DB::Open(opts);
  std::atomic<uint64_t> ran{0};
  uint64_t accepted = 0;
  const uint64_t flood_until = MonoMicros() + 300000;
  while (MonoMicros() < flood_until) {
    SubmitResult r = db->Submit(sched::Priority::kHigh, [&](engine::Engine&) {
      uint64_t until = MonoMicros() + 200;
      while (MonoMicros() < until) {
      }
      ran.fetch_add(1);
      return Rc::kOk;
    });
    if (r == SubmitResult::kAccepted) ++accepted;
  }
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    db->Drain();
    drained.store(true);
  });
  const uint64_t bound = MonoMicros() + 20000000;
  while (!drained.load() && MonoMicros() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!drained.load()) {
    // The DB cannot be torn down while its scheduling thread is wedged.
    std::fprintf(stderr, "Drain() did not return within 20 s\n");
    std::abort();
  }
  drainer.join();
  EXPECT_GT(db->scheduler().hp_dropped(), 0u) << "the flood must shed";
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(ran.load(), accepted);
}

TEST(DbApi, StarvationThresholdZeroStillRunsHighPriority) {
  // An enabled threshold of 0 forbids preemption, not HP work: submitted HP
  // transactions complete on the regular path while LP work keeps the only
  // worker busy.
  auto opts = WithScheduler(sched::Policy::kPreempt);
  opts.scheduler.num_workers = 1;
  opts.scheduler.tunables.starvation_enabled = true;
  opts.scheduler.tunables.starvation_threshold = 0.0;
  auto db = DB::Open(opts);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lp_done{0};
  std::function<void()> submit_lp = [&] {
    db->Submit(sched::Priority::kLow, [&](engine::Engine&) {
      uint64_t until = MonoMicros() + 5000;
      while (MonoMicros() < until) engine::hooks::OnRecordAccess();
      lp_done.fetch_add(1);
      if (!stop.load()) submit_lp();
      return Rc::kOk;
    });
  };
  submit_lp();
  submit_lp();
  for (int i = 0; i < 20; ++i) {
    SubmitOptions o;
    o.timeout_us = 2000000;
    auto noop = [](engine::Engine&) { return Rc::kOk; };
    EXPECT_EQ(Rc::kOk, db->SubmitAndWait(sched::Priority::kHigh, noop, o));
  }
  stop.store(true);
  db->Drain();
  EXPECT_GT(lp_done.load(), 0u);
  EXPECT_EQ(db->scheduler().uipis_sent(), 0u);
}

TEST(DbApi, MetricsTrackSubmissions) {
  auto db = DB::Open(WithScheduler(sched::Policy::kPreempt));
  for (int i = 0; i < 10; ++i) {
    db->SubmitAndWait(sched::Priority::kHigh,
                      [](engine::Engine&) { return Rc::kOk; });
  }
  EXPECT_GE(db->metrics().TotalCommitted(), 10u);
}

TEST(DbApi, HighPrioritySubmissionsPreemptLowPriority) {
  // End-to-end through the public API: a long LP transaction occupies a
  // worker; HP submissions must complete long before it finishes.
  auto opts = WithScheduler(sched::Policy::kPreempt);
  opts.scheduler.num_workers = 1;  // force sharing
  auto db = DB::Open(opts);
  std::atomic<bool> lp_running{false};
  std::atomic<bool> lp_done{false};
  db->Submit(sched::Priority::kLow, [&](engine::Engine&) {
    lp_running.store(true);
    uint64_t until = MonoMicros() + 300000;  // 300 ms of "scan"
    while (MonoMicros() < until) {
      engine::hooks::OnRecordAccess();
    }
    lp_done.store(true);
    return Rc::kOk;
  });
  while (!lp_running.load()) std::this_thread::yield();
  Rc rc = db->SubmitAndWait(sched::Priority::kHigh,
                            [](engine::Engine&) { return Rc::kOk; });
  EXPECT_EQ(rc, Rc::kOk);
  EXPECT_FALSE(lp_done.load())
      << "HP transaction must complete while the LP one is still running";
  db->Drain();
  EXPECT_TRUE(lp_done.load());
}

TEST(DbApi, PoliciesAreConfigurable) {
  for (auto policy : {sched::Policy::kWait, sched::Policy::kCooperative,
                      sched::Policy::kPreempt}) {
    auto db = DB::Open(WithScheduler(policy));
    EXPECT_EQ(db->scheduler().config().policy, policy);
    Rc rc = db->SubmitAndWait(sched::Priority::kHigh,
                              [](engine::Engine&) { return Rc::kOk; });
    EXPECT_EQ(rc, Rc::kOk);
  }
}

}  // namespace
}  // namespace preemptdb
