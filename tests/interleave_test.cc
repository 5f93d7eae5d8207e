// Interleaving-dispatcher tests: the resumable-step contract (StepFn),
// slot-batched LP execution, runtime depth retuning, HP behaviour (both the
// drive-to-completion path and preemption landing mid-batch), and the
// engine's staged prefetch-then-access accessors driven through real
// interleaved transactions. The preempt tests double as the TSan target for
// the preempt-during-slot-switch window (uintr delivery while the
// dispatcher is between steps of different slots).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "util/clock.h"

namespace preemptdb::sched {
namespace {

using namespace std::chrono_literals;

uint64_t CounterValue(const char* name) {
  for (int i = 0; i < obs::NumCounters(); ++i) {
    const obs::Counter* c = obs::CounterAt(i);
    if (std::strcmp(c->name(), name) == 0) return c->Value();
  }
  return 0;
}

// Synthetic resumable workload: LP transactions take `lp_stages` steps
// (yielding kYieldedStall between them, like the engine's staged point
// accesses); HP transactions take `hp_stages` steps. Spin time per step is
// params[0] microseconds so tests can make steps long enough to preempt.
struct StepWorkload {
  std::atomic<uint64_t> lp_generated{0};
  std::atomic<uint64_t> hp_generated{0};
  std::atomic<uint64_t> lp_done{0};
  std::atomic<uint64_t> hp_done{0};
  std::atomic<uint64_t> max_stage_seen{0};
  uint64_t lp_stages = 4;
  uint64_t hp_stages = 1;
  uint64_t lp_limit = UINT64_MAX;  // stop generating after this many
  uint64_t step_us = 0;

  static StepResult Step(const Request& req, void* ctx, int /*worker*/,
                         StepContext* sc) {
    auto* w = static_cast<StepWorkload*>(ctx);
    if (req.params[0] > 0) {
      uint64_t until = MonoMicros() + req.params[0];
      while (MonoMicros() < until) {
      }
    }
    const bool hp = req.priority == Priority::kHigh;
    uint64_t stages = hp ? w->hp_stages : w->lp_stages;
    uint64_t cur = w->max_stage_seen.load(std::memory_order_relaxed);
    while (sc->stage > cur && !w->max_stage_seen.compare_exchange_weak(
                                  cur, sc->stage, std::memory_order_relaxed)) {
    }
    if (sc->stage + 1 < stages) {
      ++sc->stage;
      return {StepStatus::kYieldedStall, Rc::kOk};
    }
    (hp ? w->hp_done : w->lp_done).fetch_add(1, std::memory_order_relaxed);
    return {StepStatus::kDone, Rc::kOk};
  }

  Scheduler::Workload Hooks() {
    Scheduler::Workload w;
    w.step = &StepWorkload::Step;
    w.exec_ctx = this;
    w.gen_low = [this](Request* out) {
      if (lp_generated.load(std::memory_order_relaxed) >= lp_limit) {
        return false;
      }
      out->type = 0;
      out->params[0] = step_us;
      lp_generated.fetch_add(1);
      return true;
    };
    w.gen_high = [this](Request* out) {
      out->type = 1;
      out->params[0] = step_us;
      hp_generated.fetch_add(1);
      return true;
    };
    return w;
  }
};

SchedulerConfig BaseConfig(Policy policy, int slots) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.num_workers = 2;
  cfg.arrival_interval_us = 1000;
  cfg.hp_queue_capacity = 4;
  cfg.lp_queue_capacity = 16;  // keep the slot array fed
  cfg.yield_interval_records = 2000;
  cfg.tunables.interleave_slots = slots;
  return cfg;
}

void RunFor(Scheduler& s, std::chrono::milliseconds dur) {
  s.Start();
  std::this_thread::sleep_for(dur);
  s.Stop();
}

TEST(Interleave, StepWorkloadCompletesAtEveryDepth) {
  // lp_stages = 1 is the one-shot executor (kDone on the first call), which
  // runs through the same slot dispatcher as a multi-step one.
  for (uint64_t stages : {1, 4}) {
    for (int depth : {1, 2, 8}) {
      StepWorkload wl;
      wl.lp_stages = stages;
      uint64_t txns0 = CounterValue("sched.interleave.txns");
      Scheduler s(BaseConfig(Policy::kWait, depth), wl.Hooks());
      RunFor(s, 400ms);
      const std::string at = "stages " + std::to_string(stages) +
                             " depth " + std::to_string(depth);
      EXPECT_GT(wl.lp_done.load(), 0u) << at;
      EXPECT_GT(wl.hp_done.load(), 0u) << at;
      EXPECT_EQ(s.metrics().type(0).committed.load(), wl.lp_done.load())
          << "every kDone must be recorded exactly once at " << at;
      EXPECT_EQ(s.metrics().type(1).committed.load(), wl.hp_done.load())
          << at;
      EXPECT_EQ(CounterValue("sched.interleave.txns") - txns0,
                wl.lp_done.load())
          << "each LP completion counts once in sched.interleave.txns at "
          << at;
      // Stages resume where they left off: the executor saw its last stage.
      EXPECT_EQ(wl.max_stage_seen.load(), wl.lp_stages - 1) << at;
    }
  }
}

TEST(Interleave, StepsAndTxnCountersAdvance) {
  uint64_t steps0 = CounterValue("sched.interleave.steps");
  uint64_t txns0 = CounterValue("sched.interleave.txns");
  uint64_t rounds0 = CounterValue("sched.interleave.rounds");
  StepWorkload wl;
  wl.lp_stages = 4;
  Scheduler s(BaseConfig(Policy::kWait, 4), wl.Hooks());
  RunFor(s, 400ms);
  uint64_t dsteps = CounterValue("sched.interleave.steps") - steps0;
  uint64_t dtxns = CounterValue("sched.interleave.txns") - txns0;
  EXPECT_GT(CounterValue("sched.interleave.rounds"), rounds0);
  EXPECT_GT(dtxns, 0u);
  // Each LP transaction takes exactly lp_stages dispatcher steps (HP runs
  // through RunRequest's drive-to-completion loop, not the slot array).
  EXPECT_GE(dsteps, dtxns * wl.lp_stages);
}

TEST(Interleave, DepthRetuneAtRuntimeTakesEffect) {
  StepWorkload wl;
  Scheduler s(BaseConfig(Policy::kWait, 1), wl.Hooks());
  s.Start();
  std::this_thread::sleep_for(150ms);
  TunableConfig::ChangeSet cs;
  cs.interleave_slots = 8;
  std::string err;
  ASSERT_TRUE(s.tunables().Apply(cs, &err)) << err;
  std::this_thread::sleep_for(150ms);
  cs.interleave_slots = 2;  // shrink takes effect by attrition
  ASSERT_TRUE(s.tunables().Apply(cs, &err)) << err;
  std::this_thread::sleep_for(150ms);
  s.Stop();
  EXPECT_GT(wl.lp_done.load(), 0u);
  EXPECT_EQ(s.metrics().type(0).committed.load(), wl.lp_done.load());
}

TEST(Interleave, HighPriorityRunsToCompletionInOnePass) {
  // HP requests never occupy a slot: a multi-stage HP step sequence is
  // driven back-to-back inside RunRequest, so every generated HP request
  // that was admitted completes even at depth 8 with LP slots saturated.
  StepWorkload wl;
  wl.hp_stages = 3;
  Scheduler s(BaseConfig(Policy::kWait, 8), wl.Hooks());
  RunFor(s, 400ms);
  EXPECT_GT(wl.hp_done.load(), 0u);
  EXPECT_EQ(s.metrics().type(1).committed.load(), wl.hp_done.load());
}

TEST(Interleave, PreemptionLandsDuringSlotBatch) {
  // The TSan target: long LP steps keep every slot mid-transaction while
  // the HP stream forces uintr preemption into the Stui window of whichever
  // slot is live — including right around the dispatcher's slot switches.
  StepWorkload wl;
  wl.lp_stages = 64;
  wl.step_us = 200;  // 64 x 200us LP transactions: preemption must land
  Scheduler s(BaseConfig(Policy::kPreempt, 4), wl.Hooks());
  RunFor(s, 800ms);
  uint64_t via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_GT(s.uipis_sent(), 0u);
  EXPECT_GT(via_preempt, 0u)
      << "slot-batched LP work must still be preemptible";
  EXPECT_GT(wl.hp_done.load(), 0u);
}

TEST(Interleave, DrainsActiveSlotsOnStop) {
  // Stop() must not strand suspended transactions: every admitted LP
  // request either completes or was never popped — metrics account for all
  // completions and the scheduler joins cleanly with slots mid-flight.
  StepWorkload wl;
  wl.lp_stages = 16;
  wl.step_us = 100;
  Scheduler s(BaseConfig(Policy::kWait, 8), wl.Hooks());
  s.Start();
  std::this_thread::sleep_for(120ms);
  s.Stop();  // slots are almost certainly mid-transaction here
  EXPECT_EQ(s.metrics().type(0).committed.load(), wl.lp_done.load());
}

// --- Engine-backed interleaving: staged accessors under the dispatcher ---

struct EngineCtx {
  engine::Engine* engine = nullptr;
  engine::Table* table = nullptr;
  uint64_t rows = 0;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> mismatches{0};
};

struct EngineLpState {
  engine::Transaction txn;
  engine::Transaction::ReadHandle h;
  uint64_t key = 0;
  int reads_left = 0;
};

// Staged read loop: PrepareRead -> PrefetchVisible -> FinishRead per key,
// asserting each staged read returns the value a plain Read would.
StepResult EngineStep(const Request& req, void* ctx, int /*worker*/,
                      StepContext* sc) {
  auto* c = static_cast<EngineCtx*>(ctx);
  if (req.priority == Priority::kHigh) {
    engine::Transaction* txn = c->engine->Begin();
    Slice out;
    Rc r = txn->Read(c->table, 1 + req.params[0] % c->rows, &out);
    if (!IsOk(r)) {
      txn->Abort();
      return {StepStatus::kDone, r};
    }
    return {StepStatus::kDone, txn->Commit()};
  }
  auto* st = static_cast<EngineLpState*>(sc->ptr[0]);
  switch (sc->stage) {
    case 0: {
      st = new EngineLpState();
      sc->ptr[0] = st;
      st->reads_left = 8;
      st->key = 1 + req.params[0] % c->rows;
      c->engine->BeginOn(&st->txn);
      st->txn.PrepareRead(c->table, st->key, &st->h);
      sc->stage = 1;
      return {StepStatus::kYieldedStall, Rc::kOk};
    }
    case 1: {
      st->txn.PrefetchVisible(&st->h);
      sc->stage = 2;
      return {StepStatus::kYieldedStall, Rc::kOk};
    }
    default: {
      Slice out;
      Rc r = st->txn.FinishRead(&st->h, &out);
      sc->prefetches += st->h.prefetches;
      const std::string expect = "v" + std::to_string(st->key);
      if (!IsOk(r) || std::string(out.data, out.size) != expect) {
        c->mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      if (--st->reads_left <= 0) {
        Rc cr = st->txn.Commit();
        if (IsOk(cr)) c->committed.fetch_add(1, std::memory_order_relaxed);
        delete st;
        sc->ptr[0] = nullptr;
        return {StepStatus::kDone, cr};
      }
      st->key = 1 + (st->key * 2654435761u) % c->rows;
      st->txn.PrepareRead(c->table, st->key, &st->h);
      sc->stage = 1;
      return {StepStatus::kYieldedStall, Rc::kOk};
    }
  }
}

TEST(Interleave, StagedReadsMatchPlainReadsUnderPreemption) {
  engine::Engine engine;
  EngineCtx ctx;
  ctx.engine = &engine;
  ctx.table = engine.CreateTable("ilv");
  ctx.rows = 4096;
  {
    auto* txn = engine.Begin();
    for (uint64_t k = 1; k <= ctx.rows; ++k) {
      ASSERT_TRUE(IsOk(txn->Insert(ctx.table, k, "v" + std::to_string(k))));
    }
    ASSERT_TRUE(IsOk(txn->Commit()));
  }
  Scheduler::Workload w;
  w.step = &EngineStep;
  w.exec_ctx = &ctx;
  std::atomic<uint64_t> seed{0};
  w.gen_low = [&](Request* out) {
    out->type = 0;
    out->params[0] = seed.fetch_add(0x9e3779b9);
    return true;
  };
  w.gen_high = [&](Request* out) {
    out->type = 1;
    out->priority = Priority::kHigh;
    out->params[0] = seed.fetch_add(0x9e3779b9);
    return true;
  };
  Scheduler s(BaseConfig(Policy::kPreempt, 4), w);
  RunFor(s, 600ms);
  EXPECT_GT(ctx.committed.load(), 0u);
  EXPECT_EQ(ctx.mismatches.load(), 0u)
      << "staged PrepareRead/PrefetchVisible/FinishRead must read the same "
         "versions a plain Read would";
}

TEST(Interleave, BeginOnAllowsConcurrentSlotTransactions) {
  // The CLS contract gives Begin() one transaction per context; slots need
  // caller-owned objects. Several must be active at once in one thread.
  engine::Engine engine;
  auto* table = engine.CreateTable("t");
  {
    auto* txn = engine.Begin();
    ASSERT_TRUE(IsOk(txn->Insert(table, 1, "a")));
    ASSERT_TRUE(IsOk(txn->Commit()));
  }
  engine::Transaction t1, t2, t3;
  engine.BeginOn(&t1);
  engine.BeginOn(&t2);
  engine.BeginOn(&t3);
  Slice out;
  EXPECT_TRUE(IsOk(t1.Read(table, 1, &out)));
  EXPECT_TRUE(IsOk(t2.Read(table, 1, &out)));
  ASSERT_TRUE(IsOk(t3.Update(table, 1, "b")));
  EXPECT_TRUE(IsOk(t3.Commit()));
  EXPECT_TRUE(IsOk(t1.Commit()));
  EXPECT_TRUE(IsOk(t2.Commit()));
  // Reusable after completion, like the dispatcher's slot lifecycle.
  engine.BeginOn(&t1);
  EXPECT_TRUE(IsOk(t1.Read(table, 1, &out)));
  EXPECT_TRUE(IsOk(t1.Commit()));
}

}  // namespace
}  // namespace preemptdb::sched
