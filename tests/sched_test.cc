// Scheduling-layer tests: policy behaviour (Wait / Cooperative / PreemptDB),
// batched on-demand preemption, starvation prevention, metrics, and
// event-driven dispatch (doorbell, parked workers, pending interrupts).
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "core/preemptdb.h"
#include "engine/hooks.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "util/clock.h"

namespace preemptdb::sched {
namespace {

using namespace std::chrono_literals;

// Synthetic workload: LP requests spin for `params[0]` microseconds
// (touching the cooperative-yield hook like an engine scan would); HP
// requests spin for `params[1]` microseconds.
struct SpinWorkload {
  std::atomic<uint64_t> lp_generated{0};
  std::atomic<uint64_t> hp_generated{0};
  uint64_t lp_us = 10000;
  uint64_t hp_us = 50;

  static StepResult Step(const Request& req, void* /*ctx*/, int /*worker*/,
                         StepContext* /*sc*/) {
    uint64_t until = MonoMicros() + req.params[0];
    while (MonoMicros() < until) {
      // Mimic engine record accesses so Cooperative can yield.
      engine::hooks::OnRecordAccess();
    }
    return {StepStatus::kDone, Rc::kOk};
  }

  Scheduler::Workload Hooks() {
    Scheduler::Workload w;
    w.step = &SpinWorkload::Step;
    w.exec_ctx = this;
    w.gen_low = [this](Request* out) {
      out->type = 0;
      out->params[0] = lp_us;
      lp_generated.fetch_add(1);
      return true;
    };
    w.gen_high = [this](Request* out) {
      out->type = 1;
      out->params[0] = hp_us;
      hp_generated.fetch_add(1);
      return true;
    };
    return w;
  }
};

SchedulerConfig BaseConfig(Policy policy) {
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.num_workers = 2;
  cfg.arrival_interval_us = 2000;
  cfg.hp_queue_capacity = 4;
  cfg.yield_interval_records = 2000;
  return cfg;
}

void RunFor(Scheduler& s, std::chrono::milliseconds dur) {
  s.Start();
  std::this_thread::sleep_for(dur);
  s.Stop();
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
  uint64_t deadline =
      MonoNanos() + static_cast<uint64_t>(timeout_ms) * 1000000;
  while (MonoNanos() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(Scheduler, WaitPolicyCompletesBothPriorities) {
  SpinWorkload wl;
  wl.lp_us = 3000;
  Scheduler s(BaseConfig(Policy::kWait), wl.Hooks());
  RunFor(s, 600ms);
  EXPECT_GT(s.metrics().type(0).committed.load(), 0u);
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
  EXPECT_EQ(s.uipis_sent(), 0u) << "Wait must not send user interrupts";
}

TEST(Scheduler, PreemptPolicySendsInterrupts) {
  SpinWorkload wl;
  Scheduler s(BaseConfig(Policy::kPreempt), wl.Hooks());
  RunFor(s, 600ms);
  EXPECT_GT(s.uipis_sent(), 0u);
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
}

TEST(Scheduler, PreemptExecutesHighPriorityInPreemptContext) {
  SpinWorkload wl;
  wl.lp_us = 20000;  // long LP keeps workers busy; HP must preempt
  Scheduler s(BaseConfig(Policy::kPreempt), wl.Hooks());
  RunFor(s, 800ms);
  uint64_t via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_GT(via_preempt, 0u)
      << "with long LP transactions, HP work must run via preemption";
}

TEST(Scheduler, PreemptLatencyFarBelowLpDuration) {
  // The paper's headline: HP latency under preemption is decoupled from LP
  // transaction length. With 50 ms LP transactions, Wait forces HP requests
  // to wait for LP completion; PreemptDB must serve them much faster.
  SpinWorkload wl;
  wl.lp_us = 50000;
  wl.hp_us = 20;
  Scheduler s(BaseConfig(Policy::kPreempt), wl.Hooks());
  RunFor(s, 1500ms);
  double hp_p50 = s.metrics().type(1).latency.PercentileMicros(50);
  ASSERT_GT(s.metrics().type(1).committed.load(), 10u);
  EXPECT_LT(hp_p50, 25000.0)
      << "p50 HP latency should be well below the 50 ms LP duration";
}

TEST(Scheduler, WaitLatencyTracksLpDuration) {
  // Negative control: under Wait, median HP latency is dominated by LP
  // residence time.
  SpinWorkload wl;
  wl.lp_us = 50000;
  wl.hp_us = 20;
  Scheduler s(BaseConfig(Policy::kWait), wl.Hooks());
  RunFor(s, 1500ms);
  ASSERT_GT(s.metrics().type(1).committed.load(), 0u);
  double hp_p50 = s.metrics().type(1).latency.PercentileMicros(50);
  EXPECT_GT(hp_p50, 3000.0)
      << "Wait should exhibit queueing delay on the order of LP duration";
}

TEST(Scheduler, CooperativeYieldsAtHookPoints) {
  SpinWorkload wl;
  wl.lp_us = 20000;
  auto cfg = BaseConfig(Policy::kCooperative);
  cfg.yield_interval_records = 500;
  Scheduler s(cfg, wl.Hooks());
  RunFor(s, 800ms);
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
  EXPECT_EQ(s.uipis_sent(), 0u);
  uint64_t via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_GT(via_preempt, 0u)
      << "cooperative yields run HP work in the second context";
}

TEST(Scheduler, StarvationThresholdZeroDisablesPreemptExecution) {
  SpinWorkload wl;
  wl.lp_us = 10000;
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.tunables.starvation_enabled = true;
  cfg.tunables.starvation_threshold = 0.0;
  Scheduler s(cfg, wl.Hooks());
  RunFor(s, 600ms);
  uint64_t via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_EQ(via_preempt, 0u)
      << "threshold 0 must disable preemptive HP execution (paper §6.4)";
  EXPECT_EQ(s.uipis_sent(), 0u) << "threshold 0 work is placed uninterrupted";
  // HP work still runs, on the regular path between LP rounds, and LP work
  // still starts between HP batches.
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
  EXPECT_GT(s.metrics().type(0).committed.load(), 0u);
}

TEST(Scheduler, StarvationPreventionLimitsHpShare) {
  // Overload the system with HP work; a low threshold must keep LP
  // transactions progressing (paper Fig. 12).
  SpinWorkload wl;
  wl.lp_us = 20000;
  wl.hp_us = 500;
  auto cfg_unlimited = BaseConfig(Policy::kPreempt);
  cfg_unlimited.hp_queue_capacity = 64;
  cfg_unlimited.tunables.hp_batch_size = 256;
  cfg_unlimited.arrival_interval_us = 1000;
  cfg_unlimited.tunables.starvation_enabled = false;  // no starvation cap

  auto cfg_limited = cfg_unlimited;
  cfg_limited.tunables.starvation_enabled = true;
  cfg_limited.tunables.starvation_threshold = 0.25;

  SpinWorkload wl2;
  wl2.lp_us = 20000;
  wl2.hp_us = 500;

  Scheduler unlimited(cfg_unlimited, wl.Hooks());
  RunFor(unlimited, 1000ms);
  Scheduler limited(cfg_limited, wl2.Hooks());
  RunFor(limited, 1000ms);

  uint64_t lp_unlimited = unlimited.metrics().type(0).committed.load();
  uint64_t lp_limited = limited.metrics().type(0).committed.load();
  EXPECT_GE(lp_limited, lp_unlimited)
      << "capping the starvation level must not reduce LP throughput";
}

TEST(Scheduler, OverloadShedsExcessHpRequests) {
  SpinWorkload wl;
  wl.lp_us = 30000;
  wl.hp_us = 5000;  // HP work far exceeds capacity
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.tunables.hp_batch_size = 512;
  cfg.arrival_interval_us = 1000;
  Scheduler s(cfg, wl.Hooks());
  RunFor(s, 800ms);
  EXPECT_GT(s.hp_dropped(), 0u)
      << "unplaceable requests must be shed at the interval boundary";
}

TEST(Scheduler, EmptyInterruptsReachWorkers) {
  // Fig. 8 overhead mode: interrupts with no HP work swap straight back.
  SpinWorkload wl;
  wl.lp_us = 1000;
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.send_empty_interrupts = true;
  Scheduler::Workload hooks = wl.Hooks();
  hooks.gen_high = nullptr;  // no HP stream at all
  Scheduler s(cfg, hooks);
  RunFor(s, 500ms);
  EXPECT_GT(s.uipis_sent(), 0u);
  EXPECT_GT(s.metrics().type(0).committed.load(), 0u);
  EXPECT_EQ(s.metrics().type(1).committed.load(), 0u);
}

TEST(Scheduler, MetricsRecordLatencies) {
  SpinWorkload wl;
  wl.lp_us = 500;
  Scheduler s(BaseConfig(Policy::kWait), wl.Hooks());
  RunFor(s, 400ms);
  const auto& m = s.metrics().type(0);
  ASSERT_GT(m.committed.load(), 0u);
  EXPECT_EQ(m.latency.Count(), m.committed.load());
  EXPECT_GT(m.latency.PercentileNanos(50), 0u);
}

TEST(Scheduler, GeneratorDrivenStopsWhenDry) {
  // A generator that produces exactly N HP requests; all must execute.
  struct Fixed {
    std::atomic<int> remaining{20};
    std::atomic<int> executed{0};
  } fixed;
  Scheduler::Workload w;
  w.step = +[](const Request&, void* ctx, int, StepContext*) {
    static_cast<Fixed*>(ctx)->executed.fetch_add(1);
    return StepResult{StepStatus::kDone, Rc::kOk};
  };
  w.exec_ctx = &fixed;
  w.gen_high = [&fixed](Request* out) {
    int prev = fixed.remaining.fetch_sub(1);
    if (prev <= 0) {
      fixed.remaining.fetch_add(1);
      return false;
    }
    out->type = 1;
    return true;
  };
  // A request the scheduler could not place before the next arrival tick
  // (workers descheduled under CPU contention) is shed; hand it back to the
  // generator so it is produced again, as the DB facade requeues its shed
  // closures. Without this, shed requests are dropped and never execute.
  w.on_shed = [&fixed](const Request&) { fixed.remaining.fetch_add(1); };
  auto cfg = BaseConfig(Policy::kPreempt);
  Scheduler s(cfg, w);
  RunFor(s, 500ms);
  EXPECT_EQ(fixed.executed.load(), 20) << "shed: " << s.hp_dropped();
}

TEST(Scheduler, SaturatingHpStreamCannotStarveRegularPath) {
  // Regression test for the Fig. 12 interrupt-storm failure mode: a
  // high-priority stream that refills faster than workers drain must not
  // prevent low-priority transactions from ever starting. The batch-bounded
  // preemptive drain + clui/stui masking outside LP execution guarantee
  // forward progress at any starvation threshold > 0.
  SpinWorkload wl;
  wl.lp_us = 10000;
  wl.hp_us = 100;
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.hp_queue_capacity = 100;
  cfg.tunables.hp_batch_size = 200;  // far beyond drain capacity
  cfg.arrival_interval_us = 1000;
  cfg.tunables.starvation_enabled = true;
  cfg.tunables.starvation_threshold = 0.5;
  Scheduler s(cfg, wl.Hooks());
  RunFor(s, 1200ms);
  EXPECT_GT(s.metrics().type(0).committed.load(), 0u)
      << "low-priority transactions must keep completing under HP overload";
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
  EXPECT_GT(s.hp_dropped(), 0u) << "overload must shed, not queue unbounded";
  // The starvation level is honored: HP share of worker cycles cannot much
  // exceed the threshold, so LP throughput stays within the same order of
  // magnitude as an unloaded run would deliver.
  uint64_t via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_GT(via_preempt, 0u);
}

TEST(Scheduler, PreemptRegularPathServesHpWhenNoLpWork) {
  // Fig. 5 path 2: with no low-priority stream at all, the PreemptDB
  // regular path must still drain the high-priority queue.
  SpinWorkload wl;
  wl.hp_us = 50;
  auto cfg = BaseConfig(Policy::kPreempt);
  Scheduler::Workload hooks = wl.Hooks();
  hooks.gen_low = nullptr;
  Scheduler s(cfg, hooks);
  RunFor(s, 400ms);
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
}

TEST(Scheduler, ShedCallbackReceivesUnplacedRequests) {
  // on_shed must observe exactly the requests that were generated but never
  // placed before their interval deadline.
  SpinWorkload wl;
  wl.lp_us = 30000;
  wl.hp_us = 2000;
  std::atomic<uint64_t> shed{0};
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.tunables.hp_batch_size = 256;
  cfg.arrival_interval_us = 1000;
  Scheduler::Workload hooks = wl.Hooks();
  hooks.on_shed = [&shed](const Request& r) {
    EXPECT_EQ(r.priority, Priority::kHigh);
    shed.fetch_add(1);
  };
  Scheduler s(cfg, hooks);
  RunFor(s, 600ms);
  EXPECT_EQ(shed.load(), s.hp_dropped());
  EXPECT_GT(shed.load(), 0u);
}

// --- Event-driven dispatch ---

TEST(EventDispatch, PushedSubmissionsDoNotWaitForTheTick) {
  // A 200 ms tick: a submission served in well under one tick was dispatched
  // by the doorbell (scheduler) and the park wake (worker), not the tick.
  DB::Options o;
  o.scheduler.policy = Policy::kPreempt;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 200000;
  auto db = DB::Open(o);
  // Past the start-up pass: the scheduler and both workers are parked.
  std::this_thread::sleep_for(20ms);
  for (Priority p : {Priority::kHigh, Priority::kLow}) {
    const uint64_t t0 = MonoNanos();
    EXPECT_EQ(db->SubmitAndWait(p, [](engine::Engine&) { return Rc::kOk; }),
              Rc::kOk);
    const uint64_t took_us = (MonoNanos() - t0) / 1000;
    EXPECT_LT(took_us, 20000u)
        << (p == Priority::kHigh ? "HP" : "LP") << " waited for the tick";
  }
}

TEST(EventDispatch, SubmissionFloodNeverLosesAWakeup) {
  // Lost-wakeup stress for both parking sites. HP dispatch never waits for
  // the tick, and the tick is far longer than the test may run, so it can
  // never rescue a lost doorbell ring or worker park wake; under Wait no
  // interrupt can wake a parked worker either. Either loss hangs Drain() and
  // ctest's timeout fails the test, instead of letting it pass slowly. (An
  // LP backlog drains at one top-up per worker per tick, so LP is flooded in
  // LpBacklogDrainsAtOneTopUpPerWorkerPerTick instead.)
  DB::Options o;
  o.scheduler.policy = Policy::kWait;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 3600ull * 1000 * 1000;
  auto db = DB::Open(o);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (db->Submit(Priority::kHigh, [&ran](engine::Engine&) {
                 ran.fetch_add(1);
                 return Rc::kOk;
               }) == SubmitResult::kQueueFull) {
          sched_yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  db->Drain();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

TEST(EventDispatch, LpBacklogDrainsAtOneTopUpPerWorkerPerTick) {
  // The first LP submission takes the worker's unused top-up at once; the
  // rest of the backlog waits for one top-up per tick, so five take at least
  // four more ticks. Between top-ups the worker parks with empty queues and
  // a tick pushes into it only because it has room: a lost park wake leaves
  // the next LP unrun and hangs Drain().
  DB::Options o;
  o.scheduler.policy = Policy::kPreempt;
  o.scheduler.num_workers = 1;
  o.scheduler.arrival_interval_us = 20000;
  auto db = DB::Open(o);
  constexpr int kLp = 5;
  std::atomic<int> ran{0};
  const uint64_t t0 = MonoNanos();
  for (int i = 0; i < kLp; ++i) {
    ASSERT_EQ(db->Submit(Priority::kLow,
                         [&ran](engine::Engine&) {
                           ran.fetch_add(1);
                           return Rc::kOk;
                         }),
              SubmitResult::kAccepted);
  }
  db->Drain();
  const uint64_t took_us = (MonoNanos() - t0) / 1000;
  EXPECT_EQ(ran.load(), kLp);
  EXPECT_GE(took_us, (kLp - 2) * o.scheduler.arrival_interval_us)
      << "an LP backlog must not drain faster than one top-up per tick";
}

TEST(EventDispatch, DroppedInterruptIsTakenAtTheNextStep) {
  // Stranded HP: every interrupt is lost in flight, degradation is off (no
  // demotion to the yield hook), and the LP queue is never dry at a
  // transaction boundary (10 ms LP transactions, refilled every 2 ms tick),
  // so neither the interrupt nor Fig. 5 path 2 can start HP work. Only the
  // pending-interrupt check before each LP step can, and it enters the
  // preemptive context to do so.
  struct Fixed {
    std::atomic<int> remaining{20};
    std::atomic<int> executed{0};
  } fixed;
  Scheduler::Workload w;
  w.step = +[](const Request& req, void* ctx, int, StepContext*) {
    if (req.priority == Priority::kHigh) {
      static_cast<Fixed*>(ctx)->executed.fetch_add(1);
    } else {
      uint64_t until = MonoMicros() + 10000;
      while (MonoMicros() < until) {
      }
    }
    return StepResult{StepStatus::kDone, Rc::kOk};
  };
  w.exec_ctx = &fixed;
  w.gen_low = [](Request* out) {
    out->type = 0;
    return true;
  };
  w.gen_high = [&fixed](Request* out) {
    if (fixed.remaining.fetch_sub(1) <= 0) {
      fixed.remaining.fetch_add(1);
      return false;
    }
    out->type = 1;
    return true;
  };
  // Unplaced requests (HP queues full while their worker runs LP) go back
  // to the generator, as the DB facade requeues its shed closures.
  w.on_shed = [&fixed](const Request&) { fixed.remaining.fetch_add(1); };
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.enable_degradation = false;
  fault::Reset();
  fault::Configure(fault::Point::kSigDrop, 1.0);
  Scheduler s(cfg, w);
  s.Start();
  const bool all_served =
      WaitUntil([&] { return fixed.executed.load() == 20; }, 10000);
  s.Stop();
  fault::Reset();
  EXPECT_TRUE(all_served) << "executed " << fixed.executed.load() << " of 20";
  EXPECT_EQ(s.uipis_sent(), 0u) << "every interrupt must have been dropped";
  uint64_t hp = 0, via_preempt = 0;
  for (int i = 0; i < s.num_workers(); ++i) {
    hp += s.worker(i).hp_executed();
    via_preempt += s.worker(i).hp_executed_preempt();
  }
  EXPECT_EQ(via_preempt, hp) << "HP work ran outside the step-boundary drain";
}

class PendingModeTest : public ::testing::TestWithParam<uintr::PendingMode> {};

TEST_P(PendingModeTest, HighPriorityCompletesUnderBothModes) {
  SpinWorkload wl;
  wl.lp_us = 10000;
  auto cfg = BaseConfig(Policy::kPreempt);
  cfg.pending_mode = GetParam();
  Scheduler s(cfg, wl.Hooks());
  RunFor(s, 600ms);
  EXPECT_GT(s.metrics().type(1).committed.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PendingModeTest,
                         ::testing::Values(uintr::PendingMode::kDrop,
                                           uintr::PendingMode::kDefer));

}  // namespace
}  // namespace preemptdb::sched
