// Scheduling-layer tests: policy behaviour (Wait / Cooperative / PreemptDB),
// batched on-demand preemption, starvation prevention, metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "engine/hooks.h"
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
  // With L >= 0 always, the scheduler admits no HP work at all: low-priority
  // throughput is maximized (the paper's L=0 extreme) and HP requests are
  // shed.
  EXPECT_GT(s.metrics().type(0).committed.load(), 0u);
  EXPECT_GT(s.hp_dropped(), 0u);
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
