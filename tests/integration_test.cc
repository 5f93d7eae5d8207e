// End-to-end integration: the paper's mixed workload (TPC-C NewOrder/Payment
// high-priority + TPC-H Q2 low-priority) running under all three scheduling
// policies, with TPC-C consistency verified afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "engine/engine.h"
#include "sched/scheduler.h"
#include "util/random.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace preemptdb {
namespace {

using namespace std::chrono_literals;

// Combines the two workloads behind a single executor + generators.
struct MixedWorkload {
  engine::Engine engine;
  workload::TpccWorkload tpcc;
  workload::TpchWorkload tpch;
  FastRandom gen_rng{12345};

  MixedWorkload(workload::TpccConfig tc, workload::TpchConfig hc)
      : tpcc(&engine, tc), tpch(&engine, hc) {
    tpcc.Load();
    tpch.Load();
  }

  static sched::StepResult Step(const sched::Request& req, void* ctx,
                                int worker_id, sched::StepContext* /*sc*/) {
    auto* self = static_cast<MixedWorkload*>(ctx);
    Rc rc = req.type == workload::TpchWorkload::kQ2
                ? self->tpch.Execute(req, worker_id)
                : self->tpcc.Execute(req, worker_id);
    return {sched::StepStatus::kDone, rc};
  }

  sched::Scheduler::Workload Hooks() {
    sched::Scheduler::Workload w;
    w.step = &MixedWorkload::Step;
    w.exec_ctx = this;
    w.gen_low = [this](sched::Request* out) {
      *out = tpch.GenQ2(gen_rng);
      return true;
    };
    w.gen_high = [this](sched::Request* out) {
      *out = tpcc.GenHighPriority(gen_rng);
      return true;
    };
    return w;
  }
};

class MixedPolicyTest : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(MixedPolicyTest, MixedWorkloadRunsAndStaysConsistent) {
  auto tc = workload::TpccConfig::Small();
  auto hc = workload::TpchConfig::Small();
  MixedWorkload mixed(tc, hc);

  sched::SchedulerConfig cfg;
  cfg.policy = GetParam();
  cfg.num_workers = 2;
  cfg.arrival_interval_us = 2000;
  cfg.yield_interval_records = 1000;
  sched::Scheduler s(cfg, mixed.Hooks());
  s.Start();
  std::this_thread::sleep_for(1200ms);
  s.Stop();

  // Both priority classes made progress.
  uint64_t hp =
      s.metrics().type(workload::TpccWorkload::kNewOrder).committed.load() +
      s.metrics().type(workload::TpccWorkload::kPayment).committed.load();
  uint64_t lp =
      s.metrics().type(workload::TpchWorkload::kQ2).committed.load();
  EXPECT_GT(hp, 0u) << "high-priority TPC-C transactions must complete";
  EXPECT_GT(lp, 0u) << "low-priority Q2 must complete";

  // The database survived preemptive execution intact.
  EXPECT_GT(mixed.tpcc.CheckConsistency(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, MixedPolicyTest,
                         ::testing::Values(sched::Policy::kWait,
                                           sched::Policy::kCooperative,
                                           sched::Policy::kPreempt));

TEST(MixedIntegration, PreemptBeatsWaitOnHighPriorityLatency) {
  // The paper's central claim at miniature scale: identical workload, two
  // policies; PreemptDB's HP latency must undercut Wait's by a wide margin.
  auto tc = workload::TpccConfig::Small();
  auto hc = workload::TpchConfig::Small();
  hc.parts = 5000;  // lengthen Q2 so Wait visibly queues HP work

  double p50[2];
  int idx = 0;
  for (auto policy : {sched::Policy::kWait, sched::Policy::kPreempt}) {
    MixedWorkload mixed(tc, hc);
    sched::SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.num_workers = 2;
    cfg.arrival_interval_us = 2000;
    sched::Scheduler s(cfg, mixed.Hooks());
    s.Start();
    std::this_thread::sleep_for(2000ms);
    s.Stop();
    LatencyHistogram merged;
    merged.Merge(
        s.metrics().type(workload::TpccWorkload::kNewOrder).latency);
    merged.Merge(s.metrics().type(workload::TpccWorkload::kPayment).latency);
    ASSERT_GT(merged.Count(), 0u);
    p50[idx++] = merged.PercentileMicros(50);
  }
  EXPECT_LT(p50[1], p50[0])
      << "PreemptDB median HP latency must beat Wait (wait=" << p50[0]
      << "us preempt=" << p50[1] << "us)";
}

TEST(MixedIntegration, PreemptionDoesNotCorruptUnderStress) {
  // Small data, aggressive preemption, defer mode: hammer the engine and
  // verify consistency afterwards.
  auto tc = workload::TpccConfig::Small();
  auto hc = workload::TpchConfig::Small();
  MixedWorkload mixed(tc, hc);
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kPreempt;
  cfg.num_workers = 3;
  cfg.arrival_interval_us = 300;
  cfg.hp_queue_capacity = 16;
  cfg.pending_mode = uintr::PendingMode::kDefer;
  sched::Scheduler s(cfg, mixed.Hooks());
  s.Start();
  std::this_thread::sleep_for(1500ms);
  s.Stop();
  EXPECT_GT(s.uipis_sent(), 100u);
  EXPECT_GT(mixed.tpcc.CheckConsistency(), 0u);
  EXPECT_GT(mixed.engine.commits.load(), 0u);
}

}  // namespace
}  // namespace preemptdb
