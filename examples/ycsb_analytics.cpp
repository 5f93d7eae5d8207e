// Fifth example: a key-value service (YCSB-B point workload, high priority)
// sharing a PreemptDB instance with periodic analytics sweeps (full-table
// scans, low priority) — the same wait-vs-preempt story as htap_reporting
// but on a second workload domain, driven through the scheduler layer
// directly.
//
//   $ ./build/examples/ycsb_analytics [--short]
//
// --short runs each policy for 0.25 s instead of 2 s (the ctest run).
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

#include "sched/scheduler.h"
#include "util/random.h"
#include "workload/ycsb.h"

using namespace preemptdb;

namespace {

void Run(sched::Policy policy, double seconds) {
  engine::Engine eng;
  eng.StartBackgroundGc(20);
  workload::YcsbConfig ycfg;
  ycfg.record_count = 50000;
  ycfg.mix = workload::YcsbMix::kB;  // 95% reads, 5% updates
  ycfg.zipf_theta = 0.8;
  workload::YcsbWorkload ycsb(&eng, ycfg);
  ycsb.Load();

  sched::Scheduler::Workload w;
  w.step = +[](const sched::Request& req, void* c, int worker,
               sched::StepContext*) {
    Rc rc = static_cast<workload::YcsbWorkload*>(c)->Execute(req, worker);
    return sched::StepResult{sched::StepStatus::kDone, rc};
  };
  w.exec_ctx = &ycsb;
  FastRandom rng(99);
  w.gen_low = [&](sched::Request* out) {
    *out = ycsb.GenScanAll(rng);  // analytics sweep
    return true;
  };
  w.gen_high = [&](sched::Request* out) {
    *out = ycsb.GenTxn(rng);  // point operations
    return true;
  };

  sched::SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.num_workers = 2;
  cfg.arrival_interval_us = 1000;
  sched::Scheduler s(cfg, w);
  s.Start();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  s.Stop();

  const auto& point = s.metrics().type(workload::YcsbWorkload::kYcsbTxn);
  const auto& sweep = s.metrics().type(workload::YcsbWorkload::kYcsbScanAll);
  std::printf(
      "%-12s point ops: %6.0f/s  p50=%7.1fus p99=%8.1fus | sweeps: %4.1f/s\n",
      sched::PolicyName(policy),
      point.committed.load() / seconds, point.latency.PercentileMicros(50),
      point.latency.PercentileMicros(99), sweep.committed.load() / seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_run = argc > 1 && std::string_view(argv[1]) == "--short";
  const double seconds = short_run ? 0.25 : 2.0;
  std::printf("# KV service + analytics sweeps on one PreemptDB instance\n");
  Run(sched::Policy::kWait, seconds);
  Run(sched::Policy::kCooperative, seconds);
  Run(sched::Policy::kPreempt, seconds);
  std::printf(
      "# point-op latency: PreemptDB decouples it from sweep duration\n");
  return 0;
}
