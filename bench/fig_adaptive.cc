// fig_adaptive: the adaptive preemption controller vs every fixed starvation
// threshold across a phased open-loop HP load sweep.
//
// The paper fixes the starvation threshold and the admission batch at
// startup. This driver shows why that cannot win once the load mix shifts:
// a three-phase arrival schedule (calm -> surge -> recover) is offered to
// the same TPC-C (HP) + TPC-H Q2 (LP) mix under (a) fixed configurations —
// starvation prevention off, and thresholds 0.25/0.50/0.75, all at the
// paper-default admission batch — and (b) the adaptive controller
// (sched/controller.h) driving the same knobs live against an HP p99 target.
// The surge phase offers HP arrivals above the fixed admission cap
// (hp_batch per 1 ms tick), so every fixed configuration's backlog grows
// for the whole phase while the controller doubles the batch toward its
// rail and raises the threshold; the controller must therefore match the
// best fixed config in every phase and strictly beat all of them summed
// over the sweep.
//
// Measurement is open-loop and coordinated-omission-safe: the generator
// stamps each request's *scheduled* arrival time into params[3] (the
// scheduler overwrites gen_ns at admission, which would hide queueing
// behind the arrival tick) and its arrival phase into params[4]; shed
// requests are requeued FIFO with both stamps intact, so a backlogged
// arrival keeps accumulating latency until it actually runs. Latency is
// completion minus scheduled arrival, attributed to the phase the request
// *arrived* in.
//
//   ./bench/fig_adaptive                 # full sweep (PDB_SECONDS per phase)
//   ./bench/fig_adaptive --smoke         # short CI run; exits nonzero if the
//                                        # controller never retuned
//
// Flags (bench::FlagSet):
//   --seconds=S        seconds per phase         (PDB_SECONDS, default 2)
//   --calm-rate=R      calm/recover HP arrivals per second   (2000)
//   --surge-rate=R     surge HP arrivals per second          (12000)
//   --hp-target-us=T   controller + SLO HP p99 target        (5000)
//   --lp-target-us=T   controller LP give-back target, 0=off (0)
//   --smoke            0.5 s phases, verdict enforced by exit status
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/slo.h"
#include "sched/controller.h"
#include "util/clock.h"
#include "util/histogram.h"

using namespace preemptdb;
using namespace preemptdb::bench;

namespace {

constexpr int kNumPhases = 3;
const char* const kPhaseNames[kNumPhases] = {"calm", "surge", "recover"};

// Open-loop HP arrival source, driven entirely from the scheduling thread
// (gen_high and on_shed both run there, so no locking): emits requests whose
// scheduled arrival has passed, stamps arrival time + phase, and replays
// shed requests FIFO ahead of new arrivals.
struct HpArrivals {
  workload::TpccWorkload* tpcc = nullptr;
  FastRandom rng{0xada9cull};
  std::atomic<uint64_t> interval_ns{500'000};
  std::atomic<int> phase{0};
  uint64_t next_ns = 0;
  std::deque<sched::Request> backlog;  // shed, arrival stamps intact
  uint64_t offered = 0;

  bool Gen(sched::Request* out) {
    if (!backlog.empty()) {
      *out = backlog.front();
      backlog.pop_front();
      return true;
    }
    uint64_t now = MonoNanos();
    if (next_ns == 0) next_ns = now;
    if (next_ns > now) return false;
    *out = tpcc->GenHighPriority(rng);
    out->params[3] = next_ns;
    out->params[4] = static_cast<uint64_t>(phase.load(std::memory_order_relaxed));
    next_ns += interval_ns.load(std::memory_order_relaxed);
    ++offered;
    return true;
  }
};

// Executor wrapper: runs the real mixed workload, then records the open-loop
// latency (completion minus scheduled arrival) into the arrival phase's
// histogram and feeds the SLO watchdog that the controller reads.
struct RunCtx {
  MixedBench* bench = nullptr;
  obs::SloWatchdog* slo = nullptr;
  LatencyHistogram hp_lat[kNumPhases];
  LatencyHistogram lp_lat[kNumPhases];
};

sched::StepResult Step(const sched::Request& req, void* ctx, int worker_id,
                       sched::StepContext* sc) {
  auto* rc = static_cast<RunCtx*>(ctx);
  sched::StepResult r = MixedBench::Step(req, rc->bench, worker_id, sc);
  if (req.params[3] != 0) {
    uint64_t now = MonoNanos();
    uint64_t lat = now - req.params[3];
    int ph = static_cast<int>(req.params[4]);
    if (ph >= 0 && ph < kNumPhases) {
      const bool hp = req.priority == sched::Priority::kHigh;
      (hp ? rc->hp_lat[ph] : rc->lp_lat[ph]).RecordNanos(lat);
      if (rc->slo != nullptr) {
        rc->slo->Record(hp, lat, now);
      }
    }
  }
  return r;
}

struct PhaseStats {
  double hp_p50_us = 0, hp_p99_us = 0;
  uint64_t hp_done = 0;
  double lp_p99_ms = 0;
};

struct SweepResult {
  std::string label;
  PhaseStats phase[kNumPhases];
  uint64_t retunes = 0;
  uint64_t ctl_version = 0;
  double final_threshold = -1;  // -1 = disabled
  size_t final_batch = 0;
  std::string last_action;
};

// One full phased sweep under one configuration. `adaptive` additionally
// runs the SLO watchdog + controller against the live tunables.
SweepResult RunSweep(MixedBench& bench, const std::string& label,
                     bool adaptive, bool starvation_on, double threshold,
                     double phase_seconds, const uint64_t rate_per_phase[],
                     uint64_t hp_target_us, uint64_t lp_target_us) {
  std::fprintf(stderr, "# sweep %-12s ...\n", label.c_str());
  sched::SchedulerConfig cfg = BaseConfig(sched::Policy::kPreempt,
                                          bench.env().workers);
  cfg.tunables.starvation_enabled = starvation_on;
  if (starvation_on) cfg.tunables.starvation_threshold = threshold;

  HpArrivals arrivals;
  arrivals.tpcc = &bench.tpcc();
  arrivals.interval_ns.store(1'000'000'000 / rate_per_phase[0]);

  RunCtx ctx;
  ctx.bench = &bench;

  obs::SloConfig slo_cfg;
  slo_cfg.hp_target_us = hp_target_us;
  slo_cfg.lp_target_us = lp_target_us;
  slo_cfg.window_ms = 500;
  slo_cfg.eval_period_ms = 50;
  obs::SloWatchdog slo(slo_cfg);
  if (adaptive) ctx.slo = &slo;

  FastRandom lp_rng(0x10bull);
  sched::Scheduler::Workload w;
  w.step = &Step;
  w.exec_ctx = &ctx;
  w.gen_high = [&arrivals](sched::Request* out) { return arrivals.Gen(out); };
  w.gen_low = [&bench, &lp_rng, &arrivals](sched::Request* out) {
    *out = bench.tpch().GenQ2(lp_rng);
    out->params[3] = MonoNanos();
    out->params[4] =
        static_cast<uint64_t>(arrivals.phase.load(std::memory_order_relaxed));
    return true;
  };
  // Open-loop honesty: a shed arrival is deferred work, not vanished work.
  w.on_shed = [&arrivals](const sched::Request& req) {
    arrivals.backlog.push_back(req);
  };

  sched::Scheduler sched(cfg, std::move(w));
  sched.Start();

  sched::ControllerConfig cc;
  cc.hp_target_us = adaptive ? hp_target_us : 0;
  cc.lp_target_us = lp_target_us;
  cc.period_ms = 50;
  cc.settle_evals = 2;
  cc.hp_batch_max = 1024;
  sched::ControllerSignals sig;
  sig.hp_p99_ns = [&slo] { return slo.hp_measured_ns(); };
  sig.lp_p99_ns = [&slo] { return slo.lp_measured_ns(); };
  sig.lp_breached = [&slo] { return slo.lp_breached(); };
  sig.degraded_workers = [&sched] { return sched.degraded_workers(); };
  sched::Controller ctl(cc, &sched.tunables(), std::move(sig));
  if (adaptive) {
    slo.Start();
    ctl.Start();
  }

  for (int ph = 0; ph < kNumPhases; ++ph) {
    arrivals.phase.store(ph, std::memory_order_relaxed);
    arrivals.interval_ns.store(1'000'000'000 / rate_per_phase[ph]);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int64_t>(phase_seconds * 1000)));
  }

  ctl.Stop();
  slo.Stop();
  sched.Stop();

  SweepResult r;
  r.label = label;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    r.phase[ph].hp_p50_us = ctx.hp_lat[ph].PercentileMicros(50);
    r.phase[ph].hp_p99_us = ctx.hp_lat[ph].PercentileMicros(99);
    r.phase[ph].hp_done = ctx.hp_lat[ph].Count();
    r.phase[ph].lp_p99_ms = ctx.lp_lat[ph].PercentileMicros(99) / 1000.0;
  }
  r.retunes = ctl.retunes();
  r.ctl_version = sched.tunables().version();
  r.final_threshold = sched.tunables().starvation_enabled()
                          ? sched.tunables().starvation_threshold()
                          : -1;
  r.final_batch = sched.tunables().EffectiveHpBatch();
  r.last_action = ctl.last_action();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  ObsSession obs_session(flags);
  BenchEnv env = BenchEnv::FromEnv();
  const bool smoke = flags.Has("smoke");
  const double phase_seconds =
      smoke ? 0.5 : flags.GetDouble("seconds", env.seconds);
  const uint64_t calm_rate =
      static_cast<uint64_t>(flags.GetInt("calm-rate", 2000));
  const uint64_t surge_rate =
      static_cast<uint64_t>(flags.GetInt("surge-rate", 12000));
  const uint64_t hp_target_us =
      static_cast<uint64_t>(flags.GetInt("hp-target-us", 5000));
  const uint64_t lp_target_us =
      static_cast<uint64_t>(flags.GetInt("lp-target-us", 0));
  const uint64_t rates[kNumPhases] = {calm_rate, surge_rate, calm_rate};

  MixedBench bench(env);

  std::printf(
      "# fig_adaptive: adaptive controller vs fixed thresholds, open-loop\n"
      "# workers=%d phases: calm=%" PRIu64 "/s surge=%" PRIu64
      "/s recover=%" PRIu64 "/s (%.1fs each), hp target p99=%" PRIu64 "us\n",
      env.workers, calm_rate, surge_rate, calm_rate, phase_seconds,
      hp_target_us);
  std::printf("%-12s %-8s %12s %12s %10s %12s\n", "config", "phase",
              "hp_p50(us)", "hp_p99(us)", "hp_done", "lp_p99(ms)");

  struct FixedSpec {
    const char* label;
    bool starvation_on;
    double threshold;
  };
  const FixedSpec fixed[] = {
      {"fixed-off", false, 0.0},
      {"fixed-0.25", true, 0.25},
      {"fixed-0.50", true, 0.50},
      {"fixed-0.75", true, 0.75},
  };

  std::vector<SweepResult> results;
  for (const FixedSpec& f : fixed) {
    results.push_back(RunSweep(bench, f.label, /*adaptive=*/false,
                               f.starvation_on, f.threshold, phase_seconds,
                               rates, hp_target_us, lp_target_us));
  }
  results.push_back(RunSweep(bench, "adaptive", /*adaptive=*/true,
                             /*starvation_on=*/true, /*threshold=*/0.5,
                             phase_seconds, rates, hp_target_us,
                             lp_target_us));

  for (const SweepResult& r : results) {
    for (int ph = 0; ph < kNumPhases; ++ph) {
      std::printf("%-12s %-8s %12.1f %12.1f %10" PRIu64 " %12.1f\n",
                  r.label.c_str(), kPhaseNames[ph], r.phase[ph].hp_p50_us,
                  r.phase[ph].hp_p99_us, r.phase[ph].hp_done,
                  r.phase[ph].lp_p99_ms);
    }
  }

  const SweepResult& adaptive = results.back();
  std::printf("# adaptive: retunes=%" PRIu64 " config_version=%" PRIu64
              " final threshold=%s batch=%zu last_action=%s\n",
              adaptive.retunes, adaptive.ctl_version,
              adaptive.final_threshold < 0
                  ? "off"
                  : std::to_string(adaptive.final_threshold).substr(0, 4)
                        .c_str(),
              adaptive.final_batch, adaptive.last_action.c_str());

  // Verdict: per phase, adaptive within 10% of the best fixed config (noise
  // guard); summed across the sweep, strictly better than *every* fixed one.
  bool per_phase_ok = true;
  double adaptive_sum = 0;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    double best_fixed = 1e300;
    for (size_t i = 0; i + 1 < results.size(); ++i) {
      best_fixed = std::min(best_fixed, results[i].phase[ph].hp_p99_us);
    }
    adaptive_sum += adaptive.phase[ph].hp_p99_us;
    const bool ok = adaptive.phase[ph].hp_p99_us <= best_fixed * 1.10;
    if (!ok) per_phase_ok = false;
    std::printf("# phase %-8s adaptive p99=%.1fus best-fixed=%.1fus  %s\n",
                kPhaseNames[ph], adaptive.phase[ph].hp_p99_us, best_fixed,
                ok ? "OK" : "WORSE");
  }
  bool sum_ok = true;
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    double sum = 0;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      sum += results[i].phase[ph].hp_p99_us;
    }
    std::printf("# sweep sum: adaptive=%.1fus vs %s=%.1fus  %s\n",
                adaptive_sum, results[i].label.c_str(), sum,
                adaptive_sum < sum ? "WIN" : "LOSS");
    if (adaptive_sum >= sum) sum_ok = false;
  }
  std::printf("# verdict: per-phase %s, sweep-sum %s, retunes=%" PRIu64 "\n",
              per_phase_ok ? "OK" : "FAIL", sum_ok ? "OK" : "FAIL",
              adaptive.retunes);

  if (smoke && adaptive.retunes == 0) {
    std::fprintf(stderr,
                 "# SMOKE FAIL: controller never retuned during the sweep\n");
    return 1;
  }
  return 0;
}
