// Shared harness for the per-figure benchmark drivers. Each driver
// reproduces one table/figure from the paper's evaluation (see DESIGN.md §3
// and EXPERIMENTS.md) and prints the same rows/series the paper reports.
//
// Scales default to a small single-core machine and can be raised with
// environment variables:
//   PDB_WORKERS       worker threads          (default 2)
//   PDB_SECONDS       seconds per data point  (default 2)
//   PDB_TPCC_WH       TPC-C warehouses        (default = workers, as paper)
//   PDB_TPCC_ITEMS    TPC-C items             (default 10000)
//   PDB_TPCC_CUST     customers per district  (default 600)
//   PDB_TPCH_PARTS    TPC-H parts             (default 6000)
#ifndef PREEMPTDB_BENCH_COMMON_H_
#define PREEMPTDB_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sched/scheduler.h"
#include "util/random.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace preemptdb::bench {

// Request-type id -> label, for txn_types rows in --metrics-json output.
// Indexed by the workload type constants (TpccWorkload::TxnType etc.).
inline const char* const kTxnTypeNames[sched::kMaxTxnTypes] = {
    "neworder", "payment", "orderstatus", "delivery",
    "stocklevel", "q2", "ycsb", nullptr,
};

inline int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : def;
}

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : def;
}

// The one command-line parser shared by every bench driver. GNU-style long
// flags only: `--name=value` or bare `--name` (value "1"). Each driver used
// to hand-roll the same argv loop; they now all go through this, so a new
// flag is one Get* call rather than a 14th copy of the loop.
class FlagSet {
 public:
  FlagSet(int argc, char** argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) continue;  // benches take no positionals
      size_t eq = a.find('=');
      if (eq == std::string::npos) {
        flags_.emplace_back(a.substr(2), "1");
      } else {
        flags_.emplace_back(a.substr(2, eq - 2), a.substr(eq + 1));
      }
    }
  }

  bool Has(const std::string& name) const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return true;
    }
    return false;
  }

  std::string Get(const std::string& name, const std::string& def = "") const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return v;
    }
    return def;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    std::string v = Get(name);
    return v.empty() ? def : std::atoll(v.c_str());
  }

  double GetDouble(const std::string& name, double def) const {
    std::string v = Get(name);
    return v.empty() ? def : std::atof(v.c_str());
  }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::vector<std::pair<std::string, std::string>> flags_;
};

struct BenchEnv {
  int workers;
  double seconds;
  workload::TpccConfig tpcc;
  workload::TpchConfig tpch;

  static BenchEnv FromEnv() {
    BenchEnv e;
    e.workers = static_cast<int>(EnvInt("PDB_WORKERS", 2));
    e.seconds = EnvDouble("PDB_SECONDS", 2.0);
    e.tpcc.warehouses =
        static_cast<int>(EnvInt("PDB_TPCC_WH", e.workers));
    e.tpcc.items = static_cast<int>(EnvInt("PDB_TPCC_ITEMS", 10000));
    e.tpcc.customers_per_district =
        static_cast<int>(EnvInt("PDB_TPCC_CUST", 600));
    e.tpcc.initial_orders_per_district = e.tpcc.customers_per_district;
    e.tpch.parts = static_cast<int>(EnvInt("PDB_TPCH_PARTS", 6000));
    e.tpch.suppliers = std::max(100, e.tpch.parts / 20);
    return e;
  }
};

// The paper's mixed workload: TPC-C (short, high-priority) + TPC-H Q2
// (long, low-priority) over one engine instance. Loaded once per process
// and reused across scheduler configurations.
class MixedBench {
 public:
  explicit MixedBench(const BenchEnv& env)
      : env_(env), tpcc_(&engine_, env.tpcc), tpch_(&engine_, env.tpch) {
    std::fprintf(stderr,
                 "# loading TPC-C (%d wh, %d items) + TPC-H (%d parts)...\n",
                 env.tpcc.warehouses, env.tpcc.items, env.tpch.parts);
    tpcc_.Load();
    tpch_.Load();
  }

  // One-shot executor: every transaction finishes in its first step.
  static sched::StepResult Step(const sched::Request& req, void* ctx,
                                int worker_id, sched::StepContext* /*sc*/) {
    auto* self = static_cast<MixedBench*>(ctx);
    Rc rc = req.type == workload::TpchWorkload::kQ2
                ? self->tpch_.Execute(req, worker_id)
                : self->tpcc_.Execute(req, worker_id);
    return {sched::StepStatus::kDone, rc};
  }

  // hp_stream=false: no high-priority requests (Fig. 8 overhead mode).
  // standard_mix=true: LP stream is the five-transaction TPC-C mix instead
  // of Q2 (Fig. 8 runs standard TPC-C as low priority).
  sched::Scheduler::Workload Hooks(bool hp_stream = true,
                                   bool standard_mix = false) {
    sched::Scheduler::Workload w;
    w.step = &MixedBench::Step;
    w.exec_ctx = this;
    if (standard_mix) {
      w.gen_low = [this](sched::Request* out) {
        *out = tpcc_.GenStandardMix(rng_);
        return true;
      };
    } else {
      w.gen_low = [this](sched::Request* out) {
        *out = tpch_.GenQ2(rng_);
        return true;
      };
    }
    if (hp_stream) {
      w.gen_high = [this](sched::Request* out) {
        *out = tpcc_.GenHighPriority(rng_);
        return true;
      };
    }
    return w;
  }

  workload::TpccWorkload& tpcc() { return tpcc_; }
  workload::TpchWorkload& tpch() { return tpch_; }
  engine::Engine& engine() { return engine_; }
  const BenchEnv& env() const { return env_; }

 private:
  BenchEnv env_;
  engine::Engine engine_;
  workload::TpccWorkload tpcc_;
  workload::TpchWorkload tpch_;
  FastRandom rng_{0xbe9cull};
};

// Observability flags shared by every fig driver:
//   --trace-out=<file>     enable event tracing; write Chrome trace JSON
//                          (load in Perfetto / chrome://tracing) at Finish()
//   --metrics-json=<file>  write a MetricsSnapshot JSON at Finish()
// Construct first thing in main (tracing must be on before worker threads
// start, or they skip ring registration) and call Finish() before exit.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) : ObsSession(FlagSet(argc, argv)) {}

  explicit ObsSession(const FlagSet& flags) {
    trace_path_ = flags.Get("trace-out");
    metrics_path_ = flags.Get("metrics-json");
    if (!flags.program().empty()) snap_.SetMeta("bench", flags.program());
    // Chaos benchmarking: PDB_FAULT=sigdrop:0.01,... arms injection for the
    // whole run (see src/fault/fault.h for the grammar). Recorded in the
    // snapshot meta so fault runs are never mistaken for clean baselines.
    fault::ConfigureFromEnv();
    if (const char* spec = std::getenv("PDB_FAULT"); spec != nullptr) {
      snap_.SetMeta("fault_spec", spec);
    }
    if (tracing()) {
      obs::SetTraceEnabled(true);
      obs::RegisterThisThread("bench-main");
    }
  }
  ~ObsSession() { Finish(); }

  bool tracing() const { return !trace_path_.empty(); }
  bool metrics() const { return !metrics_path_.empty(); }
  obs::MetricsSnapshot& snapshot() { return snap_; }

  // Applies session knobs to a scheduler config (background queue-depth
  // sampling only pays for itself when a metrics file was requested).
  void Configure(sched::SchedulerConfig& cfg) const {
    if (metrics()) cfg.stats_period_ms = 20;
  }

  // Writes the requested artifacts: stops tracing, exports the merged rings
  // as Chrome trace JSON, derives the uipi send->delivery latency histogram
  // from the trace, and dumps the metrics snapshot. Idempotent.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    std::string err;
    if (tracing()) {
      obs::SetTraceEnabled(false);
      obs::TraceExporter exp;
      LatencyHistogram uipi_lat;
      size_t pairs = exp.DeriveUipiLatency(&uipi_lat);
      if (pairs > 0) {
        snap_.AddHistogramNanos("uipi_send_to_delivery", uipi_lat);
      }
      snap_.AddCounter("trace.events_exported", exp.events().size());
      snap_.AddCounter("trace.uipi_pairs", pairs);
      if (!exp.WriteChromeTrace(trace_path_, &err)) {
        std::fprintf(stderr, "# trace export failed: %s\n", err.c_str());
      } else {
        std::fprintf(stderr,
                     "# wrote %zu trace events (%d subsystems) to %s\n",
                     exp.events().size(), exp.NumCategoriesPresent(),
                     trace_path_.c_str());
      }
    }
    if (metrics()) {
      snap_.CaptureRegistry();
      if (!snap_.WriteFile(metrics_path_, &err)) {
        std::fprintf(stderr, "# metrics export failed: %s\n", err.c_str());
      } else {
        std::fprintf(stderr, "# wrote metrics JSON to %s\n",
                     metrics_path_.c_str());
      }
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  obs::MetricsSnapshot snap_;
  bool finished_ = false;
};

struct TypeStats {
  double tps = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
  double geomean_us = 0;
  uint64_t committed = 0, aborted = 0;
};

struct RunResult {
  TypeStats neworder, payment, q2;
  double duration_s = 0;
  uint64_t uipis = 0;
  uint64_t hp_dropped = 0;
};

inline TypeStats Snapshot(const sched::TxnTypeMetrics& m, double secs) {
  TypeStats s;
  s.committed = m.committed.load();
  s.aborted = m.aborted.load();
  s.tps = static_cast<double>(s.committed) / secs;
  s.p50_us = m.latency.PercentileMicros(50);
  s.p90_us = m.latency.PercentileMicros(90);
  s.p99_us = m.latency.PercentileMicros(99);
  s.p999_us = m.latency.PercentileMicros(99.9);
  s.geomean_us = m.latency.GeoMeanMicros();
  return s;
}

// Runs the mixed workload under `cfg` for `seconds`, returning per-type
// throughput and latency stats. When `snap` is given, the run's full metrics
// (per-type rows, scheduler counters, queue-depth aggregates) are appended to
// it under `label.` prefixes before the scheduler is torn down.
inline RunResult RunMixed(MixedBench& bench, sched::SchedulerConfig cfg,
                          double seconds, bool hp_stream = true,
                          bool standard_mix = false,
                          obs::MetricsSnapshot* snap = nullptr,
                          const std::string& label = "") {
  sched::Scheduler s(cfg, bench.Hooks(hp_stream, standard_mix));
  s.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int64_t>(seconds * 1000)));
  s.Stop();
  RunResult r;
  r.duration_s = seconds;
  r.neworder =
      Snapshot(s.metrics().type(workload::TpccWorkload::kNewOrder), seconds);
  r.payment =
      Snapshot(s.metrics().type(workload::TpccWorkload::kPayment), seconds);
  r.q2 = Snapshot(s.metrics().type(workload::TpchWorkload::kQ2), seconds);
  r.uipis = s.uipis_sent();
  r.hp_dropped = s.hp_dropped();
  if (snap != nullptr) {
    std::string prefix = label.empty() ? "" : label + ".";
    s.metrics().AppendTo(*snap, kTxnTypeNames, sched::kMaxTxnTypes, seconds,
                         prefix);
    snap->AddCounter(prefix + "uipis_sent", r.uipis);
    snap->AddCounter(prefix + "hp_admitted", s.hp_admitted());
    snap->AddCounter(prefix + "hp_dropped", r.hp_dropped);
    s.stats_reporter().AppendTo(*snap, prefix);
  }
  return r;
}

inline sched::SchedulerConfig BaseConfig(sched::Policy policy, int workers) {
  sched::SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.num_workers = workers;
  cfg.lp_queue_capacity = 1;    // paper §6.1 defaults
  cfg.hp_queue_capacity = 4;
  cfg.arrival_interval_us = 1000;
  cfg.yield_interval_records = 10000;
  cfg.tunables.starvation_enabled = false;  // paper default: no L_max cap
  return cfg;
}

// Rows per preload transaction. One transaction over every row would keep
// its whole write set (32 B/row, 128 MiB at 4M rows) until the commit and
// leave it in the process's peak RSS.
inline constexpr uint64_t kPreloadChunkRows = 65536;

// Inserts keys 1..`keys`, each with `value`, into `table`, committing every
// kPreloadChunkRows rows. Existing keys are left as they are, so a durable
// restart can preload over the rows it recovered (and a retried call over
// the chunks that already committed).
inline Rc PreloadKv(engine::Engine& eng, engine::Table* table, uint64_t keys,
                    std::string_view value) {
  for (uint64_t first = 1; first <= keys; first += kPreloadChunkRows) {
    const uint64_t last = std::min(keys, first + kPreloadChunkRows - 1);
    auto* txn = eng.Begin();
    for (uint64_t k = first; k <= last; ++k) {
      Rc r = txn->Insert(table, k, value);
      if (r == Rc::kKeyExists) continue;
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
    }
    Rc rc = txn->Commit();
    if (!IsOk(rc)) return rc;
  }
  return Rc::kOk;
}

}  // namespace preemptdb::bench

#endif  // PREEMPTDB_BENCH_COMMON_H_
