// Standalone PreemptDB network server: boots a DB + net::Server and serves
// the wire protocol until the run length expires or SIGINT/SIGTERM arrives.
// The live end of the observability walkthrough (EXPERIMENTS.md): point
// net_loadgen at it with --connect, and pdb_top at it for the admin plane.
//
//   ./bench/pdb_server --port=7878 --shards=2 --workers=4 &
//   ./bench/net_loadgen --connect=127.0.0.1:7878 --seconds=10
//   ./bench/pdb_top --connect=127.0.0.1:7878
//
// Flags (bench::FlagSet):
//   --port=P           listen port (0 = ephemeral, printed on stdout) (7878)
//   --host=H           bind address                          (127.0.0.1)
//   --shards=N         event-loop shards                     (1)
//   --workers=N        worker threads                        (PDB_WORKERS)
//   --policy=preempt|wait|coop   scheduling policy           (preempt)
//   --keys=N           preloaded KV keys                     (10000)
//   --value-size=B     value bytes                           (64)
//   --seconds=S        run length; 0 = until signal          (0)
//   --timeline-sample=N  echo timeline every Nth asking req  (1)
//   --slo-hp-us=T      HP p99 SLO target in us, 0 = off      (0)
//   --slo-lp-us=T      LP p99 SLO target in us, 0 = off      (0)
//   --slo-window-ms=W  SLO rolling window                    (1000)
//   --ctl-hp-us=T      adaptive controller HP target, 0 = off (0)
//   --ctl-lp-us=T      controller LP give-back target         (0)
//   --ctl-period-ms=P  controller evaluation period           (100)
//   --log-dir=D        durability directory: recover it on boot, append
//                      CRC-framed redo with group fdatasync ("" = off)
//   --ckpt-interval-ms=P  fuzzy-checkpoint period when durable   (5000)
//   --follow=H:P       follower mode: bootstrap from the primary at H:P
//                      (checkpoint + redo tail), apply its shipped stream,
//                      serve reads; writes answer kReadOnly with H:P as the
//                      redirect hint. Requires --log-dir. A durable server
//                      WITHOUT --follow is a replication primary: it accepts
//                      kReplSubscribe and ships its redo log.
//   --trace             enable event tracing (kTraceSnapshot needs this)
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "bench/common.h"
#include "core/preemptdb.h"
#include "net/server.h"
#include "obs/trace.h"
#include "repl/replicator.h"

using namespace preemptdb;
using namespace preemptdb::bench;

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_release); }

sched::Policy ParsePolicy(const std::string& s) {
  if (s == "wait") return sched::Policy::kWait;
  if (s == "coop" || s == "cooperative") return sched::Policy::kCooperative;
  return sched::Policy::kPreempt;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  BenchEnv env = BenchEnv::FromEnv();

  // Tracing must be armed before any worker thread starts or those threads
  // skip ring registration and kTraceSnapshot comes back empty.
  if (flags.Has("trace")) {
    obs::SetTraceEnabled(true);
    obs::RegisterThisThread("server-main");
  }

  DB::Options dbo;
  dbo.scheduler.policy = ParsePolicy(flags.Get("policy", "preempt"));
  dbo.scheduler.num_workers =
      static_cast<int>(flags.GetInt("workers", env.workers));
  dbo.log_dir = flags.Get("log-dir", "");
  dbo.checkpoint_interval_ms =
      static_cast<uint64_t>(flags.GetInt("ckpt-interval-ms", 5000));

  // Follower mode: reconcile the local directory with the primary BEFORE the
  // DB opens it — a checkpoint bootstrap must land on disk so ordinary
  // recovery below brings the engine up at the shipped state.
  const std::string follow = flags.Get("follow", "");
  std::unique_ptr<repl::Replicator> replicator;
  if (!follow.empty()) {
    if (dbo.log_dir.empty()) {
      std::fprintf(stderr, "--follow requires --log-dir\n");
      return 1;
    }
    size_t colon = follow.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--follow expects host:port, got %s\n",
                   follow.c_str());
      return 1;
    }
    repl::Replicator::Options ro;
    ro.host = follow.substr(0, colon);
    ro.port = static_cast<uint16_t>(std::atoi(follow.c_str() + colon + 1));
    ro.dir = dbo.log_dir;
    replicator = std::make_unique<repl::Replicator>(ro);
    std::string berr;
    bool booted = false;
    // The primary may still be starting (scripts launch both at once).
    for (int attempt = 0; attempt < 40; ++attempt) {
      if (replicator->Bootstrap(&berr)) {
        booted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (!booted) {
      std::fprintf(stderr, "follower bootstrap failed: %s\n", berr.c_str());
      return 1;
    }
  }

  auto db = DB::Open(dbo);
  if (!dbo.log_dir.empty()) {
    const engine::RecoveryStats& rs = db->recovery_stats();
    std::printf(
        "pdb_server recovered: ckpt_seq=%llu ckpt_rows=%llu redo_txns=%llu "
        "truncated_bytes=%llu discarded_partial=%llu\n",
        static_cast<unsigned long long>(rs.checkpoint_seq),
        static_cast<unsigned long long>(rs.checkpoint_rows),
        static_cast<unsigned long long>(rs.redo_txns_applied),
        static_cast<unsigned long long>(rs.truncated_bytes),
        static_cast<unsigned long long>(rs.discarded_partial_txns));
  }

  net::Server::Options so;
  so.host = flags.Get("host", "127.0.0.1");
  so.port = static_cast<uint16_t>(flags.GetInt("port", 7878));
  so.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 1));
  so.timeline_sample_every =
      static_cast<uint32_t>(flags.GetInt("timeline-sample", 1));
  so.slo.hp_target_us = static_cast<uint64_t>(flags.GetInt("slo-hp-us", 0));
  so.slo.lp_target_us = static_cast<uint64_t>(flags.GetInt("slo-lp-us", 0));
  so.slo.window_ms =
      static_cast<uint64_t>(flags.GetInt("slo-window-ms", 1000));
  so.controller.hp_target_us =
      static_cast<uint64_t>(flags.GetInt("ctl-hp-us", 0));
  so.controller.lp_target_us =
      static_cast<uint64_t>(flags.GetInt("ctl-lp-us", 0));
  so.controller.period_ms =
      static_cast<uint64_t>(flags.GetInt("ctl-period-ms", 100));
  // Replication roles: a durable server is a primary (ships its redo log to
  // subscribers) unless it is itself following one.
  so.enable_repl = !dbo.log_dir.empty() && follow.empty();
  so.read_only = replicator != nullptr;
  so.primary_hint = follow;

  net::Server server(db.get(), so);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "server start failed: %s\n", err.c_str());
    return 1;
  }
  if (replicator != nullptr) replicator->Start(&db->engine());

  // Preload through the engine so wire GET/ScanSum hit real data at once.
  // A follower preloads nothing: every row it serves arrives replicated.
  uint64_t keys = static_cast<uint64_t>(flags.GetInt("keys", 10000));
  if (replicator != nullptr) keys = 0;
  std::string value(static_cast<size_t>(flags.GetInt("value-size", 64)), 'v');
  if (keys > 0) {
    auto* table = db->GetTable(so.kv_table);
    // A durable restart recovers the previous run's rows; PreloadKv leaves
    // them as recovered.
    Rc rc = db->Execute([&](engine::Engine& eng) {
      return PreloadKv(eng, table, keys, value);
    });
    if (!IsOk(rc)) {
      std::fprintf(stderr, "preload failed\n");
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  // Line-buffered-friendly startup handshake: scripts wait for this line
  // (and parse the port out of it when --port=0 asked for an ephemeral one).
  std::printf(
      "pdb_server listening on %s:%u shards=%u workers=%d keys=%lu role=%s\n",
      so.host.c_str(), server.port(), server.num_shards(),
      dbo.scheduler.num_workers, static_cast<unsigned long>(keys),
      replicator != nullptr ? "follower"
      : so.enable_repl      ? "primary"
                            : "standalone");
  std::fflush(stdout);

  double seconds = flags.GetDouble("seconds", 0);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<int64_t>(seconds * 1000));
  while (!g_stop.load(std::memory_order_acquire)) {
    if (seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    if (replicator != nullptr && replicator->rebuild_required()) {
      std::fprintf(stderr,
                   "follower diverged from primary; restart to re-bootstrap "
                   "from its checkpoint\n");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Replicator first: it appends to the engine's log, which must stop
  // before the DB (drained inside Stop()) goes away.
  if (replicator != nullptr) replicator->Stop();
  server.Stop();
  std::printf("pdb_server done: requests=%lu admitted=%lu replies=%lu\n",
              static_cast<unsigned long>(server.requests()),
              static_cast<unsigned long>(server.admitted()),
              static_cast<unsigned long>(server.replies()));
  return 0;
}
