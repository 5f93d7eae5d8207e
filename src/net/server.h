// Sharded epoll TCP front-end for a PreemptDB instance.
//
// The front-end is N independent event-loop shards (net/shard.h): each owns
// its epoll fd, wakeup eventfd, listening socket, and connection table, so
// accept + frame parsing + completion wakeups scale past one core with no
// cross-shard locking on the hot path. With SO_REUSEPORT (the default for
// num_shards > 1) every shard listens on the same port and the kernel
// spreads incoming connections; when REUSEPORT is unavailable or disabled,
// shard 0 owns the single listener and hands each accepted fd to shard
// `fd % num_shards`.
//
// Requests are classified HP/LP *at admission* from the wire priority class
// — the network edge is where mixed OLTP/OLAP traffic gets its priority,
// before any engine resource is touched — and driven through the
// completion-callback Submit() overload so the PR-2 backpressure contract
// reaches the wire verbatim, independently on every shard:
//
//   DB::SubmitResult::kQueueFull  ->  WireStatus::kBusy      (not enqueued)
//   DB::SubmitResult::kStopped    ->  WireStatus::kShuttingDown
//   Rc::kTimeout (deadline shed)  ->  WireStatus::kTimeout   (never executed)
//
// Completions do not write the wakeup eventfd per response: they append to
// the admitting shard's MPSC ring and wake it at most once per loop tick
// (net.eventfd_wakes < net.responses_sent under pipelined load — see
// shard.h for the enqueue + maybe-wake contract).
//
// Nothing is silently queued or dropped: every admitted submission completes
// (run, or shed-as-timeout) and produces exactly one completion; the only
// thing a dead connection loses is the reply bytes (net.responses_dropped).
//
// Lifecycle: construct over an open DB, Start(), serve, Stop(). Stop()
// rejects new work, drains the DB (so in-flight completions fire), then
// tears the loops down — the server must be stopped before the DB dies.
#ifndef PREEMPTDB_NET_SERVER_H_
#define PREEMPTDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/preemptdb.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "sched/controller.h"

namespace preemptdb::repl {
class Shipper;
}  // namespace preemptdb::repl

namespace preemptdb::net {

class NetShard;

// Per-shard statistics, written by the shard thread (and, for
// responses_dropped and eventfd_wakes, by completion producers) and read
// from any thread. Each LocalCounter rolls up into the process-wide net.*
// counter named beside it, so an event is counted once for both views.
struct ShardStats {
  ShardStats();

  obs::LocalCounter conns_accepted;      // net.conns_accepted
  obs::LocalCounter conns_closed;        // net.conns_closed
  obs::LocalCounter requests;            // net.requests
  obs::LocalCounter admitted;            // net.accepted
  obs::LocalCounter busy;                // net.busy
  obs::LocalCounter bad_requests;        // net.rejected
  obs::LocalCounter replies;             // net.responses_sent
  obs::LocalCounter responses_dropped;   // net.responses_dropped
  obs::LocalCounter timeouts;            // net.timeouts
  obs::LocalCounter eventfd_wakes;       // net.eventfd_wakes
  obs::LocalCounter completion_batches;  // net.completion_batches
  obs::LocalCounter accept_handoffs;     // net.accept_handoffs
  // Per-shard only.
  std::atomic<uint64_t> conn_resets{0};
  std::atomic<uint64_t> open_conns{0};
  // Completion callbacks fired / handled (response queued or dropped).
  // Release increments, acquire loads: Quiesced() orders Stop() after them.
  std::atomic<uint64_t> completions_pushed{0};
  std::atomic<uint64_t> completions{0};

  static uint64_t Read(const obs::LocalCounter& c) { return c.Value(); }
  static uint64_t Read(const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_acquire);
  }
};

class Server {
 public:
  // Interprets one decoded request inside a transaction. Runs on worker
  // threads (possibly many at once): must be thread-safe and touch the
  // engine only through `eng`. `payload` is the request body; reply bytes go
  // to `*reply` (returned with WireStatus::kOk / kNotFound / kAborted...).
  using OpHandler =
      std::function<Rc(engine::Engine& eng, const RequestHeader& req,
                       const std::string& payload, std::string* reply)>;

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
    int backlog = 128;
    // Event-loop shards. 1 reproduces the pre-sharding single-loop server;
    // clamped to [1, kMaxShards].
    uint32_t num_shards = 1;
    // Per-shard SO_REUSEPORT listeners when num_shards > 1. Set false to
    // force the fd-hash handoff fallback (shard 0 accepts, then routes by
    // `fd % num_shards`); the fallback also engages automatically when the
    // kernel rejects SO_REUSEPORT.
    bool reuseport = true;
    // Per-connection admission cap: requests beyond this many in flight get
    // an immediate BUSY (connection-level backpressure, upstream of the
    // submit-queue kind). 0 disables.
    uint32_t max_inflight = 512;
    // Payload cap for this server (<= protocol kMaxPayload).
    uint32_t max_payload = kMaxPayload;
    // Table backing the built-in KV ops; created on Start() if absent.
    std::string kv_table = "netkv";
    // Replaces the built-in KV dispatch entirely when set. Admin opcodes
    // (kMetrics / kHealth / kTraceSnapshot) are reserved and served by the
    // shard loop before the handler ever sees them.
    OpHandler handler;
    // Timeline echo sampling: a request asking for its lifecycle timeline
    // (kReqFlagWantTimeline) gets one appended to the response payload every
    // Nth such request per shard. 1 = every request that asks, 0 = never.
    // Timelines are always *collected* (they feed the *.stage.* histograms);
    // this only gates the extra 72 bytes on the wire.
    uint32_t timeline_sample_every = 1;
    // --- Replication (src/repl/) ---
    // Primary role: accept kReplSubscribe on any shard and hand the socket
    // to a log-shipping session (requires a durable engine; silently
    // ignored otherwise — there is no log to ship).
    bool enable_repl = false;
    // Per-follower redo-stream shipping rate cap (bytes/sec, token bucket
    // with one-chunk burst; see repl::Shipper::Options). 0 = unlimited.
    uint64_t repl_max_bytes_per_sec = 0;
    // Follower role: answer write opcodes (kPut / kDelete) with
    // WireStatus::kReadOnly instead of executing them. Read ops serve the
    // replicated state. Only meaningful with the built-in KV dispatch.
    bool read_only = false;
    // "host:port" of the primary, sent as the kReadOnly response payload so
    // redirected clients know where writes go.
    std::string primary_hint;
    // SLO watchdog over wire-level server_ns per priority class; disabled
    // unless a target is set (see obs/slo.h).
    obs::SloConfig slo;
    // Adaptive preemption controller (sched/controller.h); disabled unless
    // controller.hp_target_us is set. The controller needs the SLO watchdog
    // as its sensor: when enabled while `slo` has no targets, Start()
    // mirrors the controller targets into `slo` so the watchdog exists.
    sched::ControllerConfig controller;
  };

  static constexpr uint32_t kMaxShards = 64;

  Server(DB* db, Options options);
  ~Server();
  PDB_DISALLOW_COPY_AND_ASSIGN(Server);

  // Binds, listens, and spawns the event-loop shards. False + *err on
  // bind/listen failure (port in use, bad host).
  bool Start(std::string* err);

  // Stops accepting, drains the DB, closes every connection, joins the
  // loops. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  uint32_t num_shards() const;
  // True when the fd-hash handoff accept path is active (REUSEPORT
  // unavailable or disabled).
  bool handoff_mode() const { return handoff_mode_; }

  // --- Per-instance statistics: one shard's (i < num_shards()), and sums
  // over this server's shards (net.* sums every server in the process) ---
  const ShardStats& shard_stats(uint32_t i) const;
  uint64_t conns_accepted() const { return Sum(&ShardStats::conns_accepted); }
  uint64_t conns_closed() const { return Sum(&ShardStats::conns_closed); }
  uint64_t requests() const { return Sum(&ShardStats::requests); }
  uint64_t admitted() const { return Sum(&ShardStats::admitted); }
  uint64_t busy() const { return Sum(&ShardStats::busy); }
  uint64_t bad_requests() const { return Sum(&ShardStats::bad_requests); }
  uint64_t replies() const { return Sum(&ShardStats::replies); }
  uint64_t responses_dropped() const {
    return Sum(&ShardStats::responses_dropped);
  }
  uint64_t timeouts() const { return Sum(&ShardStats::timeouts); }
  uint64_t conn_resets_injected() const {
    return Sum(&ShardStats::conn_resets);
  }
  uint64_t eventfd_wakes() const { return Sum(&ShardStats::eventfd_wakes); }
  uint64_t completions_pushed() const {
    return Sum(&ShardStats::completions_pushed);
  }
  uint64_t completions() const { return Sum(&ShardStats::completions); }
  uint64_t completion_batches() const {
    return Sum(&ShardStats::completion_batches);
  }
  uint64_t accept_handoffs() const { return Sum(&ShardStats::accept_handoffs); }

  // The SLO watchdog, when Options::slo enabled a class (null otherwise).
  obs::SloWatchdog* slo_watchdog() { return slo_watchdog_.get(); }
  // The log shipper, when Options::enable_repl found a durable engine
  // (null otherwise). Shards hand detached subscriber sockets here.
  repl::Shipper* repl_shipper() { return shipper_.get(); }
  // The adaptive controller, when Options::controller enabled it.
  sched::Controller* controller() { return controller_.get(); }

  // --- Admin / introspection plane (also callable in-process) ---
  //
  // The JSON bodies behind the kMetrics / kHealth / kTraceSnapshot wire
  // opcodes. Built off the transaction hot path (shard thread for wire
  // requests) and served even while the server is draining, so a wedged
  // instance can still be inspected. `max_bytes` truncates the trace export
  // (oldest events dropped) to fit a response payload.
  std::string BuildMetricsJson() const;
  std::string BuildHealthJson() const;
  std::string BuildTraceJson(size_t max_bytes) const;
  // kGetConfig body: structural scheduler config + tunable knob values with
  // their config version + controller state.
  std::string BuildConfigJson() const;
  // kSetConfig: parses a JSON changeset and applies it atomically to the
  // scheduler's TunableConfig. False + *err (version unchanged) on unknown
  // keys, type errors, or out-of-range values.
  bool ApplyConfigJson(std::string_view json, std::string* err);

 private:
  friend class NetShard;

  // Routes to the installed handler or the built-in KV dispatch (worker
  // threads, via the submitted TxnFn).
  Rc Dispatch(engine::Engine& eng, const RequestHeader& req,
              const std::string& payload, std::string* reply);
  Rc DefaultKvHandler(engine::Engine& eng, const RequestHeader& req,
                      const std::string& payload, std::string* reply);
  // Creates + binds + listens one socket; -1 and *err on failure.
  int OpenListener(bool reuseport, uint16_t port, std::string* err);
  // Shard threads feed each completed request's server-side latency here
  // (no-op without a watchdog).
  void RecordSlo(bool high_priority, uint64_t latency_ns);
  // Sums one ShardStats field over the shards.
  template <typename Field>
  uint64_t Sum(const Field ShardStats::*field) const {
    uint64_t sum = 0;
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      sum += ShardStats::Read(shard_stats(i).*field);
    }
    return sum;
  }

  DB* const db_;
  Options opts_;
  engine::Table* kv_table_ = nullptr;

  uint16_t port_ = 0;
  bool handoff_mode_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<NetShard>> shards_;
  // Per-shard `net.shard<i>.*` gauges; cleared before the shards die.
  obs::GaugeGroup shard_gauges_;
  std::unique_ptr<obs::SloWatchdog> slo_watchdog_;
  std::unique_ptr<sched::Controller> controller_;
  std::unique_ptr<repl::Shipper> shipper_;
};

}  // namespace preemptdb::net

#endif  // PREEMPTDB_NET_SERVER_H_
