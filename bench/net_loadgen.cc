// Open-loop (and closed-loop) load generator for the networked front-end —
// the wire-level analog of Fig. 13: does preemptive scheduling keep
// high-priority p99 flat when requests arrive over real sockets at a rate
// the server does not control?
//
// By default it boots an in-process DB + net::Server on a loopback ephemeral
// port, preloads the KV table, and drives it over TCP from `--conns`
// pipelined connections. High-priority traffic is short point ops (90% GET /
// 10% PUT); low-priority traffic is ScanSum ranges (the Q2 analog). Open
// loop means arrivals follow the schedule regardless of completions —
// latency is measured from the *scheduled* arrival time, so sender lateness
// and queueing both count (no coordinated omission).
//
//   ./bench/net_loadgen --schedule=poisson --rate=2000 --seconds=5
//   ./bench/net_loadgen --schedule=burst --rate=4000 --burst-size=64
//   ./bench/net_loadgen --mode=closed --pipeline=4
//   ./bench/net_loadgen --policy=wait        # baseline comparison
//   ./bench/net_loadgen --connect=10.0.0.5:7878   # external server
//
// Exit status is non-zero if any sent request never got a response — the
// server promises every accepted submission completes, so CI can assert
// "zero lost" by exit code alone.
//
// Flags (all via bench::FlagSet):
//   --schedule=poisson|uniform|burst   arrival process        (poisson)
//   --rate=N           total requests/second                  (2000)
//   --seconds=S        run length                             (PDB_SECONDS)
//   --conns=N          client connections                     (2)
//   --hp-frac=F        fraction of requests in the HP class   (0.8)
//   --keys=N           preloaded keys                         (10000)
//   --value-size=B     value bytes                            (64)
//   --scan-span=N      keys per LP ScanSum                    (2000)
//   --timeout-us=T     per-request deadline, 0 = none         (0)
//   --burst-size=N     arrivals per burst (burst schedule)    (32)
//   --mode=open|closed open loop or closed loop               (open)
//   --pipeline=N       closed-loop window per connection      (1)
//   --batch=N          open loop only: coalesce N due arrivals into one
//                      protocol-v2 batch frame (one write syscall per N
//                      requests); prints per-batch syscall accounting  (1)
//   --hint-backoff=D   batched mode: hold the next batch while the last
//                      response's queue-depth hint is >= D; 0 disables (64)
//   --policy=preempt|wait|coop   in-process server policy     (preempt)
//   --shards=N         in-process event-loop shards           (1)
//   --workers=N        in-process worker threads              (PDB_WORKERS)
//   --port=P           in-process listen port                 (ephemeral)
//   --timeline-sample=N  in-process timeline echo sampling    (1)
//   --slo-hp-us=T --slo-lp-us=T  in-process SLO p99 targets   (0 = off)
//   --connect=H:P      use an external server instead
//   --replica=H:P      read-split mode (open loop only): GET/ScanSum go to
//                      the read-only replica at H:P, writes stay on the
//                      primary; results print primary vs replica rows
//                      side by side per class
//   --trace-out=F --metrics-json=F   obs artifacts (see ObsSession)
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "core/preemptdb.h"
#include "net/client.h"
#include "net/server.h"
#include "util/clock.h"
#include "util/histogram.h"

using namespace preemptdb;
using namespace preemptdb::bench;

namespace {

struct ClassStats {
  LatencyHistogram latency;
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> busy{0};
  std::atomic<uint64_t> timeout{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> other{0};

  void Count(net::WireStatus s) {
    responses.fetch_add(1, std::memory_order_relaxed);
    switch (s) {
      case net::WireStatus::kOk:
      case net::WireStatus::kNotFound:  // GET on a hole is a served request
        ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case net::WireStatus::kBusy:
        busy.fetch_add(1, std::memory_order_relaxed);
        break;
      case net::WireStatus::kTimeout:
        timeout.fetch_add(1, std::memory_order_relaxed);
        break;
      case net::WireStatus::kAborted:
        aborted.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        other.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
};

struct Config {
  std::string schedule = "poisson";
  double rate = 2000;
  double seconds = 2;
  int conns = 2;
  double hp_frac = 0.8;
  uint64_t keys = 10000;
  size_t value_size = 64;
  uint64_t scan_span = 2000;
  uint32_t timeout_us = 0;
  uint64_t burst_size = 32;
  std::string mode = "open";
  int pipeline = 1;
  int batch = 1;
  uint32_t hint_backoff = 64;
};

// Arrival-time generator for one connection's share of the schedule
// (absolute nanosecond stamps).
class Schedule {
 public:
  Schedule(const Config& cfg, double per_conn_rate, uint64_t start_ns,
           uint64_t seed)
      : cfg_(cfg), rng_(seed), next_ns_(start_ns) {
    interval_ns_ = static_cast<uint64_t>(1e9 / per_conn_rate);
    burst_gap_ns_ = static_cast<uint64_t>(
        static_cast<double>(cfg.burst_size) * 1e9 / per_conn_rate);
  }

  uint64_t NextArrival() {
    uint64_t t = next_ns_;
    if (cfg_.schedule == "uniform") {
      next_ns_ += interval_ns_;
    } else if (cfg_.schedule == "burst") {
      // `burst_size` back-to-back arrivals, then a gap restoring the average
      // rate — the bursty pattern where microsecond preemption should matter
      // most (queues build instantly, then must drain).
      if (++in_burst_ >= cfg_.burst_size) {
        in_burst_ = 0;
        next_ns_ += burst_gap_ns_;
      }
    } else {  // poisson: exponential inter-arrivals
      double u =
          (static_cast<double>(rng_.Next() >> 11) + 1.0) / 9007199254740993.0;
      next_ns_ += static_cast<uint64_t>(-std::log(u) *
                                        static_cast<double>(interval_ns_));
    }
    return t;
  }

 private:
  Config cfg_;
  FastRandom rng_;
  uint64_t next_ns_;
  uint64_t interval_ns_;
  uint64_t burst_gap_ns_;
  uint64_t in_burst_ = 0;
};

void SleepUntilNs(uint64_t t_ns) {
  for (;;) {
    uint64_t now = MonoNanos();
    if (now >= t_ns) return;
    uint64_t delta = t_ns - now;
    if (delta > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delta - 100'000));
    } else if (delta > 2'000) {
      std::this_thread::yield();
    } else {
      CpuPause();
    }
  }
}

net::RequestHeader MakeRequest(const Config& cfg, FastRandom& rng, bool hp,
                               std::string* payload_out) {
  net::RequestHeader h;
  h.prio_class = hp ? 1 : 0;
  h.timeout_us = cfg.timeout_us;
  if (hp) {
    // Short OLTP-style point op: mostly reads, some writes.
    if (rng.Next() % 10 == 0) {
      h.opcode = static_cast<uint8_t>(net::Op::kPut);
      h.params[0] = rng.UniformU64(1, cfg.keys);
      payload_out->assign(cfg.value_size, 'w');
    } else {
      h.opcode = static_cast<uint8_t>(net::Op::kGet);
      h.params[0] = rng.UniformU64(1, cfg.keys);
    }
  } else {
    h.opcode = static_cast<uint8_t>(net::Op::kScanSum);
    uint64_t span = std::min(cfg.scan_span, cfg.keys);
    uint64_t lo = rng.UniformU64(1, std::max<uint64_t>(1, cfg.keys - span));
    h.params[0] = lo;
    h.params[1] = lo + span;
  }
  return h;
}

// One pipelined socket + its bookkeeping. An open-loop connection is one
// channel to the primary and, in read-split mode (--replica), a second
// channel to the replica: one sender paces the schedule and routes each
// request (reads -> replica, writes -> primary), one receiver per channel
// drains responses. Each channel carries its own ClassStats, so primary and
// replica latency print side by side.
struct Channel {
  struct Pending {
    uint64_t sched_ns;
    bool hp;
  };

  net::Client client;
  std::mutex mu;
  std::unordered_map<uint64_t, Pending> pending;
  std::atomic<uint64_t> sent{0};
  std::atomic<bool> send_done{false};
  // Server flow-control: queue-depth hint from the most recent response
  // (protocol v2 stamps the shard's in-flight depth in a reserved byte).
  std::atomic<uint32_t> last_hint{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> backoffs{0};
  std::string error;
  ClassStats* hp_stats = nullptr;
  ClassStats* lp_stats = nullptr;

  // Registers (before Send: the response can beat Send's return) and sends.
  bool SendOne(const net::RequestHeader& h, const std::string& payload,
               uint64_t sched_ns, bool hp) {
    uint64_t id = 0;
    {
      std::lock_guard<std::mutex> g(mu);
      id = client.next_id();
      pending.emplace(id, Pending{sched_ns, hp});
    }
    std::string err;
    uint64_t sent_id = 0;
    if (!client.Send(h, payload, &err, &sent_id)) {
      std::lock_guard<std::mutex> g(mu);
      pending.erase(id);
      if (error.empty()) error = "send: " + err;
      return false;
    }
    PDB_CHECK(sent_id == id);
    (hp ? hp_stats : lp_stats)->sent.fetch_add(1, std::memory_order_relaxed);
    sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Batched send: all of `items` leave in ONE kReqFlagBatch envelope — one
  // write syscall for the lot. Client::SendBatch stamps ids in item order
  // starting at next_id(), so pending registration happens first under the
  // same lock (responses can beat SendBatch's return). On failure every
  // registered id is unwound. Consumes items/meta on success.
  bool SendBatchItems(std::vector<net::Client::BatchItem>* items,
                      std::vector<Pending>* meta) {
    uint64_t first_id = 0;
    {
      std::lock_guard<std::mutex> g(mu);
      first_id = client.next_id();
      for (size_t i = 0; i < items->size(); ++i) {
        pending.emplace(first_id + i, (*meta)[i]);
      }
    }
    std::string err;
    if (!client.SendBatch(items, &err)) {
      std::lock_guard<std::mutex> g(mu);
      for (size_t i = 0; i < items->size(); ++i) pending.erase(first_id + i);
      if (error.empty()) error = "batch send: " + err;
      return false;
    }
    for (const Pending& p : *meta) {
      (p.hp ? hp_stats : lp_stats)
          ->sent.fetch_add(1, std::memory_order_relaxed);
    }
    sent.fetch_add(items->size(), std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
    items->clear();
    meta->clear();
    return true;
  }

  void Receiver() {
    uint64_t received = 0;
    for (;;) {
      if (received >= sent.load(std::memory_order_acquire)) {
        if (send_done.load(std::memory_order_acquire) &&
            received >= sent.load(std::memory_order_acquire)) {
          return;  // every sent request got its response
        }
        // Caught up but the sender is still pacing: poll with a timeout so
        // we never block in read() across the "sender just finished, nothing
        // outstanding" edge (that would hang forever).
        struct pollfd p{};
        p.fd = client.fd();
        p.events = POLLIN;
        int pr = ::poll(&p, 1, 20);
        if (pr < 0 && errno != EINTR) {
          std::lock_guard<std::mutex> g(mu);
          if (error.empty()) error = "poll failed";
          return;
        }
        if (pr <= 0) continue;
      }
      net::Client::Result res;
      std::string err;
      if (!client.Recv(&res, &err)) {
        std::lock_guard<std::mutex> g(mu);
        if (error.empty()) error = "recv: " + err;
        return;
      }
      uint64_t done_ns = MonoNanos();
      Pending p{};
      {
        std::lock_guard<std::mutex> g(mu);
        auto it = pending.find(res.request_id);
        if (it == pending.end()) continue;  // duplicate/unknown id
        p = it->second;
        pending.erase(it);
      }
      ++received;
      last_hint.store(res.queue_hint, std::memory_order_relaxed);
      ClassStats* s = p.hp ? hp_stats : lp_stats;
      s->Count(res.status);
      // Open-loop latency: scheduled arrival -> response, so a late sender
      // and a deep server queue both count.
      if (done_ns > p.sched_ns) s->latency.RecordNanos(done_ns - p.sched_ns);
    }
  }
};

// Per-connection open-loop driver (Client supports the sender/receiver
// thread split: disjoint socket halves). `replica` is null without
// --replica; with it, GET and ScanSum ride the replica channel.
struct OpenLoopConn {
  Channel primary;
  std::unique_ptr<Channel> replica;

  void Sender(const Config& cfg, Schedule sched, uint64_t horizon_ns,
              uint64_t seed) {
    FastRandom rng(seed);
    std::string payload;
    if (cfg.batch > 1) {
      SenderBatched(cfg, sched, horizon_ns, seed);
      return;
    }
    for (;;) {
      uint64_t t = sched.NextArrival();
      if (t >= horizon_ns) break;
      SleepUntilNs(t);
      payload.clear();
      bool hp =
          (rng.Next() % 10000) < static_cast<uint64_t>(cfg.hp_frac * 10000);
      net::RequestHeader h = MakeRequest(cfg, rng, hp, &payload);
      bool is_read = h.opcode == static_cast<uint8_t>(net::Op::kGet) ||
                     h.opcode == static_cast<uint8_t>(net::Op::kScanSum);
      Channel* ch = (replica != nullptr && is_read) ? replica.get() : &primary;
      if (!ch->SendOne(h, payload, t, hp)) break;
    }
    primary.send_done.store(true, std::memory_order_release);
    if (replica != nullptr) {
      replica->send_done.store(true, std::memory_order_release);
    }
  }

  // Batched open loop: arrivals still follow the schedule, but frames
  // accumulate and leave `cfg.batch` at a time in one envelope — the first
  // arrival of a batch therefore pays up to (batch-1) inter-arrival gaps of
  // send-side delay, and that delay COUNTS (latency is measured from the
  // scheduled arrival, coordinated-omission style). Before each envelope the
  // sender honors the server's queue-depth hint: while the last response
  // advertised >= hint_backoff in-flight requests, it holds the batch and
  // lets the window drain instead of farming BUSY rejections.
  void SenderBatched(const Config& cfg, Schedule& sched, uint64_t horizon_ns,
                     uint64_t seed) {
    FastRandom rng(seed);
    std::string payload;
    std::vector<net::Client::BatchItem> items;
    std::vector<Channel::Pending> meta;
    auto flush = [&]() {
      if (items.empty()) return true;
      if (cfg.hint_backoff > 0) {
        // Hints refresh as responses drain; cap the hold at 100ms so a
        // stalled server cannot wedge the sender.
        uint64_t give_up = MonoNanos() + 100'000'000;
        while (primary.last_hint.load(std::memory_order_relaxed) >=
                   cfg.hint_backoff &&
               MonoNanos() < give_up) {
          primary.backoffs.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      return primary.SendBatchItems(&items, &meta);
    };
    for (;;) {
      uint64_t t = sched.NextArrival();
      if (t >= horizon_ns) break;
      SleepUntilNs(t);
      payload.clear();
      bool hp =
          (rng.Next() % 10000) < static_cast<uint64_t>(cfg.hp_frac * 10000);
      net::RequestHeader h = MakeRequest(cfg, rng, hp, &payload);
      items.push_back(net::Client::BatchItem{h, payload});
      meta.push_back(Channel::Pending{t, hp});
      if (items.size() >= static_cast<size_t>(cfg.batch) && !flush()) break;
    }
    flush();  // partial tail batch
    primary.send_done.store(true, std::memory_order_release);
  }
};

// Closed loop: one thread per connection keeps `pipeline` requests in
// flight; latency is send->response (the classic closed-loop metric).
void ClosedLoopConn(const Config& cfg, net::Client& client, uint64_t horizon_ns,
                    uint64_t seed, ClassStats* hp_stats, ClassStats* lp_stats,
                    std::string* error) {
  FastRandom rng(seed);
  std::unordered_map<uint64_t, std::pair<uint64_t, bool>> inflight;
  std::string payload, err;
  auto send_one = [&]() {
    payload.clear();
    bool hp =
        (rng.Next() % 10000) < static_cast<uint64_t>(cfg.hp_frac * 10000);
    net::RequestHeader h = MakeRequest(cfg, rng, hp, &payload);
    uint64_t id = 0;
    uint64_t t = MonoNanos();
    if (!client.Send(h, payload, &err, &id)) {
      *error = "send: " + err;
      return false;
    }
    inflight.emplace(id, std::make_pair(t, hp));
    (hp ? hp_stats : lp_stats)->sent.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  for (int i = 0; i < cfg.pipeline; ++i) {
    if (!send_one()) return;
  }
  while (!inflight.empty()) {
    net::Client::Result res;
    if (!client.Recv(&res, &err)) {
      *error = "recv: " + err;
      return;
    }
    uint64_t done = MonoNanos();
    auto it = inflight.find(res.request_id);
    if (it == inflight.end()) continue;
    auto [t0, hp] = it->second;
    inflight.erase(it);
    ClassStats* s = hp ? hp_stats : lp_stats;
    s->Count(res.status);
    s->latency.RecordNanos(done - t0);
    if (MonoNanos() < horizon_ns && !send_one()) return;
  }
}

sched::Policy ParsePolicy(const std::string& s) {
  if (s == "wait") return sched::Policy::kWait;
  if (s == "coop" || s == "cooperative") return sched::Policy::kCooperative;
  return sched::Policy::kPreempt;
}

void PrintClass(const char* name, const ClassStats& s, double seconds) {
  std::printf(
      "%-6s %9lu %9lu %8lu %6lu %6lu %6lu %9.0f %9.1f %9.1f %9.1f %9.1f\n",
      name, static_cast<unsigned long>(s.sent.load()),
      static_cast<unsigned long>(s.responses.load()),
      static_cast<unsigned long>(s.ok.load()),
      static_cast<unsigned long>(s.busy.load()),
      static_cast<unsigned long>(s.timeout.load()),
      static_cast<unsigned long>(s.aborted.load()),
      static_cast<double>(s.ok.load()) / seconds,
      s.latency.PercentileMicros(50), s.latency.PercentileMicros(90),
      s.latency.PercentileMicros(99), s.latency.PercentileMicros(99.9));
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  ObsSession obs(flags);
  BenchEnv env = BenchEnv::FromEnv();

  Config cfg;
  cfg.schedule = flags.Get("schedule", cfg.schedule);
  cfg.rate = flags.GetDouble("rate", cfg.rate);
  cfg.seconds = flags.GetDouble("seconds", env.seconds);
  cfg.conns = static_cast<int>(flags.GetInt("conns", cfg.conns));
  cfg.hp_frac = flags.GetDouble("hp-frac", cfg.hp_frac);
  cfg.keys = static_cast<uint64_t>(flags.GetInt("keys", 10000));
  cfg.value_size = static_cast<size_t>(flags.GetInt("value-size", 64));
  cfg.scan_span = static_cast<uint64_t>(flags.GetInt("scan-span", 2000));
  cfg.timeout_us = static_cast<uint32_t>(flags.GetInt("timeout-us", 0));
  cfg.burst_size = static_cast<uint64_t>(flags.GetInt("burst-size", 32));
  cfg.mode = flags.Get("mode", cfg.mode);
  cfg.pipeline = static_cast<int>(flags.GetInt("pipeline", 1));
  cfg.batch = static_cast<int>(flags.GetInt("batch", 1));
  cfg.hint_backoff =
      static_cast<uint32_t>(flags.GetInt("hint-backoff", 64));
  PDB_CHECK_MSG(cfg.conns > 0 && cfg.rate > 0, "need --conns>0 and --rate>0");
  PDB_CHECK_MSG(cfg.batch >= 1 &&
                    cfg.batch <= static_cast<int>(net::kMaxBatchCount),
                "--batch out of range [1, kMaxBatchCount]");
  PDB_CHECK_MSG(cfg.batch == 1 || cfg.mode == "open",
                "--batch needs --mode=open");

  // --- Target: in-process server (default) or an external one ---
  std::unique_ptr<DB> db;
  std::unique_ptr<net::Server> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string connect = flags.Get("connect");
  sched::Policy policy = ParsePolicy(flags.Get("policy", "preempt"));
  if (connect.empty()) {
    DB::Options dbo;
    dbo.scheduler.policy = policy;
    dbo.scheduler.num_workers =
        static_cast<int>(flags.GetInt("workers", env.workers));
    obs.Configure(dbo.scheduler);
    db = DB::Open(dbo);
    net::Server::Options so;
    so.port = static_cast<uint16_t>(flags.GetInt("port", 0));
    // Sharded front-end: with SO_REUSEPORT the kernel spreads the --conns
    // connections across the shard listeners, so each event loop carries
    // roughly conns/shards sockets with no generator-side routing.
    so.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 1));
    so.timeline_sample_every =
        static_cast<uint32_t>(flags.GetInt("timeline-sample", 1));
    so.slo.hp_target_us = static_cast<uint64_t>(flags.GetInt("slo-hp-us", 0));
    so.slo.lp_target_us = static_cast<uint64_t>(flags.GetInt("slo-lp-us", 0));
    server = std::make_unique<net::Server>(db.get(), so);
    std::string err;
    if (!server->Start(&err)) {
      std::fprintf(stderr, "server start failed: %s\n", err.c_str());
      return 1;
    }
    port = server->port();
    // Preload straight through the engine — faster than wire puts, and the
    // measured window is then steady state, not warmup.
    std::string value(cfg.value_size, 'v');
    auto* table = db->GetTable(so.kv_table);
    Rc rc = db->Execute([&](engine::Engine& eng) {
      return PreloadKv(eng, table, cfg.keys, value);
    });
    PDB_CHECK_MSG(IsOk(rc), "preload failed");
    std::fprintf(stderr,
                 "# in-process server on %s:%u (%s), %u shard(s)%s, %lu keys\n",
                 host.c_str(), port, sched::PolicyName(policy),
                 server->num_shards(),
                 server->handoff_mode() ? " [handoff]" : "",
                 static_cast<unsigned long>(cfg.keys));
  } else {
    size_t colon = connect.rfind(':');
    PDB_CHECK_MSG(colon != std::string::npos, "--connect wants host:port");
    host = connect.substr(0, colon);
    port = static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));
  }

  // Read-split mode: reads (GET / ScanSum) go to a read-only replica,
  // writes stay on the primary. Open-loop only — the split needs the
  // per-channel sender/receiver machinery.
  std::string replica_addr = flags.Get("replica");
  std::string replica_host;
  uint16_t replica_port = 0;
  if (!replica_addr.empty()) {
    PDB_CHECK_MSG(cfg.mode == "open", "--replica requires --mode=open");
    PDB_CHECK_MSG(cfg.batch == 1, "--replica and --batch are exclusive "
                  "(per-request read/write routing defeats a shared batch)");
    size_t colon = replica_addr.rfind(':');
    PDB_CHECK_MSG(colon != std::string::npos, "--replica wants host:port");
    replica_host = replica_addr.substr(0, colon);
    replica_port =
        static_cast<uint16_t>(std::atoi(replica_addr.c_str() + colon + 1));
  }

  ClassStats hp_stats, lp_stats;            // primary-channel classes
  ClassStats hp_rep_stats, lp_rep_stats;    // replica-channel classes
  double per_conn_rate = cfg.rate / cfg.conns;
  uint64_t start_ns = MonoNanos() + 10'000'000;  // 10ms to spin up threads
  uint64_t horizon_ns = start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);

  std::vector<std::unique_ptr<OpenLoopConn>> open_conns;
  std::vector<std::unique_ptr<net::Client>> closed_conns;
  std::vector<std::string> closed_errors(static_cast<size_t>(cfg.conns));
  std::vector<std::thread> threads;

  if (cfg.mode == "closed") {
    for (int i = 0; i < cfg.conns; ++i) {
      auto c = std::make_unique<net::Client>();
      std::string err;
      PDB_CHECK_MSG(c->Connect(host, port, &err), err.c_str());
      closed_conns.push_back(std::move(c));
    }
    for (int i = 0; i < cfg.conns; ++i) {
      threads.emplace_back([&, i] {
        ClosedLoopConn(cfg, *closed_conns[static_cast<size_t>(i)], horizon_ns,
                       0x9e3779b9ull + static_cast<uint64_t>(i), &hp_stats,
                       &lp_stats, &closed_errors[static_cast<size_t>(i)]);
      });
    }
  } else {
    for (int i = 0; i < cfg.conns; ++i) {
      auto conn = std::make_unique<OpenLoopConn>();
      conn->primary.hp_stats = &hp_stats;
      conn->primary.lp_stats = &lp_stats;
      std::string err;
      PDB_CHECK_MSG(conn->primary.client.Connect(host, port, &err),
                    err.c_str());
      if (!replica_addr.empty()) {
        conn->replica = std::make_unique<Channel>();
        conn->replica->hp_stats = &hp_rep_stats;
        conn->replica->lp_stats = &lp_rep_stats;
        PDB_CHECK_MSG(
            conn->replica->client.Connect(replica_host, replica_port, &err),
            err.c_str());
      }
      open_conns.push_back(std::move(conn));
    }
    for (int i = 0; i < cfg.conns; ++i) {
      OpenLoopConn* c = open_conns[static_cast<size_t>(i)].get();
      // Arrival schedule and op stream are both seeded from the connection
      // index, so the same flags replay the same per-connection traffic.
      Schedule sched(cfg, per_conn_rate, start_ns,
                     0x10adull + static_cast<uint64_t>(i) * 7919);
      const uint64_t op_seed = 0xfeedull + static_cast<uint64_t>(i) * 104729;
      threads.emplace_back([&, c, sched, op_seed] {
        c->Sender(cfg, sched, horizon_ns, op_seed);
      });
      threads.emplace_back([c] { c->primary.Receiver(); });
      if (c->replica != nullptr) {
        threads.emplace_back([c] { c->replica->Receiver(); });
      }
    }
  }
  for (auto& t : threads) t.join();

  uint64_t lost = 0;
  for (auto& c : open_conns) {
    for (Channel* ch : {&c->primary, c->replica.get()}) {
      if (ch == nullptr) continue;
      std::lock_guard<std::mutex> g(ch->mu);
      lost += ch->pending.size();
      if (!ch->error.empty()) {
        std::fprintf(stderr, "# conn error: %s\n", ch->error.c_str());
      }
    }
  }
  for (const std::string& e : closed_errors) {
    if (!e.empty()) std::fprintf(stderr, "# conn error: %s\n", e.c_str());
  }

  std::printf(
      "# net_loadgen: schedule=%s rate=%.0f/s conns=%d mode=%s hp_frac=%.2f "
      "policy=%s\n",
      cfg.schedule.c_str(), cfg.rate, cfg.conns, cfg.mode.c_str(), cfg.hp_frac,
      connect.empty() ? sched::PolicyName(policy) : "external");
  std::printf("%-6s %9s %9s %8s %6s %6s %6s %9s %9s %9s %9s %9s\n", "cls",
              "sent", "resp", "ok", "busy", "t/out", "abort", "ok/s",
              "p50(us)", "p90", "p99", "p99.9");
  if (replica_addr.empty()) {
    PrintClass("HP", hp_stats, cfg.seconds);
    PrintClass("LP", lp_stats, cfg.seconds);
  } else {
    // Read split: primary rows (writes + anything not split) next to the
    // replica rows (GET / ScanSum) for a direct staleness-vs-latency view.
    PrintClass("HP-pri", hp_stats, cfg.seconds);
    PrintClass("HP-rep", hp_rep_stats, cfg.seconds);
    PrintClass("LP-pri", lp_stats, cfg.seconds);
    PrintClass("LP-rep", lp_rep_stats, cfg.seconds);
  }
  std::printf("lost_responses=%lu\n", static_cast<unsigned long>(lost));

  if (cfg.batch > 1) {
    // Syscall accounting: every envelope is one write() where unbatched
    // sending would have issued one per request.
    uint64_t frames = 0, requests = 0, backoffs = 0;
    for (auto& c : open_conns) {
      frames += c->primary.batches.load();
      requests += c->primary.sent.load();
      backoffs += c->primary.backoffs.load();
    }
    std::printf(
        "batch=%d frames=%lu requests=%lu write_syscalls_saved=%lu "
        "reqs/frame=%.1f hint_backoff_waits=%lu\n",
        cfg.batch, static_cast<unsigned long>(frames),
        static_cast<unsigned long>(requests),
        static_cast<unsigned long>(requests - frames),
        frames > 0 ? static_cast<double>(requests) / frames : 0.0,
        static_cast<unsigned long>(backoffs));
  }

  if (obs.metrics()) {
    auto& snap = obs.snapshot();
    snap.SetMeta("schedule", cfg.schedule);
    snap.SetMeta("mode", cfg.mode);
    snap.SetMeta("policy",
                 connect.empty() ? sched::PolicyName(policy) : "external");
    snap.AddCounter("loadgen.hp_sent", hp_stats.sent.load());
    snap.AddCounter("loadgen.lp_sent", lp_stats.sent.load());
    snap.AddCounter("loadgen.hp_busy", hp_stats.busy.load());
    snap.AddCounter("loadgen.lp_busy", lp_stats.busy.load());
    snap.AddCounter("loadgen.hp_timeout", hp_stats.timeout.load());
    snap.AddCounter("loadgen.lp_timeout", lp_stats.timeout.load());
    snap.AddCounter("loadgen.lost_responses", lost);
    if (cfg.batch > 1) {
      uint64_t frames = 0, backoffs = 0;
      for (auto& c : open_conns) {
        frames += c->primary.batches.load();
        backoffs += c->primary.backoffs.load();
      }
      snap.AddCounter("loadgen.batch_frames", frames);
      snap.AddCounter("loadgen.hint_backoffs", backoffs);
    }
    snap.AddHistogramNanos("net.hp_latency", hp_stats.latency);
    snap.AddHistogramNanos("net.lp_latency", lp_stats.latency);
    if (!replica_addr.empty()) {
      snap.AddHistogramNanos("net.hp_replica_latency", hp_rep_stats.latency);
      snap.AddHistogramNanos("net.lp_replica_latency", lp_rep_stats.latency);
    }
    snap.AddTxnType("net_hp", hp_stats.ok.load(),
                    hp_stats.aborted.load() + hp_stats.busy.load() +
                        hp_stats.timeout.load(),
                    0, hp_stats.ok.load() / cfg.seconds, hp_stats.latency);
    snap.AddTxnType("net_lp", lp_stats.ok.load(),
                    lp_stats.aborted.load() + lp_stats.busy.load() +
                        lp_stats.timeout.load(),
                    0, lp_stats.ok.load() / cfg.seconds, lp_stats.latency);
  }

  if (server != nullptr) {
    // Per-shard balance report: with REUSEPORT expect conns and replies to
    // spread across shards; replies/wakes > 1 shows wake coalescing working.
    for (uint32_t i = 0; i < server->num_shards(); ++i) {
      const net::ShardStats& ss = server->shard_stats(i);
      std::fprintf(stderr,
                   "# shard%u: conns=%lu admitted=%lu replies=%lu "
                   "wakes=%lu batches=%lu handoffs=%lu\n",
                   i, static_cast<unsigned long>(ss.conns_accepted.Value()),
                   static_cast<unsigned long>(ss.admitted.Value()),
                   static_cast<unsigned long>(ss.replies.Value()),
                   static_cast<unsigned long>(ss.eventfd_wakes.Value()),
                   static_cast<unsigned long>(ss.completion_batches.Value()),
                   static_cast<unsigned long>(ss.accept_handoffs.Value()));
    }
  }

  if (server != nullptr) server->Stop();
  // Non-zero exit when responses were lost: the acceptance criterion is
  // "zero lost accepted submissions", checkable from CI by exit code.
  return lost == 0 ? 0 : 2;
}
