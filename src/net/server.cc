#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "net/shard.h"
#include "obs/json.h"
#include "repl/shipper.h"
#include "obs/trace_export.h"
#include "sched/scheduler.h"
#include "util/clock.h"
#include "util/slice.h"

namespace preemptdb::net {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

Server::Server(DB* db, Options options) : db_(db), opts_(std::move(options)) {
  if (opts_.max_payload > kMaxPayload) opts_.max_payload = kMaxPayload;
  if (opts_.num_shards < 1) opts_.num_shards = 1;
  if (opts_.num_shards > kMaxShards) opts_.num_shards = kMaxShards;
}

Server::~Server() { Stop(); }

uint32_t Server::num_shards() const { return opts_.num_shards; }

int Server::OpenListener(bool reuseport, uint16_t port, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  };
  if (fd < 0) return fail("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    // No REUSEPORT on this kernel: surface the failure so the caller can
    // degrade to handoff mode instead of binding a listener that will not
    // share the port.
    return fail("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + opts_.host + ")");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(fd, opts_.backlog) < 0) return fail("listen");
  return fd;
}

bool Server::Start(std::string* err) {
  PDB_CHECK_MSG(!running(), "Server::Start called twice");

  if (!opts_.handler) {
    kv_table_ = db_->GetTable(opts_.kv_table);
    // A follower must NOT create the table: on a replica every table comes
    // off the replicated stream (a local create would append a DDL frame
    // and diverge the follower's log offsets from the primary's). The KV
    // dispatch resolves it lazily once replication delivers it.
    if (kv_table_ == nullptr && !opts_.read_only) {
      kv_table_ = db_->CreateTable(opts_.kv_table);
    }
  }

  const uint32_t n = opts_.num_shards;
  bool want_reuseport = n > 1 && opts_.reuseport;
  handoff_mode_ = n > 1 && !want_reuseport;

  // Shard 0 binds first — with an ephemeral port request this resolves the
  // real port the remaining listeners must share.
  std::vector<int> listeners(n, -1);
  listeners[0] = OpenListener(want_reuseport, opts_.port, err);
  if (listeners[0] < 0 && want_reuseport) {
    // Kernel without SO_REUSEPORT: retry plain and hand connections off.
    handoff_mode_ = true;
    want_reuseport = false;
    listeners[0] = OpenListener(false, opts_.port, err);
  }
  if (listeners[0] < 0) return false;

  sockaddr_in addr{};
  socklen_t alen = sizeof(addr);
  if (::getsockname(listeners[0], reinterpret_cast<sockaddr*>(&addr), &alen) <
      0) {
    if (err != nullptr) {
      *err = std::string("getsockname: ") + std::strerror(errno);
    }
    ::close(listeners[0]);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  if (want_reuseport) {
    for (uint32_t i = 1; i < n; ++i) {
      std::string lerr;
      listeners[i] = OpenListener(true, port_, &lerr);
      if (listeners[i] < 0) {
        // Mid-flight refusal (policy, namespace quirks): degrade to the
        // handoff path rather than failing Start — shard 0 keeps the only
        // listener and routes by fd hash.
        for (uint32_t j = 1; j < i; ++j) {
          ::close(listeners[j]);
          listeners[j] = -1;
        }
        handoff_mode_ = true;
        break;
      }
    }
  }

  shards_.clear();
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<NetShard>(this, i));
    shards_[i]->SetListener(listeners[i]);
  }
  for (auto& s : shards_) {
    if (!s->Init(err)) {
      for (auto& t : shards_) t->TearDown();
      shards_.clear();
      return false;
    }
  }

  // Per-shard gauges: the pull-side view of ShardStats, sampled by the
  // metrics exporter. Registered before the loops start, cleared in Stop()
  // before the shards are torn down.
  for (uint32_t i = 0; i < n; ++i) {
    const ShardStats* s = &shards_[i]->stats();
    const std::string p = "net.shard" + std::to_string(i) + ".";
    auto gauge = [](const auto* c) {
      return [c] { return static_cast<double>(ShardStats::Read(*c)); };
    };
    shard_gauges_.Add(p + "conns", gauge(&s->open_conns));
    shard_gauges_.Add(p + "admitted", gauge(&s->admitted));
    shard_gauges_.Add(p + "replies", gauge(&s->replies));
    shard_gauges_.Add(p + "eventfd_wakes", gauge(&s->eventfd_wakes));
    shard_gauges_.Add(p + "completions", gauge(&s->completions));
  }

  // Durable-frontier gauge + log shipper. Both need a durable engine; a
  // non-durable primary has no log to ship, so enable_repl degrades to off.
  engine::Engine& eng = db_->engine();
  if (eng.durable()) {
    const engine::LogManager* lm = &eng.log_manager();
    shard_gauges_.Add("engine.durable_seq", [lm] {
      return static_cast<double>(lm->durable_seq());
    });
    if (opts_.enable_repl) {
      repl::Shipper::Options sopts;
      sopts.max_bytes_per_sec = opts_.repl_max_bytes_per_sec;
      shipper_ = std::make_unique<repl::Shipper>(&eng, sopts);
    }
  }

  // The controller's sensor is the SLO watchdog; an enabled controller with
  // no explicit SLO targets mirrors its own targets in so the percentile
  // trackers exist.
  if (opts_.controller.enabled() && !opts_.slo.enabled()) {
    opts_.slo.hp_target_us = opts_.controller.hp_target_us;
    opts_.slo.lp_target_us = opts_.controller.lp_target_us;
  }
  if (opts_.slo.enabled()) {
    slo_watchdog_ = std::make_unique<obs::SloWatchdog>(opts_.slo);
    slo_watchdog_->Start();
  }
  if (opts_.controller.enabled()) {
    sched::ControllerSignals sig;
    obs::SloWatchdog* sw = slo_watchdog_.get();
    sig.hp_p99_ns = [sw] { return sw->hp_measured_ns(); };
    sig.lp_p99_ns = [sw] { return sw->lp_measured_ns(); };
    sig.lp_breached = [sw] { return sw->lp_breached(); };
    sched::Scheduler* sch = &db_->scheduler();
    sig.degraded_workers = [sch] { return sch->degraded_workers(); };
    controller_ = std::make_unique<sched::Controller>(
        opts_.controller, &db_->scheduler().tunables(), std::move(sig));
    controller_->Start();
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& s : shards_) s->StartThread();
  return true;
}

void Server::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Phase 1: reject new admissions (in-flight frames get SHUTTING_DOWN),
  // then wait for every already-admitted submission to complete so the
  // completion callbacks have fired and sit in the shard rings.
  stopping_.store(true, std::memory_order_release);
  db_->Drain();
  // Phase 2: let every loop drain its ring and flush the queued responses
  // before teardown. Bounded: a wedged peer must not hang Stop() forever.
  for (int i = 0; i < 40; ++i) {
    bool all_quiesced = true;
    for (auto& s : shards_) {
      s->Wake();
      if (!s->Quiesced()) all_quiesced = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (all_quiesced) break;  // the sleep above gave the wire flush a tick
  }
  running_.store(false, std::memory_order_release);
  for (auto& s : shards_) s->Wake();
  for (auto& s : shards_) s->JoinThread();
  // Loops are gone: drop the gauges (they read shard memory), then tear the
  // shards down from this thread. The NetShard objects stay alive so
  // post-Stop counter reads keep working.
  shard_gauges_.Clear();
  for (auto& s : shards_) s->TearDown();
  // Shards are joined: no new followers can arrive, so the shipper's
  // session threads can be stopped without racing AddFollower.
  if (shipper_ != nullptr) {
    shipper_->Stop();
    shipper_.reset();
  }
  // Controller before watchdog: it reads the watchdog's percentiles.
  if (controller_ != nullptr) {
    controller_->Stop();
    controller_.reset();
  }
  if (slo_watchdog_ != nullptr) {
    slo_watchdog_->Stop();
    slo_watchdog_.reset();
  }
}

void Server::RecordSlo(bool high_priority, uint64_t latency_ns) {
  if (slo_watchdog_ != nullptr) {
    slo_watchdog_->Record(high_priority, latency_ns, MonoNanos());
  }
}

std::string Server::BuildMetricsJson() const {
  obs::MetricsSnapshot snap;
  snap.SetMeta("source", "preemptdb-server");
  snap.SetMeta("port", std::to_string(port_));
  snap.CaptureRegistry();
  db_->metrics().AppendTo(snap, nullptr, 0, /*seconds=*/0.0, "net.");
  return snap.ToJson();
}

std::string Server::BuildHealthJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("running").Bool(running_.load(std::memory_order_acquire));
  w.Key("stopping").Bool(stopping_.load(std::memory_order_acquire));
  w.Key("handoff_mode").Bool(handoff_mode_);
  w.Key("port").Uint(port_);

  w.Key("shards").BeginArray();
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    const ShardStats& s = shard_stats(i);
    w.BeginObject();
    w.Key("id").Uint(i);
    w.Key("open_conns").Uint(s.open_conns.load());
    w.Key("requests").Uint(s.requests.Value());
    w.Key("admitted").Uint(s.admitted.Value());
    w.Key("busy").Uint(s.busy.Value());
    w.Key("bad_requests").Uint(s.bad_requests.Value());
    w.Key("replies").Uint(s.replies.Value());
    w.Key("responses_dropped").Uint(s.responses_dropped.Value());
    w.Key("timeouts").Uint(s.timeouts.Value());
    w.Key("completions_pushed").Uint(s.completions_pushed.load());
    w.Key("completions").Uint(s.completions.load());
    w.EndObject();
  }
  w.EndArray();

  sched::Scheduler& sch = db_->scheduler();
  w.Key("scheduler").BeginObject();
  w.Key("uipis_sent").Uint(sch.uipis_sent());
  w.Key("hp_admitted").Uint(sch.hp_admitted());
  w.Key("hp_dropped").Uint(sch.hp_dropped());
  w.Key("expired").Uint(sch.expired());
  w.Key("demotions").Uint(sch.demotions());
  w.Key("promotions").Uint(sch.promotions());
  w.Key("workers").BeginArray();
  for (int i = 0; i < sch.num_workers(); ++i) {
    sched::Worker& wk = sch.worker(i);
    w.BeginObject();
    w.Key("id").Uint(static_cast<uint64_t>(i));
    w.Key("hp_depth").Uint(wk.HpDepth());
    w.Key("lp_depth").Uint(wk.LpDepth());
    w.Key("starvation").Double(wk.StarvationLevel());
    w.Key("degraded").Bool(wk.degraded());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (slo_watchdog_ != nullptr) {
    const obs::SloWatchdog& sw = *slo_watchdog_;
    w.Key("slo").BeginObject();
    w.Key("hp_breached").Bool(sw.hp_breached());
    w.Key("lp_breached").Bool(sw.lp_breached());
    w.Key("hp_violations").Uint(sw.hp_violations());
    w.Key("lp_violations").Uint(sw.lp_violations());
    w.Key("hp_measured_us").Uint(sw.hp_measured_ns() / 1000);
    w.Key("lp_measured_us").Uint(sw.lp_measured_ns() / 1000);
    w.Key("evaluations").Uint(sw.evaluations());
    w.EndObject();
  }

  // Durability plane: what an operator needs to answer "how much could a
  // crash right now lose?" — the durable commit frontier and checkpoint age.
  engine::Engine& eng = db_->engine();
  w.Key("durability").BeginObject();
  w.Key("enabled").Bool(eng.durable());
  if (eng.durable()) {
    const engine::LogManager& lm = eng.log_manager();
    w.Key("last_durable_seq").Uint(lm.durable_seq());
    w.Key("log_appended_bytes").Uint(lm.appended_bytes());
    w.Key("log_segments").Uint(lm.segments());
    w.Key("log_fsyncs").Uint(lm.fsyncs());
    w.Key("log_torn_bytes").Uint(lm.torn_bytes());
    w.Key("log_poisoned").Bool(lm.poisoned());
    const engine::Checkpointer* ck = eng.checkpointer();
    w.Key("last_ckpt_seq").Uint(ck->last_seq());
    w.Key("last_ckpt_ts").Uint(ck->last_ts());
    uint64_t age = ck->AgeMs();
    // UINT64_MAX = none completed this process; report -1-as-absent style 0
    // flag instead of a nonsense number.
    w.Key("ckpt_age_ms").Uint(age == UINT64_MAX ? 0 : age);
    w.Key("ckpt_completed").Uint(ck->completed());
    w.Key("ckpt_failures").Uint(ck->failures());
  }
  w.EndObject();

  // Replication plane: role, per-follower ship/apply frontiers, lag.
  w.Key("repl").BeginObject();
  w.Key("role").String(shipper_ != nullptr ? "primary"
                       : opts_.read_only   ? "follower"
                                           : "none");
  if (shipper_ != nullptr) {
    w.Key("sessions_started").Uint(shipper_->sessions_started());
    w.Key("max_lag_bytes").Uint(shipper_->max_lag_bytes());
    w.Key("followers").BeginArray();
    for (const repl::Shipper::FollowerView& f : shipper_->Followers()) {
      w.BeginObject();
      w.Key("slot").Uint(f.slot);
      w.Key("connected").Bool(f.connected);
      w.Key("shipped_bytes").Uint(f.shipped_bytes);
      w.Key("acked_bytes").Uint(f.acked_bytes);
      w.Key("applied_seq").Uint(f.applied_seq);
      w.Key("lag_bytes").Uint(f.lag_bytes);
      w.EndObject();
    }
    w.EndArray();
  }
  if (opts_.read_only) {
    w.Key("primary").String(opts_.primary_hint);
    w.Key("applied_ts").Uint(eng.ReadTs());
    if (eng.durable()) {
      w.Key("durable_seq").Uint(eng.log_manager().durable_seq());
    }
  }
  w.EndObject();

  // Tunable-config summary (full document on the kGetConfig plane).
  w.Key("config");
  sch.tunables().ToJson(w);
  if (controller_ != nullptr) {
    const sched::Controller& c = *controller_;
    w.Key("ctl").BeginObject();
    w.Key("evals").Uint(c.evals());
    w.Key("retunes").Uint(c.retunes());
    w.Key("holds").Uint(c.holds());
    w.Key("last_action").String(c.last_action());
    w.Key("last_retune_ns").Uint(c.last_retune_ns());
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

std::string Server::BuildConfigJson() const {
  sched::Scheduler& sch = db_->scheduler();
  const sched::SchedulerConfig& cfg = sch.config();
  obs::JsonWriter w;
  w.BeginObject();
  // Structural (immutable) fields first: a consumer diffing two snapshots
  // can tell a restart from a retune.
  w.Key("structural").BeginObject();
  w.Key("policy").String(sched::PolicyName(cfg.policy));
  w.Key("num_workers").Int(cfg.num_workers);
  w.Key("lp_queue_capacity").Uint(cfg.lp_queue_capacity);
  w.Key("hp_queue_capacity").Uint(cfg.hp_queue_capacity);
  w.Key("arrival_interval_us").Uint(cfg.arrival_interval_us);
  w.Key("enable_degradation").Bool(cfg.enable_degradation);
  w.EndObject();
  w.Key("config");
  sch.tunables().ToJson(w);
  w.Key("controller").BeginObject();
  w.Key("enabled").Bool(controller_ != nullptr);
  if (controller_ != nullptr) {
    const sched::Controller& c = *controller_;
    w.Key("hp_target_us").Uint(c.config().hp_target_us);
    w.Key("lp_target_us").Uint(c.config().lp_target_us);
    w.Key("period_ms").Uint(c.config().period_ms);
    w.Key("evals").Uint(c.evals());
    w.Key("retunes").Uint(c.retunes());
    w.Key("holds").Uint(c.holds());
    w.Key("last_action").String(c.last_action());
    w.Key("last_retune_ns").Uint(c.last_retune_ns());
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool Server::ApplyConfigJson(std::string_view json, std::string* err) {
  sched::TunableConfig::ChangeSet cs;
  if (!sched::TunableConfig::ChangeSetFromJson(json, &cs, err)) return false;
  return db_->scheduler().tunables().Apply(cs, err);
}

std::string Server::BuildTraceJson(size_t max_bytes) const {
  // Exporting marks every ring consumed, so back-to-back snapshots return
  // disjoint event sets (and wrap-overwrites of unconsumed events count into
  // trace.dropped_events).
  obs::TraceExporter exporter;
  std::string json = exporter.ChromeTraceJson();
  if (json.size() > max_bytes) {
    // Too big for one response frame: degrade to a well-formed stub rather
    // than a truncated (unparseable) document. The file-based exporter has
    // no such cap; this only bounds the wire path.
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("traceEvents").BeginArray().EndArray();
    w.Key("truncated").Bool(true);
    w.Key("full_size_bytes").Uint(json.size());
    w.EndObject();
    return w.str();
  }
  return json;
}

const ShardStats& Server::shard_stats(uint32_t i) const {
  PDB_CHECK(i < shards_.size());
  return shards_[i]->stats();
}

Rc Server::Dispatch(engine::Engine& eng, const RequestHeader& req,
                    const std::string& payload, std::string* reply) {
  return opts_.handler ? opts_.handler(eng, req, payload, reply)
                       : DefaultKvHandler(eng, req, payload, reply);
}

Rc Server::DefaultKvHandler(engine::Engine& eng, const RequestHeader& req,
                            const std::string& payload, std::string* reply) {
  if (static_cast<Op>(req.opcode) == Op::kPing) {
    return Rc::kOk;  // liveness probe: no transaction at all
  }
  // On a follower the table materializes when replication delivers its DDL
  // frame; resolve per-request (local, unsynchronized — the member cache is
  // only written on Start()) until it exists.
  engine::Table* kv = kv_table_;
  if (kv == nullptr) {
    kv = eng.GetTable(opts_.kv_table);
    if (kv == nullptr) return Rc::kNotFound;
  }
  switch (static_cast<Op>(req.opcode)) {
    case Op::kPing:
      return Rc::kOk;  // handled above
    case Op::kGet: {
      auto* txn = eng.Begin();
      Slice s;
      Rc r = txn->Read(kv, req.params[0], &s);
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      reply->assign(s.data, s.size);
      return txn->Commit();
    }
    case Op::kPut: {
      auto* txn = eng.Begin();
      Rc r = txn->Update(kv, req.params[0], payload);
      if (r == Rc::kNotFound) {
        r = txn->Insert(kv, req.params[0], payload);
      }
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      return txn->Commit();
    }
    case Op::kDelete: {
      auto* txn = eng.Begin();
      Rc r = txn->Delete(kv, req.params[0]);
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      return txn->Commit();
    }
    case Op::kScanSum: {
      // The long-running analytics op: scans [lo, hi] summing payload bytes
      // — the wire-level Q2 analog net_loadgen uses as its LP stream.
      auto* txn = eng.Begin();
      uint64_t count = 0, bytes = 0;
      Rc r = txn->Scan(kv, req.params[0], req.params[1],
                       [&](index::Key, Slice v) {
                         ++count;
                         bytes += v.size;
                         return true;
                       });
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      r = txn->Commit();
      if (!IsOk(r)) return r;
      reply->clear();
      AppendU64(reply, count);
      AppendU64(reply, bytes);
      return Rc::kOk;
    }
    // The admin and replication planes are answered off the transaction
    // path; admission never submits them (or an unknown opcode) here.
    case Op::kMetrics:
    case Op::kHealth:
    case Op::kTraceSnapshot:
    case Op::kGetConfig:
    case Op::kSetConfig:
    case Op::kReplSubscribe:
    case Op::kReplSnapshot:
    case Op::kReplAppend:
    case Op::kReplAck:
    default:
      return Rc::kError;
  }
}

}  // namespace preemptdb::net
