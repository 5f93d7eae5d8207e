// Load generator and direct-call probe for the wire benchmark (run.py).
//
//   wire_driver drive  --port=P --out=DIR [workload flags]
//       Drives a running pdb_server over the wire: warm-up, one untraced
//       window and, with --traced, a second window whose requests ask the
//       server to echo their TxnTimeline. Every response is validated.
//       Writes DIR/requests.csv (one row per request), DIR/puts.txt (every
//       PUT, for the restart check), DIR/metrics_<i>.json (kMetrics
//       snapshots at the window boundaries) and prints one JSON summary.
//   wire_driver verify --port=P --puts=FILE --value-size=B
//       After a restart on the same log dir: every key with an acked PUT
//       must read back a value the benchmark wrote to that key.
//   wire_driver direct --keys=N --span=N --value-size=B [--log-dir=D]
//       Times DB::Execute Get/ScanSum/Put inline on a DB loaded the way the
//       server loads it (or recovered from D), plus uintr delivery and the
//       context round trip. Prints one JSON object of raw samples.
//
// The op stream of connection c is a pure function of (seed, workload, c);
// the open-loop arrival schedule is too, so one seed gives the same
// per-class sent counts on every run.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/common.h"
#include "core/preemptdb.h"
#include "net/client.h"
#include "uintr/uintr.h"
#include "util/clock.h"
#include "util/random.h"

using namespace preemptdb;

namespace {

enum Phase : uint8_t { kWarmup = 0, kPlain = 1, kTraced = 2 };

struct Workload {
  std::string name;
  bool open = true;
  double rate = 2000;  // open loop: requests/s over all connections
  int conns = 2;
  int depth = 4;  // closed loop: outstanding requests per connection
  double hp_frac = 0.8;
  double put_frac = 0.1;  // share of HP ops that are PUTs
  uint64_t keys = 10000;
  uint64_t span = 2000;
  size_t value_size = 64;
  uint64_t seed = 1;
  double warmup_s = 1;
  double seconds = 10;
  bool traced = false;
  std::string log_dir;  // redo.log size is sampled at window boundaries
};

// One request and its outcome. recv_ns == 0 means no response arrived.
struct Rec {
  uint64_t key = 0;  // GET/PUT key, ScanSum lo
  uint64_t sched_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  uint64_t server_ns = 0;
  net::TimelineWire tl;
  uint8_t op = 0;
  uint8_t hp = 0;
  uint8_t phase = 0;
  uint8_t status = 0;
  uint8_t valid = 0;
  uint8_t has_tl = 0;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

uint64_t StreamSeed(const Workload& w, int conn, uint64_t stream) {
  return (w.seed * 0x9e3779b97f4a7c15ull) ^ Fnv1a(w.name) ^
         ((static_cast<uint64_t>(conn) + 1) * 0xbf58476d1ce4e5b9ull) ^
         (stream * 0x94d049bb133111ebull);
}

// A PUT value names its key and origin, so a read-back proves which write
// it came from. Preloaded rows hold value_size 'v' bytes.
std::string PutValue(uint64_t key, int conn, uint64_t idx, size_t size) {
  char buf[64];
  int n = std::snprintf(buf, sizeof(buf), "k%llu c%d i%llu;",
                        static_cast<unsigned long long>(key), conn,
                        static_cast<unsigned long long>(idx));
  std::string v(buf, static_cast<size_t>(n));
  v.resize(size, '.');
  return v;
}

bool ParseValue(const std::string& v, uint64_t* key, int* conn,
                uint64_t* idx) {
  unsigned long long k = 0, i = 0;
  int c = 0;
  if (std::sscanf(v.c_str(), "k%llu c%d i%llu;", &k, &c, &i) != 3) {
    return false;
  }
  *key = k;
  *conn = c;
  *idx = i;
  return true;
}

// Per-connection op stream. PUT keys walk a seeded permutation of the
// connection's key partition (key % conns == conn), so no two PUTs in flight
// ever share a key: a write-write conflict would abort one of them.
class OpStream {
 public:
  OpStream(const Workload& w, int conn)
      : w_(w), conn_(conn), rng_(StreamSeed(w, conn, 1)) {
    part_ = (w.keys - static_cast<uint64_t>(conn) +
             static_cast<uint64_t>(w.conns) - 1) /
            static_cast<uint64_t>(w.conns);
    mult_ = rng_.UniformU64(1, part_) | 1;
    while (std::gcd(mult_, part_) != 1) mult_ += 2;
    off_ = rng_.UniformU64(0, part_ - 1);
  }

  void Next(Rec* r) {
    r->hp = rng_.NextDouble() < w_.hp_frac;
    if (r->hp) {
      bool put = rng_.NextDouble() < w_.put_frac;
      r->op = static_cast<uint8_t>(put ? net::Op::kPut : net::Op::kGet);
      if (put) {
        uint64_t p = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(mult_) * puts_++ + off_) % part_);
        r->key = 1 + static_cast<uint64_t>(conn_) +
                 p * static_cast<uint64_t>(w_.conns);
      } else {
        r->key = rng_.UniformU64(1, w_.keys);
      }
    } else {
      r->op = static_cast<uint8_t>(net::Op::kScanSum);
      r->key = rng_.UniformU64(1, w_.keys - w_.span + 1);
    }
  }

 private:
  const Workload& w_;
  int conn_;
  FastRandom rng_;
  uint64_t part_ = 1, mult_ = 1, off_ = 0, puts_ = 0;
};

struct Request {
  net::RequestHeader hdr;
  std::string payload;
};

Request BuildRequest(const Workload& w, const Rec& r, int conn, uint64_t idx) {
  Request q;
  q.hdr.opcode = r.op;
  q.hdr.prio_class = r.hp;
  q.hdr.flags = r.phase == kTraced ? net::kReqFlagWantTimeline : 0;
  q.hdr.params[0] = r.key;
  if (r.op == static_cast<uint8_t>(net::Op::kScanSum)) {
    q.hdr.params[1] = r.key + w.span - 1;  // inclusive: span keys
  } else if (r.op == static_cast<uint8_t>(net::Op::kPut)) {
    q.payload = PutValue(r.key, conn, idx, w.value_size);
  }
  return q;
}

uint64_t LoadU64(const std::string& s, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, s.data() + off, sizeof(v));
  return v;
}

// The response check: GET returns value_size bytes (a preload value or a
// value written to that key), PUT is ok, ScanSum's {count, bytes} equals
// span x value_size.
bool Validate(const Workload& w, const Rec& r,
              const net::Client::Result& res) {
  if (res.status != net::WireStatus::kOk) return false;
  switch (static_cast<net::Op>(r.op)) {
    case net::Op::kGet: {
      if (res.payload.size() != w.value_size) return false;
      if (res.payload == std::string(w.value_size, 'v')) return true;
      uint64_t key = 0, idx = 0;
      int c = 0;
      return ParseValue(res.payload, &key, &c, &idx) && key == r.key;
    }
    case net::Op::kPut:
      return true;
    case net::Op::kScanSum:
      return res.payload.size() == 16 && LoadU64(res.payload, 0) == w.span &&
             LoadU64(res.payload, 8) == w.span * w.value_size;
    default:
      return false;
  }
}

void Complete(const Workload& w, Rec* r, const net::Client::Result& res,
              uint64_t now) {
  r->recv_ns = now;
  r->server_ns = res.server_ns;
  r->status = static_cast<uint8_t>(res.status);
  r->valid = Validate(w, *r, res);
  r->has_tl = res.has_timeline;
  if (res.has_timeline) r->tl = res.timeline;
}

// Waits up to `timeout_ms` for the socket to become readable.
bool Readable(int fd, int timeout_ms) {
  struct pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  return ::poll(&p, 1, timeout_ms) > 0;
}

uint64_t Ns(double seconds) { return static_cast<uint64_t>(seconds * 1e9); }

constexpr uint64_t kDrainTimeoutNs = 10'000'000'000ull;

struct Conn {
  int id = 0;
  net::Client client;
  std::vector<Rec> recs;  // open loop: the whole plan; closed loop: grows
  size_t next_send = 0;   // open loop: first unsent request
  uint64_t outstanding = 0;
  std::unique_ptr<OpStream> ops;  // closed loop
};

class Driver {
 public:
  explicit Driver(const Workload& w) : w_(w) {}

  // Phase boundaries relative to t0: warm-up end, window ends.
  std::vector<double> Boundaries() const {
    std::vector<double> b = {w_.warmup_s, w_.warmup_s + w_.seconds};
    if (w_.traced) b.push_back(w_.warmup_s + 2 * w_.seconds);
    return b;
  }

  uint8_t PhaseAt(uint64_t rel_ns) const {
    double t = static_cast<double>(rel_ns) / 1e9;
    if (t < w_.warmup_s) return kWarmup;
    return t < w_.warmup_s + w_.seconds ? kPlain : kTraced;
  }

  // Open loop: the whole per-connection Poisson schedule is drawn up front.
  void PlanOpen(Conn* c) {
    FastRandom arrivals(StreamSeed(w_, c->id, 2));
    OpStream ops(w_, c->id);
    double mean_gap_ns = 1e9 * w_.conns / w_.rate;
    double horizon = static_cast<double>(Ns(Boundaries().back()));
    double t = 0;
    for (;;) {
      double u = (static_cast<double>(arrivals.Next() >> 11) + 1.0) /
                 9007199254740993.0;
      t += -std::log(u) * mean_gap_ns;
      if (t >= horizon) break;
      Rec r;
      r.sched_ns = static_cast<uint64_t>(t);  // relative until Run()
      r.phase = PhaseAt(r.sched_ns);
      ops.Next(&r);
      c->recs.push_back(r);
    }
  }

  bool Send(Conn* c, size_t idx, std::string* err) {
    Rec& r = c->recs[idx];
    Request q = BuildRequest(w_, r, c->id, idx);
    r.send_ns = MonoNanos();
    if (!c->client.Send(q.hdr, q.payload, err)) return false;
    ++c->outstanding;
    return true;
  }

  // Closed loop: latency counts from the send.
  bool SendNext(Conn* c, std::string* err) {
    Rec r;
    c->ops->Next(&r);
    r.sched_ns = MonoNanos();
    r.phase = PhaseAt(r.sched_ns - t0_);
    c->recs.push_back(r);
    return Send(c, c->recs.size() - 1, err);
  }

  bool Receive(Conn* c, std::string* err) {
    net::Client::Result res;
    if (!c->client.Recv(&res, err)) return false;
    uint64_t now = MonoNanos();
    uint64_t idx = res.request_id - 1;  // ids count from 1 per client
    if (idx < c->recs.size() && c->recs[idx].send_ns != 0 &&
        c->recs[idx].recv_ns == 0) {
      Complete(w_, &c->recs[idx], res, now);
      --c->outstanding;
    }
    return true;
  }

  // Counter snapshot at a phase boundary, so every delta covers one
  // measured window and nothing of the warm-up.
  void Snapshot(net::Client& admin, const std::string& out, size_t i) {
    net::Client::Result res;
    std::string err;
    if (!admin.Admin(net::Op::kMetrics, &res, &err)) {
      error_ = "kMetrics: " + err;
    }
    std::ofstream(out + "/metrics_" + std::to_string(i) + ".json")
        << res.payload;
    struct stat st{};
    uint64_t redo = 0;
    if (!w_.log_dir.empty() &&
        ::stat((w_.log_dir + "/redo.log").c_str(), &st) == 0) {
      redo = static_cast<uint64_t>(st.st_size);
    }
    redo_sizes_.push_back(redo);
  }

  // One thread drives every connection: it sleeps in ppoll until the next
  // scheduled send, the next window boundary or a response, so the
  // generator adds one runnable thread to the machine, not one per socket.
  void Loop(net::Client& admin, const std::string& out) {
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not up to 50us late
    std::vector<double> bounds = Boundaries();
    size_t next_bound = 0;
    uint64_t end = t0_ + Ns(bounds.back());
    uint64_t drain_deadline = end + kDrainTimeoutNs;
    std::vector<struct pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i]->client.fd();
      fds[i].events = POLLIN;
    }
    std::string err;
    for (;;) {
      uint64_t now = MonoNanos();
      if (next_bound < bounds.size() &&
          now >= t0_ + Ns(bounds[next_bound])) {
        Snapshot(admin, out, next_bound++);
        continue;
      }
      uint64_t wake = next_bound < bounds.size()
                          ? t0_ + Ns(bounds[next_bound])
                          : drain_deadline;
      bool busy = next_bound < bounds.size();
      for (auto& c : conns_) {
        if (w_.open) {
          while (c->next_send < c->recs.size() &&
                 c->recs[c->next_send].sched_ns <= now) {
            if (!Send(c.get(), c->next_send++, &err)) {
              error_ = "send: " + err;
              return;
            }
          }
          if (c->next_send < c->recs.size()) {
            wake = std::min(wake, c->recs[c->next_send].sched_ns);
          }
        } else if (now >= t0_ && now < end) {
          while (c->outstanding < static_cast<uint64_t>(w_.depth)) {
            if (!SendNext(c.get(), &err)) {
              error_ = "send: " + err;
              return;
            }
          }
        } else if (now < t0_) {
          wake = std::min(wake, t0_);
        }
        busy = busy || c->outstanding > 0 ||
               (w_.open && c->next_send < c->recs.size());
      }
      if (!busy || now >= drain_deadline) return;  // done, or the rest lost
      now = MonoNanos();
      uint64_t wait = wake > now ? wake - now : 0;
      struct timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                         static_cast<long>(wait % 1'000'000'000)};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (!Receive(conns_[i].get(), &err)) {
          error_ = "recv: " + err;
          return;
        }
      }
    }
  }

  // Runs the workload against 127.0.0.1:port; writes the metrics snapshots
  // into `out`.
  bool Run(uint16_t port, const std::string& out) {
    std::string err;
    net::Client admin;
    if (!admin.Connect("127.0.0.1", port, &err)) {
      std::fprintf(stderr, "connect: %s\n", err.c_str());
      return false;
    }
    for (int i = 0; i < w_.conns; ++i) {
      auto c = std::make_unique<Conn>();
      c->id = i;
      if (!c->client.Connect("127.0.0.1", port, &err)) {
        std::fprintf(stderr, "connect: %s\n", err.c_str());
        return false;
      }
      if (w_.open) {
        PlanOpen(c.get());
      } else {
        c->ops = std::make_unique<OpStream>(w_, i);
      }
      conns_.push_back(std::move(c));
    }
    t0_ = MonoNanos() + 20'000'000;
    for (auto& c : conns_) {
      for (Rec& r : c->recs) r.sched_ns += t0_;
    }
    Loop(admin, out);
    return true;
  }

  void WriteRecords(const std::string& out) const {
    std::FILE* f = std::fopen((out + "/requests.csv").c_str(), "w");
    PDB_CHECK(f != nullptr);
    std::fprintf(f,
                 "conn,idx,op,hp,phase,key,sched_ns,send_ns,recv_ns,status,"
                 "valid,server_ns,has_tl,arrival_ns,admit_ns,enqueue_ns,"
                 "dispatch_ns,first_run_ns,done_ns,reply_ns,preempts,"
                 "yields\n");
    for (const auto& c : conns_) {
      for (size_t i = 0; i < c->recs.size(); ++i) {
        const Rec& r = c->recs[i];
        if (r.send_ns == 0) continue;  // never sent
        const net::TimelineWire& t = r.tl;
        std::fprintf(
            f,
            "%d,%zu,%u,%u,%u,%llu,%llu,%llu,%llu,%u,%u,%llu,%u,%llu,%llu,"
            "%llu,%llu,%llu,%llu,%llu,%u,%u\n",
            c->id, i, r.op, r.hp, r.phase,
            static_cast<unsigned long long>(r.key),
            static_cast<unsigned long long>(r.sched_ns),
            static_cast<unsigned long long>(r.send_ns),
            static_cast<unsigned long long>(r.recv_ns), r.status, r.valid,
            static_cast<unsigned long long>(r.server_ns), r.has_tl,
            static_cast<unsigned long long>(t.arrival_ns),
            static_cast<unsigned long long>(t.admit_ns),
            static_cast<unsigned long long>(t.enqueue_ns),
            static_cast<unsigned long long>(t.dispatch_ns),
            static_cast<unsigned long long>(t.first_run_ns),
            static_cast<unsigned long long>(t.done_ns),
            static_cast<unsigned long long>(t.reply_ns), t.preempts,
            t.yields);
      }
    }
    std::fclose(f);
    // Every PUT sent, acked or not, for the restart read-back check.
    f = std::fopen((out + "/puts.txt").c_str(), "w");
    PDB_CHECK(f != nullptr);
    for (const auto& c : conns_) {
      for (size_t i = 0; i < c->recs.size(); ++i) {
        const Rec& r = c->recs[i];
        if (r.send_ns == 0 || r.op != static_cast<uint8_t>(net::Op::kPut)) {
          continue;
        }
        bool acked = r.recv_ns != 0 &&
                     r.status == static_cast<uint8_t>(net::WireStatus::kOk);
        std::fprintf(f, "%llu %d %zu %d\n",
                     static_cast<unsigned long long>(r.key), c->id, i, acked);
      }
    }
    std::fclose(f);
  }

  void PrintSummary() const {
    uint64_t sent = 0, lost = 0;
    for (const auto& c : conns_) {
      for (const Rec& r : c->recs) {
        if (r.send_ns == 0) continue;
        ++sent;
        lost += r.recv_ns == 0;
      }
    }
    std::string redo;
    for (uint64_t b : redo_sizes_) {
      if (!redo.empty()) redo += ",";
      redo += std::to_string(b);
    }
    std::printf(
        "{\"t0_ns\": %llu, \"sent\": %llu, \"lost\": %llu, "
        "\"redo_bytes\": [%s], \"error\": \"%s\"}\n",
        static_cast<unsigned long long>(t0_),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(lost), redo.c_str(), error_.c_str());
  }

 private:
  const Workload& w_;
  uint64_t t0_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> redo_sizes_;  // redo.log bytes at each boundary
  std::string error_;
};

Workload ParseWorkload(const bench::FlagSet& f) {
  Workload w;
  w.name = f.Get("workload", "unnamed");
  w.open = f.Get("mode", "open") == "open";
  w.rate = f.GetDouble("rate", w.rate);
  w.conns = static_cast<int>(f.GetInt("conns", w.conns));
  w.depth = static_cast<int>(f.GetInt("depth", w.depth));
  w.hp_frac = f.GetDouble("hp-frac", w.hp_frac);
  w.put_frac = f.GetDouble("put-frac", w.put_frac);
  w.keys = static_cast<uint64_t>(f.GetInt("keys", 10000));
  w.span = static_cast<uint64_t>(f.GetInt("span", 2000));
  w.value_size = static_cast<size_t>(f.GetInt("value-size", 64));
  w.seed = static_cast<uint64_t>(f.GetInt("seed", 1));
  w.warmup_s = f.GetDouble("warmup", w.warmup_s);
  w.seconds = f.GetDouble("seconds", w.seconds);
  w.traced = f.GetInt("traced", 0) != 0;
  w.log_dir = f.Get("log-dir", "");
  PDB_CHECK_MSG(w.conns > 0 && w.span <= w.keys && w.value_size >= 32,
                "bad workload flags");
  return w;
}

int Drive(const bench::FlagSet& f) {
  Workload w = ParseWorkload(f);
  std::string out = f.Get("out", ".");
  Driver d(w);
  if (!d.Run(static_cast<uint16_t>(f.GetInt("port", 0)), out)) return 1;
  d.WriteRecords(out);
  d.PrintSummary();
  return 0;
}

// Reads back every key with an acked PUT over `depth` pipelined GETs.
int Verify(const bench::FlagSet& f) {
  size_t value_size = static_cast<size_t>(f.GetInt("value-size", 64));
  std::ifstream in(f.Get("puts"));
  // key -> (conn, idx) of every PUT issued to it; keys with an ack.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> written;
  std::vector<uint64_t> acked_keys;
  std::unordered_set<uint64_t> acked_set;
  unsigned long long key = 0, idx = 0;
  int conn = 0, acked = 0;
  while (in >> key >> conn >> idx >> acked) {
    written[key].insert(idx * 64 + static_cast<uint64_t>(conn));
    if (acked && acked_set.insert(key).second) acked_keys.push_back(key);
  }
  net::Client c;
  std::string err;
  if (!c.Connect("127.0.0.1", static_cast<uint16_t>(f.GetInt("port", 0)),
                 &err)) {
    std::fprintf(stderr, "connect: %s\n", err.c_str());
    return 1;
  }
  std::unordered_map<uint64_t, uint64_t> inflight;  // request id -> key
  uint64_t checked = 0, bad = 0;
  size_t next = 0;
  constexpr size_t kDepth = 32;
  while (next < acked_keys.size() || !inflight.empty()) {
    while (next < acked_keys.size() && inflight.size() < kDepth) {
      net::RequestHeader h;
      h.opcode = static_cast<uint8_t>(net::Op::kGet);
      h.prio_class = static_cast<uint8_t>(net::WireClass::kHigh);
      h.params[0] = acked_keys[next];
      uint64_t id = 0;
      if (!c.Send(h, {}, &err, &id)) {
        std::fprintf(stderr, "send: %s\n", err.c_str());
        return 1;
      }
      inflight[id] = acked_keys[next++];
    }
    net::Client::Result res;
    if (!Readable(c.fd(), 10000) || !c.Recv(&res, &err)) {
      std::fprintf(stderr, "recv: %s\n", err.c_str());
      return 1;
    }
    auto it = inflight.find(res.request_id);
    if (it == inflight.end()) continue;
    uint64_t k = it->second;
    inflight.erase(it);
    ++checked;
    uint64_t vk = 0, vi = 0;
    int vc = 0;
    bool ok = res.status == net::WireStatus::kOk &&
              res.payload.size() == value_size &&
              ParseValue(res.payload, &vk, &vc, &vi) && vk == k &&
              written[k].count(vi * 64 + static_cast<uint64_t>(vc)) > 0;
    bad += !ok;
  }
  std::printf("{\"checked\": %llu, \"bad\": %llu}\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(bad));
  return 0;
}

// --- direct calls ---

std::atomic<uint64_t> g_send_tsc{0};
std::atomic<uint64_t> g_delivered{0};
std::vector<double>* g_delivery_us = nullptr;

void DeliveryEntry(void*) {
  for (;;) {
    uint64_t sent = g_send_tsc.exchange(0, std::memory_order_acq_rel);
    if (sent != 0) {
      g_delivery_us->push_back(TscToUs(RdtscP() - sent));
      g_delivered.fetch_add(1, std::memory_order_release);
    }
    uintr::SwapToMain();
  }
}

void IdleEntry(void*) {
  for (;;) uintr::SwapToMain();
}

// Sender -> handler delivery, as micro_uintr_delivery measures it.
std::vector<double> TimeDelivery(int rounds) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(rounds));
  g_delivery_us = &us;
  std::atomic<uintr::Receiver*> recv{nullptr};
  std::atomic<bool> stop{false};
  std::thread receiver([&] {
    recv.store(uintr::RegisterReceiver(&DeliveryEntry, nullptr));
    volatile uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) sink = sink + 1;
    uintr::UnregisterReceiver();
  });
  while (recv.load() == nullptr) std::this_thread::yield();
  for (int i = 0; i < rounds; ++i) {
    uint64_t target = g_delivered.load(std::memory_order_acquire) + 1;
    g_send_tsc.store(RdtscP(), std::memory_order_release);
    uintr::SendUipi(recv.load());
    uint64_t give_up = MonoNanos() + 50'000'000;
    while (g_delivered.load(std::memory_order_acquire) < target &&
           MonoNanos() < give_up) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  receiver.join();
  return us;
}

// One context switch (half a SwapToPreempt/SwapToMain round trip), timed
// over batches of round trips.
std::vector<double> TimeSwitch(int batches) {
  constexpr int kRoundTrips = 64;
  std::vector<double> ns;
  std::thread t([&] {
    uintr::RegisterReceiver(&IdleEntry, nullptr);
    for (int b = 0; b < batches; ++b) {
      uint64_t c0 = RdtscP();
      for (int i = 0; i < kRoundTrips; ++i) uintr::SwapToPreempt();
      ns.push_back(TscToUs(RdtscP() - c0) * 1000.0 / (2 * kRoundTrips));
    }
    uintr::UnregisterReceiver();
  });
  t.join();
  return ns;
}

template <typename Fn>
std::vector<double> TimeCalls(int n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    uint64_t t0 = MonoNanos();
    PDB_CHECK_MSG(fn(i), "direct call failed");
    us.push_back(static_cast<double>(MonoNanos() - t0) / 1000.0);
  }
  return us;
}

void PrintSamples(const char* name, const std::vector<double>& v,
                  bool last = false) {
  std::printf("\"%s\": [", name);
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", v[i]);
  }
  std::printf("]%s", last ? "" : ", ");
}

int Direct(const bench::FlagSet& f) {
  uint64_t keys = static_cast<uint64_t>(f.GetInt("keys", 10000));
  uint64_t span = static_cast<uint64_t>(f.GetInt("span", 2000));
  size_t value_size = static_cast<size_t>(f.GetInt("value-size", 64));
  uint64_t seed = static_cast<uint64_t>(f.GetInt("seed", 1));
  (void)TscCyclesPerUs();  // calibrate before timing

  // Set up the way pdb_server does: recover the log dir if given, then
  // preload (existing keys stay as recovered).
  DB::Options dbo;
  dbo.start_scheduler = false;
  dbo.log_dir = f.Get("log-dir", "");
  uint64_t t0 = MonoNanos();
  auto db = DB::Open(dbo);
  double open_s = static_cast<double>(MonoNanos() - t0) / 1e9;
  engine::Table* table = db->GetTable("netkv");
  if (table == nullptr) table = db->CreateTable("netkv");
  std::string value(value_size, 'v');
  Rc rc = db->Execute([&](engine::Engine& eng) {
    auto* txn = eng.Begin();
    for (uint64_t k = 1; k <= keys; ++k) {
      Rc r = txn->Insert(table, k, value);
      if (r == Rc::kKeyExists) continue;
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
    }
    return txn->Commit();
  });
  PDB_CHECK_MSG(IsOk(rc), "preload failed");
  double load_s = static_cast<double>(MonoNanos() - t0) / 1e9;

  FastRandom rng(seed * 0x9e3779b97f4a7c15ull + 7);
  auto get = TimeCalls(4000, [&](int) {
    uint64_t k = rng.UniformU64(1, keys);
    return IsOk(db->Execute([&](engine::Engine& eng) {
      auto* txn = eng.Begin();
      Slice s;
      Rc r = txn->Read(table, k, &s);
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      return txn->Commit();
    }));
  });
  auto scan = TimeCalls(400, [&](int) {
    uint64_t lo = rng.UniformU64(1, keys - span + 1);
    uint64_t count = 0;
    Rc r = db->Execute([&](engine::Engine& eng) {
      auto* txn = eng.Begin();
      Rc s = txn->Scan(table, lo, lo + span - 1, [&](index::Key, Slice) {
        ++count;
        return true;
      });
      if (!IsOk(s)) {
        txn->Abort();
        return s;
      }
      return txn->Commit();
    });
    return IsOk(r) && count == span;
  });
  auto put = TimeCalls(1000, [&](int) {
    uint64_t k = rng.UniformU64(1, keys);
    return IsOk(db->Execute([&](engine::Engine& eng) {
      auto* txn = eng.Begin();
      Rc r = txn->Update(table, k, value);
      if (!IsOk(r)) {
        txn->Abort();
        return r;
      }
      return txn->Commit();
    }));
  });
  db.reset();
  auto delivery = TimeDelivery(2000);
  auto sw = TimeSwitch(2000);

  std::printf("{\"open_s\": %.6f, \"load_s\": %.6f, ", open_s, load_s);
  PrintSamples("get_us", get);
  PrintSamples("scan_us", scan);
  PrintSamples("put_us", put);
  PrintSamples("delivery_us", delivery);
  PrintSamples("switch_ns", sw, true);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc > 1 ? argv[1] : "";
  bench::FlagSet f(argc, argv);
  if (cmd == "drive") return Drive(f);
  if (cmd == "verify") return Verify(f);
  if (cmd == "direct") return Direct(f);
  std::fprintf(stderr, "usage: wire_driver drive|verify|direct [--flags]\n");
  return 2;
}
