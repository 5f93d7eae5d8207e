// pdb_top: live terminal view of a running PreemptDB server's admin plane.
//
// Polls the wire-level kMetrics and kHealth opcodes, parses the JSON bodies
// (obs/json_parse.h — no external deps), and renders per-shard request/reply
// rates, per-class stage percentiles, and SLO state, with deltas computed
// between consecutive polls. Also usable as a one-shot scraper for scripts
// and CI: --raw=metrics|health|trace dumps the raw JSON body and exits.
//
//   ./bench/pdb_top --connect=127.0.0.1:7878
//   ./bench/pdb_top --connect=127.0.0.1:7878 --iters=2 --interval-ms=500
//   ./bench/pdb_top --connect=127.0.0.1:7878 --raw=metrics | python3 -m json.tool
//   ./bench/pdb_top --connect=127.0.0.1:7878 --set=starvation_threshold=0.4
//
// Flags (bench::FlagSet):
//   --connect=H:P      server address              (127.0.0.1:7878)
//   --interval-ms=T    poll period                 (1000)
//   --iters=N          polls before exiting, 0 = until error (0)
//   --raw=metrics|health|trace|config   one-shot raw JSON dump
//   --set=k=v[,k=v...] one-shot kSetConfig: apply a tunable-knob changeset
//                      and print the resulting config JSON; exits 1 (reason
//                      on stderr) if the server rejects it
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "net/client.h"
#include "obs/json_parse.h"

using namespace preemptdb;
using namespace preemptdb::bench;

namespace {

struct ShardSample {
  uint64_t requests = 0;
  uint64_t replies = 0;
  uint64_t open_conns = 0;
};

double Rate(uint64_t now, uint64_t prev, double dt_s) {
  return now >= prev && dt_s > 0 ? static_cast<double>(now - prev) / dt_s : 0;
}

// p50/p99 of one named entry in "histograms_ns", in microseconds.
bool StagePcts(const obs::JsonValue& metrics, const char* name, double* p50_us,
               double* p99_us, double* count) {
  const obs::JsonValue* h = metrics.Path({"histograms_ns", name});
  if (h == nullptr || !h->is_object()) return false;
  *p50_us = h->NumberOr("p50_ns", 0) / 1000.0;
  *p99_us = h->NumberOr("p99_ns", 0) / 1000.0;
  *count = h->NumberOr("count", 0);
  return true;
}

bool FetchJson(net::Client& client, net::Op op, obs::JsonValue* out,
               std::string* raw, std::string* err) {
  net::Client::Result res;
  if (!client.Admin(op, &res, err)) return false;
  if (res.status != net::WireStatus::kOk) {
    *err = std::string("admin op rejected: ") +
           net::WireStatusString(res.status);
    return false;
  }
  if (raw != nullptr) *raw = res.payload;
  return obs::JsonParse(res.payload, out, err);
}

void PrintStageRow(const obs::JsonValue& metrics, const char* label,
                   const char* name) {
  double p50 = 0, p99 = 0, count = 0;
  if (!StagePcts(metrics, name, &p50, &p99, &count)) return;
  std::printf("  %-26s %10.0f %10.1f %10.1f\n", label, count, p50, p99);
}

// Names the stage with the largest p50 on one class's request path (admit,
// the class's queue_wait and run, reply) and its ratio to the class's run
// stage, e.g. "HP dominant: queue_wait 480x run": a dispatch- or
// reply-bound server shows at a glance. Silent until the class has run.
void PrintDominantStage(const obs::JsonValue& metrics, const char* cls,
                        const std::string& suffix) {
  double run_p50 = 0, p99 = 0, count = 0;
  if (!StagePcts(metrics, ("sched.stage.run_" + suffix).c_str(), &run_p50,
                 &p99, &count) ||
      count == 0 || run_p50 <= 0) {
    return;
  }
  const std::string queue_wait = "sched.stage.queue_wait_" + suffix;
  const std::pair<const char*, const char*> others[] = {
      {"admit", "net.stage.admit"},
      {"queue_wait", queue_wait.c_str()},
      {"reply", "net.stage.reply"},
  };
  const char* top = nullptr;
  double top_p50 = run_p50;
  for (const auto& [label, name] : others) {
    double p50 = 0;
    if (StagePcts(metrics, name, &p50, &p99, &count) && count > 0 &&
        p50 > top_p50) {
      top = label;
      top_p50 = p50;
    }
  }
  if (top == nullptr) {
    std::printf("%s dominant: run\n", cls);
  } else {
    std::printf("%s dominant: %s %.0fx run\n", cls, top, top_p50 / run_p50);
  }
}

// "k=v,k=v" -> the kSetConfig JSON changeset. Values are passed through
// verbatim (numbers stay numbers, true/false stay booleans); the server
// validates types and ranges, so a bad value comes back as kBadRequest with
// the reason, which is more informative than client-side guessing.
std::string ChangeSetJson(const std::string& spec) {
  std::string json = "{";
  size_t pos = 0;
  bool first = true;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string pair = spec.substr(pos, comma - pos);
    size_t eq = pair.find('=');
    PDB_CHECK_MSG(eq != std::string::npos && eq > 0,
                  "--set wants key=value[,key=value...]");
    if (!first) json += ',';
    first = false;
    json += '"';
    json += pair.substr(0, eq);
    json += "\":";
    json += pair.substr(eq + 1);
    pos = comma + 1;
  }
  json += '}';
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(argc, argv);
  std::string connect = flags.Get("connect", "127.0.0.1:7878");
  size_t colon = connect.rfind(':');
  PDB_CHECK_MSG(colon != std::string::npos, "--connect wants host:port");
  std::string host = connect.substr(0, colon);
  uint16_t port = static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));

  net::Client client;
  std::string err;
  if (!client.Connect(host, port, &err)) {
    std::fprintf(stderr, "connect %s failed: %s\n", connect.c_str(),
                 err.c_str());
    return 1;
  }

  // One-shot set mode for scripts and operators: apply the changeset, print
  // the server's post-apply config JSON (new version included), exit.
  std::string set_spec = flags.Get("set");
  if (!set_spec.empty()) {
    std::string json = ChangeSetJson(set_spec);
    net::Client::Result res;
    if (!client.SetConfig(json, &res, &err)) {
      std::fprintf(stderr, "set failed: %s\n", err.c_str());
      return 1;
    }
    if (res.status != net::WireStatus::kOk) {
      std::fprintf(stderr, "set rejected (%s): %s\n",
                   net::WireStatusString(res.status), res.payload.c_str());
      return 1;
    }
    std::printf("%s\n", res.payload.c_str());
    return 0;
  }

  // One-shot raw mode for scripts: body on stdout, nothing else.
  std::string raw_what = flags.Get("raw");
  if (!raw_what.empty()) {
    net::Op op = net::Op::kMetrics;
    if (raw_what == "health") op = net::Op::kHealth;
    else if (raw_what == "trace") op = net::Op::kTraceSnapshot;
    else if (raw_what == "config") op = net::Op::kGetConfig;
    else PDB_CHECK_MSG(raw_what == "metrics",
                       "--raw wants metrics|health|trace|config");
    obs::JsonValue doc;
    std::string raw;
    if (!FetchJson(client, op, &doc, &raw, &err)) {
      std::fprintf(stderr, "fetch failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s\n", raw.c_str());
    return 0;
  }

  int64_t interval_ms = flags.GetInt("interval-ms", 1000);
  int64_t iters = flags.GetInt("iters", 0);
  std::vector<ShardSample> prev_shards;
  uint64_t prev_requests = 0, prev_replies = 0;
  bool have_prev = false;
  double dt_s = static_cast<double>(interval_ms) / 1000.0;

  for (int64_t i = 0; iters == 0 || i < iters; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    obs::JsonValue metrics, health;
    if (!FetchJson(client, net::Op::kMetrics, &metrics, nullptr, &err) ||
        !FetchJson(client, net::Op::kHealth, &health, nullptr, &err)) {
      std::fprintf(stderr, "poll failed: %s\n", err.c_str());
      return 1;
    }

    uint64_t requests = 0, replies = 0;
    std::vector<ShardSample> shards;
    const obs::JsonValue* sh = health.Find("shards");
    if (sh != nullptr && sh->is_array()) {
      for (const obs::JsonValue& s : sh->items) {
        ShardSample row;
        row.requests = static_cast<uint64_t>(s.NumberOr("requests", 0));
        row.replies = static_cast<uint64_t>(s.NumberOr("replies", 0));
        row.open_conns = static_cast<uint64_t>(s.NumberOr("open_conns", 0));
        requests += row.requests;
        replies += row.replies;
        shards.push_back(row);
      }
    }

    std::printf("\n=== pdb_top %s  poll %" PRId64 " ===\n", connect.c_str(),
                i + 1);
    std::printf("total: requests=%" PRIu64 " replies=%" PRIu64, requests,
                replies);
    if (have_prev) {
      std::printf("  (%.0f req/s, %.0f rep/s)",
                  Rate(requests, prev_requests, dt_s),
                  Rate(replies, prev_replies, dt_s));
    }
    std::printf("\n");
    for (size_t sid = 0; sid < shards.size(); ++sid) {
      std::printf("  shard%-2zu conns=%-4" PRIu64 " requests=%-10" PRIu64,
                  sid, shards[sid].open_conns, shards[sid].requests);
      if (have_prev && sid < prev_shards.size()) {
        std::printf(" (%.0f/s)",
                    Rate(shards[sid].requests, prev_shards[sid].requests,
                         dt_s));
      }
      std::printf("\n");
    }

    const obs::JsonValue* sched = health.Find("scheduler");
    if (sched != nullptr) {
      std::printf("sched: uipis=%.0f hp_admitted=%.0f hp_dropped=%.0f "
                  "expired=%.0f demotions=%.0f\n",
                  sched->NumberOr("uipis_sent", 0),
                  sched->NumberOr("hp_admitted", 0),
                  sched->NumberOr("hp_dropped", 0),
                  sched->NumberOr("expired", 0),
                  sched->NumberOr("demotions", 0));
    }

    // Interleaving dispatcher health: slot occupancy is steps per
    // round-robin pass (== average live slots), prefetch rate is prefetches
    // issued per step. Printed only once the dispatcher has done work.
    const obs::JsonValue* ctrs = metrics.Find("counters");
    if (ctrs != nullptr) {
      double steps = ctrs->NumberOr("sched.interleave.steps", 0);
      double rounds = ctrs->NumberOr("sched.interleave.rounds", 0);
      double txns = ctrs->NumberOr("sched.interleave.txns", 0);
      double prefetch = ctrs->NumberOr("sched.interleave.prefetch_issued", 0);
      if (steps > 0) {
        const obs::JsonValue* cfg_now = health.Find("config");
        const obs::JsonValue* tun =
            cfg_now != nullptr ? cfg_now->Find("tunables") : nullptr;
        std::printf("ilv: slots=%.0f occupancy=%.2f steps/txn=%.1f "
                    "prefetch/step=%.2f txns=%.0f\n",
                    tun != nullptr ? tun->NumberOr("interleave_slots", 1) : 1,
                    rounds > 0 ? steps / rounds : 0.0,
                    txns > 0 ? steps / txns : 0.0,
                    steps > 0 ? prefetch / steps : 0.0, txns);
      }
    }

    std::printf("  %-26s %10s %10s %10s\n", "stage", "count", "p50(us)",
                "p99(us)");
    PrintStageRow(metrics, "net.stage.admit", "net.stage.admit");
    PrintStageRow(metrics, "sched.queue_wait HP", "sched.stage.queue_wait_hp");
    PrintStageRow(metrics, "sched.queue_wait LP", "sched.stage.queue_wait_lp");
    PrintStageRow(metrics, "sched.run HP", "sched.stage.run_hp");
    PrintStageRow(metrics, "sched.run LP", "sched.stage.run_lp");
    PrintStageRow(metrics, "net.stage.reply", "net.stage.reply");
    PrintStageRow(metrics, "net.stage.total", "net.stage.total");
    PrintDominantStage(metrics, "HP", "hp");
    PrintDominantStage(metrics, "LP", "lp");

    const obs::JsonValue* slo = health.Find("slo");
    if (slo != nullptr) {
      std::printf("slo: hp[%s p=%.0fus viol=%.0f] lp[%s p=%.0fus viol=%.0f]\n",
                  slo->Path({"hp_breached"}) != nullptr &&
                          slo->Path({"hp_breached"})->boolean
                      ? "BREACH"
                      : "ok",
                  slo->NumberOr("hp_measured_us", 0),
                  slo->NumberOr("hp_violations", 0),
                  slo->Path({"lp_breached"}) != nullptr &&
                          slo->Path({"lp_breached"})->boolean
                      ? "BREACH"
                      : "ok",
                  slo->NumberOr("lp_measured_us", 0),
                  slo->NumberOr("lp_violations", 0));
    }

    const obs::JsonValue* dur = health.Find("durability");
    if (dur != nullptr && dur->Path({"enabled"}) != nullptr &&
        dur->Path({"enabled"})->boolean) {
      std::printf("dur: seq=%.0f ckpt=%.0f age=%.1fs segs=%.0f fsyncs=%.0f "
                  "torn=%.0f%s\n",
                  dur->NumberOr("last_durable_seq", 0),
                  dur->NumberOr("last_ckpt_seq", 0),
                  dur->NumberOr("ckpt_age_ms", 0) / 1000.0,
                  dur->NumberOr("log_segments", 0),
                  dur->NumberOr("log_fsyncs", 0),
                  dur->NumberOr("log_torn_bytes", 0),
                  dur->Path({"log_poisoned"}) != nullptr &&
                          dur->Path({"log_poisoned"})->boolean
                      ? "  LOG-POISONED"
                      : "");
    }

    const obs::JsonValue* repl = health.Find("repl");
    if (repl != nullptr) {
      const obs::JsonValue* role = repl->Find("role");
      const std::string r = role != nullptr ? role->str : "none";
      if (r == "primary") {
        const obs::JsonValue* fol = repl->Find("followers");
        size_t connected = 0;
        if (fol != nullptr) {
          for (const auto& f : fol->items) {
            const obs::JsonValue* c = f.Path({"connected"});
            if (c != nullptr && c->boolean) ++connected;
          }
        }
        std::printf("repl: primary followers=%zu/%zu max_lag=%.0fB "
                    "sessions=%.0f\n",
                    connected, fol != nullptr ? fol->items.size() : 0,
                    repl->NumberOr("max_lag_bytes", 0),
                    repl->NumberOr("sessions_started", 0));
      } else if (r == "follower") {
        const obs::JsonValue* pri = repl->Find("primary");
        std::printf("repl: follower of %s applied_ts=%.0f durable_seq=%.0f\n",
                    pri != nullptr ? pri->str.c_str() : "?",
                    repl->NumberOr("applied_ts", 0),
                    repl->NumberOr("durable_seq", 0));
      }
    }

    const obs::JsonValue* cfg = health.Find("config");
    if (cfg != nullptr) {
      const obs::JsonValue* t = cfg->Find("tunables");
      const bool starv_on =
          t != nullptr && t->Path({"starvation_enabled"}) != nullptr &&
          t->Path({"starvation_enabled"})->boolean;
      std::printf("ctl: v%.0f thr=%s batch=%.0f demote=%.0fms probe=%.0f",
                  cfg->NumberOr("version", 0),
                  starv_on
                      ? std::to_string(
                            t->NumberOr("starvation_threshold", 0))
                            .substr(0, 4)
                            .c_str()
                      : "off",
                  cfg->NumberOr("effective_hp_batch", 0),
                  t != nullptr ? t->NumberOr("demote_latency_ns", 0) / 1e6 : 0,
                  t != nullptr ? t->NumberOr("probe_interval_ticks", 0) : 0);
      const obs::JsonValue* ctl = health.Find("ctl");
      if (ctl != nullptr) {
        const obs::JsonValue* act = ctl->Find("last_action");
        std::printf("  [%s retunes=%.0f evals=%.0f]",
                    act != nullptr ? act->str.c_str() : "-",
                    ctl->NumberOr("retunes", 0), ctl->NumberOr("evals", 0));
      }
      std::printf("\n");
    }
    std::fflush(stdout);

    prev_shards = shards;
    prev_requests = requests;
    prev_replies = replies;
    have_prev = true;
  }
  return 0;
}
