#!/usr/bin/env python3
"""Wire benchmark for PreemptDB: one command, three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0

Builds pdb_server and the load generator (wire_driver) from source, starts
the server as its own process (2 workers, 1 shard, preempt policy), drives
it over loopback TCP, validates every response and prints a report. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 splits the
run into an untraced window and a traced one, whose requests ask the server to
echo their TxnTimeline; it reports the per-layer metrics, writes the request
spans as Chrome trace-event JSON and times direct engine and uintr calls.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import csv
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload definitions: the one place the traffic and data shape live.
WORKLOADS = {
    "mixed_open": dict(mode="open", rate=2000, conns=2, hp_frac=0.8,
                       put_frac=0.1, keys=10_000, durable=False),
    "scan_closed": dict(mode="closed", conns=2, depth=4, hp_frac=0.1,
                        put_frac=0.1, keys=4_000_000, durable=False),
    "durable_open": dict(mode="open", rate=2000, conns=2, hp_frac=0.8,
                         put_frac=0.5, keys=100_000, durable=True),
}
SPAN = 2000          # keys per LP ScanSum
VALUE_SIZE = 64      # bytes per value
KEY_SIZE = 8         # bytes per primary key
WORKERS = 2
CKPT_INTERVAL_MS = 5000
WARMUP_S = 1.0       # excluded from every metric and counter delta
# setup_s is the median over at least SETUP_SPAWNS server spawns and
# SETUP_SECONDS of spawning: a start-up of a few ms needs many samples to be
# steady.
SETUP_SPAWNS = 5
SETUP_SECONDS = 2.0

OP_PUT = 2
STATUS_OK = 0
PLAIN, TRACED = 1, 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build(root):
    bdir = os.path.join(root, "cmake")
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "pdb_server"), os.path.join(bdir, "wire_driver")


# --- server process ---------------------------------------------------------

class Server:
    """One pdb_server process; ready once it prints its listening line,
    which it does after the preload."""

    def __init__(self, binary, wl, log_dir):
        args = [binary, "--port=0", "--host=127.0.0.1", "--shards=1",
                f"--workers={WORKERS}", "--policy=preempt",
                f"--keys={wl['keys']}", f"--value-size={VALUE_SIZE}"]
        if log_dir:
            args += [f"--log-dir={log_dir}",
                     f"--ckpt-interval-ms={CKPT_INTERVAL_MS}"]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        while line and "listening on" not in line:
            line = self.proc.stdout.readline()
        self.setup_s = time.monotonic() - t0
        m = re.search(r"listening on [\d.]+:(\d+)", line)
        if not m:
            self.stop()
            raise RuntimeError("pdb_server did not start")
        self.port = int(m.group(1))

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self, sig=signal.SIGTERM):
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


# --- statistics -------------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(-(-p * len(v) // 100)) - 1))
    return v[k]


def median(values):
    return statistics.median(values) if values else None


def ratio(a, b):
    return a / b if a is not None and b else 0.0


# --- request records --------------------------------------------------------

def load_requests(path):
    rows = []
    with open(path) as f:
        for r in csv.DictReader(f):
            rows.append({k: int(v) for k, v in r.items()})
    return rows


def failed(r):
    return r["recv_ns"] == 0 or r["status"] != STATUS_OK or not r["valid"]


def latency_us(r):
    """Open loop: from the scheduled send time; closed loop: from the send.
    A failed or lost request misses every latency limit."""
    if failed(r):
        return float("inf")
    return (r["recv_ns"] - r["sched_ns"]) / 1e3


def class_latency(rows, hp):
    """Latencies of one class in scheduled-send order."""
    rs = sorted((r for r in rows if r["hp"] == hp),
                key=lambda r: r["sched_ns"])
    return [latency_us(r) for r in rs]


def finite(x):
    return x if x is not None and x != float("inf") else 1e12


def counters(path):
    with open(path) as f:
        return json.load(f).get("counters", {})


# --- spans (traced window) --------------------------------------------------

# Layer spans of one request, outermost first: each is the parent of the
# next, so a layer's self time is its span minus the next one.
LAYERS = [
    ("client", "sched_ns", "recv_ns"),    # generator + loopback
    ("net", "arrival_ns", "reply_ns"),    # admit + reply
    ("core", "enqueue_ns", "done_ns"),    # submission queue wait
    ("sched", "dispatch_ns", "done_ns"),  # worker queue + uipi delivery
    ("engine", "first_run_ns", "done_ns"),  # execution incl. preemptions
]


def build_spans(rows):
    """In-memory spans: (name, start_ns, end_ns, parent, request id, hp)."""
    spans = []
    for r in rows:
        if not r["has_tl"] or failed(r):
            continue
        rid = f"{r['conn']}:{r['idx']}"
        parent = None
        for name, s, e in LAYERS:
            spans.append((name, r[s], r[e], parent, rid, r["hp"]))
            parent = name
    return spans


def self_times_us(rows, hp):
    """Per-layer self time (span minus its child span), per request."""
    out = {name: [] for name, _, _ in LAYERS}
    for r in rows:
        if not r["has_tl"] or failed(r) or r["hp"] != hp:
            continue
        for i, (name, s, e) in enumerate(LAYERS):
            dur = r[e] - r[s]
            if i + 1 < len(LAYERS):
                _, cs, ce = LAYERS[i + 1]
                dur -= r[ce] - r[cs]
            out[name].append(dur / 1e3)
    return out


def write_chrome_trace(spans, t0_ns, path):
    """Async begin/end pairs keyed by request id, so overlapping requests
    nest per request in Perfetto / chrome://tracing."""
    events = []
    for name, s, e, parent, rid, hp in spans:
        common = {"cat": "hp" if hp else "lp", "id": rid, "pid": 1, "tid": 1,
                  "name": name}
        events.append(dict(common, ph="b", ts=(s - t0_ns) / 1e3,
                           args={"parent": parent, "req": rid}))
        events.append(dict(common, ph="e", ts=(e - t0_ns) / 1e3))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, f)


# --- one run ----------------------------------------------------------------

def run(args):
    wl = WORKLOADS[args.workload]
    # Build tree and run outputs: $CARGO_TARGET_DIR when the caller sets
    # one build directory for every language, else .bench_build.
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    server_bin, driver_bin = build(root)
    # A traced run splits --seconds into an untraced and a traced window of
    # window_s each, so every run takes about as long.
    window_s = args.seconds / 2 if args.trace else args.seconds
    rundir = os.path.join(root, "runs", args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    report = {"workload": args.workload, "seed": args.seed}
    servers = []

    try:
        # Set-up: spawn repeatedly (fresh log dir each), keep the last.
        setups = []
        log_dir = os.path.join(rundir, "log") if wl["durable"] else ""
        t_setup = time.monotonic()
        while (len(setups) < SETUP_SPAWNS or
               time.monotonic() - t_setup < SETUP_SECONDS):
            if servers:
                servers.pop().stop(signal.SIGKILL)
            if log_dir:
                shutil.rmtree(log_dir, ignore_errors=True)
                os.makedirs(log_dir)
            servers.append(Server(server_bin, wl, log_dir))
            setups.append(servers[-1].setup_s)
        server = servers[-1]

        drive = [driver_bin, "drive", f"--port={server.port}",
                 f"--workload={args.workload}", f"--seed={args.seed}",
                 f"--mode={wl['mode']}", f"--conns={wl['conns']}",
                 f"--hp-frac={wl['hp_frac']}", f"--put-frac={wl['put_frac']}",
                 f"--keys={wl['keys']}", f"--span={SPAN}",
                 f"--value-size={VALUE_SIZE}", f"--warmup={WARMUP_S}",
                 f"--seconds={window_s}", f"--traced={args.trace}",
                 f"--log-dir={log_dir}", f"--out={rundir}"]
        drive += [f"--rate={wl['rate']}"] if "rate" in wl else \
                 [f"--depth={wl['depth']}"]
        out = subprocess.run(drive, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=args.seconds + 60).stdout
        summary = json.loads(out.strip().splitlines()[-1])
        if summary["error"]:
            log(f"driver error: {summary['error']}")
        rss_kb = server.peak_rss_kb()
        disk_bytes = dir_bytes(log_dir) if log_dir else 0

        # Durable: crash the server, restart on the same log dir and read
        # every acked PUT back.
        verify = None
        if wl["durable"]:
            servers.pop().stop(signal.SIGKILL)
            servers.append(Server(server_bin, wl, log_dir))
            out = subprocess.run(
                [driver_bin, "verify", f"--port={servers[-1].port}",
                 f"--puts={os.path.join(rundir, 'puts.txt')}",
                 f"--value-size={VALUE_SIZE}"],
                check=True, stdout=subprocess.PIPE, text=True,
                timeout=60).stdout
            verify = json.loads(out.strip().splitlines()[-1])
        servers.pop().stop()

        direct = None
        if args.trace:
            out = subprocess.run(
                [driver_bin, "direct", f"--keys={wl['keys']}",
                 f"--span={SPAN}", f"--value-size={VALUE_SIZE}",
                 f"--seed={args.seed}", f"--log-dir={log_dir}"],
                check=True, stdout=subprocess.PIPE, text=True,
                timeout=120).stdout
            direct = json.loads(out.strip().splitlines()[-1])
    finally:
        for s in servers:
            s.stop(signal.SIGKILL)

    rows = load_requests(os.path.join(rundir, "requests.csv"))
    # The restart read-backs are requests too: a wrong one counts as failed.
    attempted = len(rows) + (verify["checked"] if verify else 0)
    n_failed = sum(failed(r) for r in rows) + (verify["bad"] if verify else 0)
    correct = n_failed == 0 and summary["lost"] == 0 and not summary["error"]
    if verify is not None:
        correct = correct and verify["checked"] > 0

    # End-to-end figures always come from the untraced window.
    plain = [r for r in rows if r["phase"] == PLAIN]
    traced = [r for r in rows if r["phase"] == TRACED]
    user_bytes = wl["keys"] * (KEY_SIZE + VALUE_SIZE)
    stored = disk_bytes if wl["durable"] else rss_kb * 1024

    def class_report(rs, hp):
        lat = class_latency(rs, hp)
        ok = sum(1 for r in rs if r["hp"] == hp and not failed(r))
        return {"n": len(lat), "ok": ok, "p50": pct(lat, 50),
                "p99": pct(lat, 99), "p999": pct(lat, 99.9)}

    hp, lp = class_report(plain, 1), class_report(plain, 0)
    lag = [(r["send_ns"] - r["sched_ns"]) / 1e3 for r in plain]
    e2e = {
        "hp_p50_us": (finite(hp["p50"]), "us"),
        "lp_p50_us": (finite(lp["p50"]), "us"),
        "ok_per_s": ((hp["ok"] + lp["ok"]) / window_s, "1/s"),
        "lp_ok_per_s": (lp["ok"] / window_s, "1/s"),
        "setup_s": (median(setups), "s"),
        "rss_mb": (rss_kb / 1024, "MiB"),
        "stored_bytes_per_user_byte": (stored / user_bytes, "ratio"),
    }
    report.update(
        requests=attempted, failed=n_failed, lost=summary["lost"],
        fail_frac=n_failed / max(1, attempted), verify=verify,
        setups_s=setups, hp=hp, lp=lp,
        lag_p50_us=pct(lag, 50), lag_p99_us=pct(lag, 99))

    per_layer = {}
    if args.trace:
        per_layer = layer_metrics(traced, plain, lag, summary, direct,
                                  rundir, wl)
        spans = build_spans(traced)
        write_chrome_trace(spans, summary["t0_ns"],
                           os.path.join(rundir, "spans.trace.json"))
        report["spans"] = len(spans)
        report["self_us_p50"] = {
            cls: {k: pct(v, 50) for k, v in self_times_us(traced, h).items()}
            for cls, h in (("hp", 1), ("lp", 0))}

    print_report(report, e2e, per_layer)
    metrics = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def layer_metrics(traced, plain, lag, summary, direct, rundir, wl):
    def stage(hp, a, b):
        return [(r[b] - r[a]) / 1e3 for r in traced
                if r["hp"] == hp and r["has_tl"] and not failed(r)]

    client = [latency_us(r) - r["server_ns"] / 1e3 for r in traced
              if r["hp"] == 1 and not failed(r)]
    admit, reply = stage(1, "arrival_ns", "enqueue_ns"), \
        stage(1, "done_ns", "reply_ns")
    wait_hp, wait_lp = stage(1, "enqueue_ns", "dispatch_ns"), \
        stage(0, "enqueue_ns", "dispatch_ns")
    place_hp = stage(1, "dispatch_ns", "first_run_ns")
    run_hp, run_lp = stage(1, "first_run_ns", "done_ns"), \
        stage(0, "first_run_ns", "done_ns")
    preempts = [r["preempts"] for r in traced
                if r["hp"] == 0 and r["has_tl"] and not failed(r)]

    # Counter deltas over the traced window only (snapshots 1 -> 2).
    c0 = counters(os.path.join(rundir, "metrics_1.json"))
    c1 = counters(os.path.join(rundir, "metrics_2.json"))

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    puts = sum(1 for r in traced if r["op"] == OP_PUT and not failed(r))
    redo = summary["redo_bytes"]
    scan_p50 = pct(direct["scan_us"], 50)
    hp_plain, lp_plain = class_latency(plain, 1), class_latency(plain, 0)
    hp_traced = pct(class_latency(traced, 1), 50)
    recovery = direct["open_s"] if wl["durable"] else direct["load_s"]

    m = {
        "net.admit_us.p50": (pct(admit, 50), "us"),
        "net.admit_us.p99": (pct(admit, 99), "us"),
        "net.reply_us.p50": (pct(reply, 50), "us"),
        "net.reply_us.p99": (pct(reply, 99), "us"),
        "net.client_us.p50": (pct(client, 50), "us"),
        "core.submit_wait_hp_us.p50": (pct(wait_hp, 50), "us"),
        "core.submit_wait_hp_us.p99": (pct(wait_hp, 99), "us"),
        "core.submit_wait_lp_us.p50": (pct(wait_lp, 50), "us"),
        "sched.place_hp_us.p50": (pct(place_hp, 50), "us"),
        "sched.place_hp_us.p99": (pct(place_hp, 99), "us"),
        "sched.run_hp_us.p50": (pct(run_hp, 50), "us"),
        "sched.run_hp_us.p99": (pct(run_hp, 99), "us"),
        "sched.run_lp_us.p50": (pct(run_lp, 50), "us"),
        "sched.run_lp_us.p99": (pct(run_lp, 99), "us"),
        "sched.preempts_per_lp": (ratio(sum(preempts), len(preempts)),
                                  "count"),
        "sched.run_lp_inflation": (ratio(pct(run_lp, 50), scan_p50), "ratio"),
        "net.wakes_per_reply": (ratio(delta("net.eventfd_wakes"),
                                      delta("net.responses_sent")), "ratio"),
        "core.queue_full": (delta("db.submit_queue_full"), "count"),
        "engine.fsyncs_per_put": (ratio(delta("log.fsyncs"), puts), "ratio"),
        "engine.log_bytes_per_put": (ratio(redo[2] - redo[1], puts), "B"),
        "engine.ckpt_count": (delta("ckpt.completed"), "count"),
        "engine.ckpt_bytes": (delta("ckpt.bytes"), "B"),
        "engine.get_us.p50": (pct(direct["get_us"], 50), "us"),
        "engine.get_us.p99": (pct(direct["get_us"], 99), "us"),
        "engine.scan_us.p50": (scan_p50, "us"),
        "engine.scan_us.p99": (pct(direct["scan_us"], 99), "us"),
        "engine.put_us.p50": (pct(direct["put_us"], 50), "us"),
        "engine.put_us.p99": (pct(direct["put_us"], 99), "us"),
        "engine.recovery_s": (recovery, "s"),
        "uintr.delivery_us.p50": (pct(direct["delivery_us"], 50), "us"),
        "uintr.delivery_us.p99": (pct(direct["delivery_us"], 99), "us"),
        "uintr.delivery_us.max": (max(direct["delivery_us"]), "us"),
        "uintr.switch_ns.p50": (pct(direct["switch_ns"], 50), "ns"),
        "obs.traced_hp_p50_ratio": (ratio(hp_traced, pct(hp_plain, 50)),
                                    "ratio"),
        # Tails of the untraced window: too noisy on a shared host to gate.
        "hp_p99_us": (pct(hp_plain, 99), "us"),
        "lp_p99_us": (pct(lp_plain, 99), "us"),
        "loadgen.lag_us.p50": (pct(lag, 50), "us"),
        "loadgen.lag_us.p99": (pct(lag, 99), "us"),
    }
    return {k: (finite(v) if v is not None else 0.0, u)
            for k, (v, u) in m.items()}


def fmt(v):
    if v is None:
        return "-"
    if v == float("inf"):
        return "inf"
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_report(rep, e2e, per_layer):
    p = print
    p(f"# perfbench {rep['workload']} seed={rep['seed']}: "
      f"requests={rep['requests']} failed={rep['failed']} lost={rep['lost']} "
      f"fail_frac={rep['fail_frac']:.6f}")
    if rep["verify"] is not None:
        p(f"# restart check: {rep['verify']['checked']} acked keys read back, "
          f"{rep['verify']['bad']} bad")
    st = sorted(rep["setups_s"])
    p(f"# setup_s over {len(st)} spawns: min={st[0]:.4f} "
      f"median={median(st):.4f} max={st[-1]:.4f}")
    for cls in ("hp", "lp"):
        c = rep[cls]
        p(f"# {cls}: n={c['n']} ok={c['ok']} p50={fmt(c['p50'])}us "
          f"p99={fmt(c['p99'])}us ({c['n'] - int(c['n'] * 0.99)} beyond) "
          f"p99.9={fmt(c['p999'])}us ({c['n'] - int(c['n'] * 0.999)} beyond)")
    p(f"# loadgen.lag_us: p50={fmt(rep['lag_p50_us'])} "
      f"p99={fmt(rep['lag_p99_us'])} (scheduled -> actual send)")
    for k, (v, u) in e2e.items():
        p(f"{k:<32} {fmt(v):>12} {u}")
    if per_layer:
        p(f"# traced window: {rep['spans']} spans; layer self time p50 (us):")
        for cls in ("hp", "lp"):
            st = rep["self_us_p50"][cls]
            top = max(st, key=lambda k: st[k] or 0)
            p(f"#   {cls}: " + " ".join(f"{k}={fmt(v)}" for k, v in st.items())
              + f"  (dominant: {top})")
        for k, (v, u) in per_layer.items():
            p(f"{k:<32} {fmt(v):>12} {u}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
