// Tests for the observability subsystem (src/obs/): trace ring semantics
// (wraparound, per-thread isolation, signal-handler recording), counter /
// gauge registry, snapshot JSON shape, and the Chrome-trace exporter.
#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace preemptdb::obs {
namespace {

// Minimal structural JSON validator: tracks brace/bracket nesting with full
// string/escape awareness. Catches unbalanced structure, naked values, and
// broken string escaping — the failure modes of a hand-rolled writer.
bool JsonIsStructurallyValid(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && !escaped && stack.empty();
}

// Every test starts from an empty registry. Rings registered by helper
// threads of prior tests are dead (the threads joined), so teardown is safe.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    ResetForTest();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    ResetForTest();
  }
};

TEST_F(ObsTest, DisabledTraceRecordsNothing) {
  ASSERT_GE(RegisterThisThread("t", 16), 0);
  SetTraceEnabled(false);
  Trace(EventType::kTxnStart, 1);
  const TraceRing* ring = Ring(CurrentTrack());
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->recorded(), 0u);
}

TEST_F(ObsTest, RecordsTypedEventsWithMonotonicTimestamps) {
  ASSERT_GE(RegisterThisThread("t", 16), 0);
  SetTraceEnabled(true);
  Trace(EventType::kTxnStart, 7, 99);
  Trace(EventType::kTxnCommit, 7, 1234);
  const TraceRing* ring = Ring(CurrentTrack());
  std::vector<TraceEvent> out(ring->capacity());
  ASSERT_EQ(ring->Snapshot(out.data()), 2u);
  EXPECT_EQ(out[0].type, static_cast<uint16_t>(EventType::kTxnStart));
  EXPECT_EQ(out[0].a32, 7u);
  EXPECT_EQ(out[0].a64, 99u);
  EXPECT_EQ(out[1].type, static_cast<uint16_t>(EventType::kTxnCommit));
  EXPECT_GE(out[1].ts_ns, out[0].ts_ns);
}

TEST_F(ObsTest, RingWrapsKeepingNewestEvents) {
  ASSERT_GE(RegisterThisThread("t", 8), 0);
  SetTraceEnabled(true);
  for (uint32_t i = 0; i < 20; ++i) Trace(EventType::kTxnStart, i);
  const TraceRing* ring = Ring(CurrentTrack());
  EXPECT_EQ(ring->capacity(), 8u);
  EXPECT_EQ(ring->recorded(), 20u);
  std::vector<TraceEvent> out(ring->capacity());
  ASSERT_EQ(ring->Snapshot(out.data()), 8u);
  // Oldest-first: survivors are events 12..19.
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].a32, 12u + i);
}

TEST_F(ObsTest, UnregisteredThreadDropsAreCounted) {
  SetTraceEnabled(true);
  uint64_t before = DroppedNoRing();
  std::thread([] { Trace(EventType::kGcPass); }).join();
  EXPECT_EQ(DroppedNoRing(), before + 1);
}

TEST_F(ObsTest, RegistrationIsIdempotentPerThread) {
  int t1 = RegisterThisThread("a", 16);
  int t2 = RegisterThisThread("b", 16);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(NumRings(), 1);
  EXPECT_STREQ(Ring(t1)->name(), "a");
}

TEST_F(ObsTest, ConcurrentRecordingAcrossThreads) {
  SetTraceEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::string name = "worker-" + std::to_string(t);
      ASSERT_GE(RegisterThisThread(name.c_str(), 1 << 13), 0);
      for (int i = 0; i < kPerThread; ++i) {
        Trace(EventType::kTxnStart, static_cast<uint32_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(NumRings(), kThreads);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(Ring(i)->recorded(), static_cast<uint64_t>(kPerThread));
  }
}

TEST_F(ObsTest, RingWrapOverUnconsumedEventsCountsDrops) {
  ASSERT_GE(RegisterThisThread("drops", 8), 0);
  SetTraceEnabled(true);
  uint64_t before = DroppedOverwrites();

  // Filling the ring exactly loses nothing; each wrap past the unconsumed
  // watermark is one counted loss.
  for (uint32_t i = 0; i < 8; ++i) Trace(EventType::kTxnStart, i);
  EXPECT_EQ(DroppedOverwrites(), before);
  for (uint32_t i = 0; i < 4; ++i) Trace(EventType::kTxnStart, i);
  EXPECT_EQ(DroppedOverwrites(), before + 4);

  // Consuming moves the watermark: recycling already-exported slots is not
  // data loss...
  MarkAllRingsConsumed();
  for (uint32_t i = 0; i < 8; ++i) Trace(EventType::kTxnStart, i);
  EXPECT_EQ(DroppedOverwrites(), before + 4);
  // ...but the first wrap past it is again.
  Trace(EventType::kTxnStart, 0);
  EXPECT_EQ(DroppedOverwrites(), before + 5);
}

TEST_F(ObsTest, ExporterMarksRingsConsumed) {
  ASSERT_GE(RegisterThisThread("consume", 8), 0);
  SetTraceEnabled(true);
  for (uint32_t i = 0; i < 8; ++i) Trace(EventType::kTxnStart, i);
  uint64_t before = DroppedOverwrites();
  { TraceExporter exp; }  // reading the rings consumes their contents
  for (uint32_t i = 0; i < 8; ++i) Trace(EventType::kTxnStart, i);
  EXPECT_EQ(DroppedOverwrites(), before)
      << "overwriting exported events must not count as loss";
}

// --- Signal-handler-context recording ---

std::atomic<int> g_handler_fires{0};

void TraceFromHandler(int) {
  // The whole point of the design: recording from a signal handler is safe
  // (no malloc, no locks; the slot claim is a relaxed fetch_add).
  Trace(EventType::kUipiDelivered, 0xdead);
  g_handler_fires.fetch_add(1, std::memory_order_relaxed);
}

TEST_F(ObsTest, RecordingFromSignalHandlerContext) {
  ASSERT_GE(RegisterThisThread("sig", 64), 0);
  SetTraceEnabled(true);

  struct sigaction sa, old;
  sa.sa_handler = &TraceFromHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR2, &sa, &old), 0);
  for (int i = 0; i < 10; ++i) {
    Trace(EventType::kTxnStart, static_cast<uint32_t>(i));
    raise(SIGUSR2);  // handler runs on this thread, interleaved with Trace
  }
  sigaction(SIGUSR2, &old, nullptr);

  EXPECT_EQ(g_handler_fires.load(), 10);
  const TraceRing* ring = Ring(CurrentTrack());
  EXPECT_EQ(ring->recorded(), 20u);
  std::vector<TraceEvent> out(ring->capacity());
  size_t n = ring->Snapshot(out.data());
  int delivered = 0;
  for (size_t i = 0; i < n; ++i) {
    if (out[i].type == static_cast<uint16_t>(EventType::kUipiDelivered)) {
      ++delivered;
      EXPECT_EQ(out[i].a32, 0xdeadu);
    }
  }
  EXPECT_EQ(delivered, 10);
}

// --- Counters / gauges / snapshot ---

TEST_F(ObsTest, CounterRegistryAndSnapshotJson) {
  static Counter c("obs_test.counter");  // registry is append-only
  c.Add(3);
  int gid = RegisterGauge("obs_test.gauge", [] { return 1.5; });

  MetricsSnapshot snap;
  snap.SetMeta("run", "unit");
  snap.CaptureRegistry();
  LatencyHistogram h;
  h.RecordNanos(1000);
  h.RecordNanos(2000);
  snap.AddHistogramNanos("lat", h);
  snap.AddTxnType("neworder", 10, 1, 0, 5.0, h);
  std::string json = snap.ToJson();
  UnregisterGauge(gid);

  EXPECT_TRUE(JsonIsStructurallyValid(json)) << json;
  EXPECT_NE(json.find("\"obs_test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"txn_types\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"committed\":10"), std::string::npos);
}

// --- LocalCounter: per-instance shares of one registry counter ---

TEST_F(ObsTest, LiveLocalsAndDirectAddsSumIntoOneSnapshotKey) {
  static Counter c("obs_test.local_sum");
  LocalCounter a(c);
  LocalCounter b(c);
  a.Add(2);
  b.Add(5);
  c.Add(10);

  MetricsSnapshot snap;
  snap.CaptureRegistry();
  std::string json = snap.ToJson();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonParse(json, &doc, &err)) << err;
  const JsonValue* v = doc.Path({"counters", "obs_test.local_sum"});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->number, 17);
  EXPECT_EQ(json.find("\"obs_test.local_sum\""),
            json.rfind("\"obs_test.local_sum\""))
      << "locals must not add keys of their own";
}

TEST_F(ObsTest, DestroyedLocalCountStaysInCounterValue) {
  static Counter c("obs_test.local_retired");
  {
    LocalCounter l(c);
    l.Add(7);
    EXPECT_EQ(c.Value(), 7u);
  }
  EXPECT_EQ(c.Value(), 7u) << "the total must not go back when a local dies";
  LocalCounter l2(c);
  l2.Add();
  EXPECT_EQ(l2.Value(), 1u);
  EXPECT_EQ(c.Value(), 8u);
}

TEST_F(ObsTest, EachLocalValueIsIndependent) {
  static Counter c("obs_test.local_independent");
  static Counter other("obs_test.local_other");
  LocalCounter a(c);
  LocalCounter b(c);
  LocalCounter x(other);
  a.Add(3);
  b.Add(4);
  x.Add(100);
  c.Add(1);
  EXPECT_EQ(a.Value(), 3u);
  EXPECT_EQ(b.Value(), 4u);
  EXPECT_EQ(x.Value(), 100u);
  EXPECT_EQ(c.Value(), 8u);
  EXPECT_EQ(other.Value(), 100u);
}

TEST_F(ObsTest, ConcurrentAddsWhileLocalsComeAndGoStayExact) {
  // Adders churn locals (link, add, unlink) and bump a long-lived one and
  // the counter directly, while a sampler reads Value(): every read is a
  // consistent, never-decreasing total, and the final total is exact.
  static Counter c("obs_test.local_churn");
  constexpr int kThreads = 4;
  constexpr int kLocals = 200;
  constexpr int kAddsPerLocal = 50;
  std::atomic<bool> done{false};
  std::atomic<bool> went_backwards{false};
  std::thread sampler([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      uint64_t v = c.Value();
      if (v < last) went_backwards.store(true);
      last = v;
    }
  });
  std::vector<std::thread> adders;
  for (int t = 0; t < kThreads; ++t) {
    adders.emplace_back([&] {
      LocalCounter resident(c);
      for (int i = 0; i < kLocals; ++i) {
        LocalCounter l(c);
        for (int j = 0; j < kAddsPerLocal; ++j) l.Add();
        resident.Add();
        c.Add();
      }
    });
  }
  for (auto& t : adders) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_FALSE(went_backwards.load());
  EXPECT_EQ(c.Value(),
            static_cast<uint64_t>(kThreads) * kLocals * (kAddsPerLocal + 2));
}

TEST_F(ObsTest, UnregisteredGaugeStopsBeingSampled) {
  int gid = RegisterGauge("obs_test.temp", [] { return 7.0; });
  UnregisterGauge(gid);
  bool seen = false;
  SampleGauges([&](const std::string& name, double) {
    if (name == "obs_test.temp") seen = true;
  });
  EXPECT_FALSE(seen);
}

TEST_F(ObsTest, JsonWriterEscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey").String("va\\l\nue\t\x01");
  w.EndObject();
  std::string s = w.str();
  EXPECT_TRUE(JsonIsStructurallyValid(s)) << s;
  EXPECT_NE(s.find("\\\""), std::string::npos);
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_NE(s.find("\\u0001"), std::string::npos);
}

TEST_F(ObsTest, StatsReporterAggregatesGauges) {
  double value = 1.0;
  int gid = RegisterGauge("obs_test.depth", [&value] { return value; });
  StatsReporter rep;
  rep.SampleOnce();
  value = 5.0;
  rep.SampleOnce();
  value = 3.0;
  rep.SampleOnce();
  UnregisterGauge(gid);

  MetricsSnapshot snap;
  rep.AppendTo(snap);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"obs_test.depth.last\":3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.depth.min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.depth.max\":5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.depth.mean\":3"), std::string::npos);
}

TEST_F(ObsTest, StatsReporterPacesOnAbsoluteDeadlines) {
  // A gauge whose sampling costs most of a period: with absolute-deadline
  // pacing N samples still cover ~N*period of wall clock, while the old
  // sleep-for-period loop drifted to period + sample cost per iteration
  // (~55% of the expected rate for these numbers). The bound sits between
  // the two with margin for a loaded machine.
  int gid = RegisterGauge("obs_test.slow_gauge", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    return 1.0;
  });
  StatsReporter rep(10);
  auto t0 = std::chrono::steady_clock::now();
  rep.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  rep.Stop();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  UnregisterGauge(gid);
  double expected = static_cast<double>(elapsed_ms) / 10.0;
  EXPECT_GE(rep.samples(), static_cast<uint64_t>(expected * 0.7))
      << "sampling drifted: slow SampleOnce stretched the cadence";
  EXPECT_LE(rep.samples(), static_cast<uint64_t>(expected * 1.5))
      << "falling behind must re-base, not burst catch-up samples";
}

// --- Stage histograms + JSON read-back ---

TEST_F(ObsTest, TimelineStagesFoldIntoRegistryHistograms) {
  auto stage_count = [](const char* name) -> double {
    MetricsSnapshot snap;
    snap.CaptureRegistry();
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonParse(snap.ToJson(), &doc, &err)) << err;
    const JsonValue* h = doc.Path({"histograms_ns", name});
    EXPECT_NE(h, nullptr) << name << " missing from the registry snapshot";
    return h != nullptr ? h->NumberOr("count", -1) : -1;
  };

  // The stage keys exist in every snapshot, populated or not.
  double run_hp = stage_count("sched.stage.run_hp");
  double wait_hp = stage_count("sched.stage.queue_wait_hp");
  double total = stage_count("net.stage.total");
  ASSERT_GE(run_hp, 0);

  TxnTimeline tl;
  tl.arrival_ns = 100;
  tl.admit_ns = 110;
  tl.enqueue_ns = 120;
  tl.dispatch_ns = 130;
  tl.first_run_ns = 150;
  tl.done_ns = 250;
  tl.reply_ns = 260;
  tl.high_priority = 1;
  RecordSchedStages(tl);
  RecordNetStages(tl);
  EXPECT_EQ(stage_count("sched.stage.run_hp"), run_hp + 1);
  EXPECT_EQ(stage_count("sched.stage.queue_wait_hp"), wait_hp + 1);
  EXPECT_EQ(stage_count("net.stage.total"), total + 1);

  // A timeline that never ran (deadline shed: first_run_ns == 0) must be
  // excluded from every stage so the histograms keep partitioning exactly
  // the requests counted in net.stage.total.
  TxnTimeline shed;
  shed.arrival_ns = 100;
  shed.enqueue_ns = 120;
  shed.done_ns = 130;
  shed.reply_ns = 140;
  shed.high_priority = 1;
  RecordSchedStages(shed);
  RecordNetStages(shed);
  EXPECT_EQ(stage_count("sched.stage.run_hp"), run_hp + 1);
  EXPECT_EQ(stage_count("net.stage.total"), total + 1);
}

TEST_F(ObsTest, JsonParseReadsBackWriterOutput) {
  static Counter c("obs_test.parse_counter");
  c.Add(5);
  MetricsSnapshot snap;
  snap.SetMeta("run", "parse");
  snap.CaptureRegistry();
  LatencyHistogram h;
  h.RecordNanos(1000);
  snap.AddHistogramNanos("obs_test.lat", h);

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonParse(snap.ToJson(), &doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* run = doc.Path({"meta", "run"});
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->str, "parse");
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->NumberOr("obs_test.parse_counter", 0), 5.0);
  const JsonValue* lat = doc.Path({"histograms_ns", "obs_test.lat"});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->NumberOr("count", 0), 1.0);
  // Log-bucketed: the percentile is the bucket midpoint, ~1.6% wide.
  EXPECT_NEAR(lat->NumberOr("p50_ns", 0), 1000.0, 50.0);

  // Escaped keys and values round-trip through writer + parser, not merely
  // echo: the parser must decode what the writer encoded.
  JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey").String("va\\l\nue\t");
  w.EndObject();
  ASSERT_TRUE(JsonParse(w.str(), &doc, &err)) << err;
  const JsonValue* v = doc.Find("k\"ey");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->str, "va\\l\nue\t");
}

// --- Exporter ---

TEST_F(ObsTest, ExporterProducesValidChromeTraceJson) {
  SetTraceEnabled(true);
  std::thread([] {
    ASSERT_GE(RegisterThisThread("worker-0", 64), 0);
    Trace(EventType::kTxnStart, 3);
    Trace(EventType::kHpDequeue, 1);
    Trace(EventType::kTxnCommit, 3, 1500);
  }).join();
  std::thread([] {
    ASSERT_GE(RegisterThisThread("scheduler", 64), 0);
    Trace(EventType::kUipiSent, 0);
    Trace(EventType::kHpShed, 0, 2);
  }).join();

  TraceExporter exp;
  EXPECT_EQ(exp.events().size(), 5u);
  std::string json = exp.ChromeTraceJson();
  EXPECT_TRUE(JsonIsStructurallyValid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track metadata names both threads.
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  // Txn start/commit become a balanced B/E slice pair.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"txn#3\""), std::string::npos);
}

TEST_F(ObsTest, ExporterMergesEventsInTimestampOrder) {
  SetTraceEnabled(true);
  std::thread([] {
    ASSERT_GE(RegisterThisThread("a", 64), 0);
    Trace(EventType::kTxnStart, 1);
  }).join();
  std::thread([] {
    ASSERT_GE(RegisterThisThread("b", 64), 0);
    Trace(EventType::kTxnStart, 2);
  }).join();
  TraceExporter exp;
  ASSERT_EQ(exp.events().size(), 2u);
  EXPECT_LE(exp.events()[0].ts_ns, exp.events()[1].ts_ns);
  EXPECT_EQ(exp.events()[0].a32, 1u);  // thread a ran (and recorded) first
}

TEST_F(ObsTest, ExporterClosesUnmatchedCommitAsInstant) {
  SetTraceEnabled(true);
  // Commit without a surviving start (e.g. overwritten by wraparound) must
  // not emit an unbalanced "E" event.
  ASSERT_GE(RegisterThisThread("w", 64), 0);
  Trace(EventType::kTxnCommit, 9, 100);
  TraceExporter exp;
  std::string json = exp.ChromeTraceJson();
  EXPECT_TRUE(JsonIsStructurallyValid(json)) << json;
  EXPECT_EQ(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(ObsTest, DeriveUipiLatencyPairsSendToDelivery) {
  SetTraceEnabled(true);
  // Worker registers first so the scheduler can target its track id.
  std::atomic<int> worker_track{-1};
  std::atomic<bool> sent{false};
  std::thread worker([&] {
    ASSERT_GE(RegisterThisThread("worker-0", 64), 0);
    worker_track.store(CurrentTrack());
    while (!sent.load(std::memory_order_acquire)) sched_yield();
    Trace(EventType::kUipiDelivered);  // after the send, as in the real path
  });
  std::thread sched([&] {
    ASSERT_GE(RegisterThisThread("scheduler", 64), 0);
    while (worker_track.load() < 0) sched_yield();
    Trace(EventType::kUipiSent,
          static_cast<uint32_t>(worker_track.load()));
    sent.store(true, std::memory_order_release);
  });
  worker.join();
  sched.join();

  TraceExporter exp;
  LatencyHistogram lat;
  EXPECT_EQ(exp.DeriveUipiLatency(&lat), 1u);
  EXPECT_EQ(lat.Count(), 1u);
  EXPECT_GT(lat.MaxNanos(), 0u);
}

}  // namespace
}  // namespace preemptdb::obs
