// Fault-injection framework tests: spec parsing, deterministic firing,
// injection points (log writes, allocator), retry policies, deadlines, and
// the Submit backpressure contract.
#include <gtest/gtest.h>

#include <cerrno>
#include <atomic>
#include <cstdio>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/preemptdb.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "util/clock.h"

namespace preemptdb {
namespace {

using namespace std::chrono_literals;

// Every test must leave the global registry disarmed or it poisons the rest
// of the binary (injection points are live in all hot paths).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

std::string TempPath(const char* tag) {
  return ::testing::TempDir() + "pdb_fault_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

DB::Options EngineOnly() {
  DB::Options o;
  o.start_scheduler = false;
  return o;
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
  uint64_t deadline = MonoNanos() + static_cast<uint64_t>(timeout_ms) * 1000000;
  while (MonoNanos() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST_F(FaultTest, DisabledByDefault) {
  EXPECT_FALSE(fault::Enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(fault::ShouldFire(fault::Point::kSigDrop));
  }
  EXPECT_EQ(fault::FireCount(fault::Point::kSigDrop), 0u);
  EXPECT_EQ(fault::EvalCount(fault::Point::kSigDrop), 0u);
}

TEST_F(FaultTest, ProbabilityOneFiresAlways) {
  fault::Configure(fault::Point::kSigDrop, 1.0);
  EXPECT_TRUE(fault::Enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fault::ShouldFire(fault::Point::kSigDrop));
  }
  EXPECT_EQ(fault::FireCount(fault::Point::kSigDrop), 100u);
  EXPECT_EQ(fault::EvalCount(fault::Point::kSigDrop), 100u);
}

TEST_F(FaultTest, ZeroProbabilityDisarms) {
  fault::Configure(fault::Point::kSigDrop, 1.0);
  fault::Configure(fault::Point::kSigDrop, 0.0);
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFire(fault::Point::kSigDrop));
}

TEST_F(FaultTest, ArmedPointsFireOthersDoNot) {
  fault::Configure(fault::Point::kLogWrite, 1.0, EIO);
  EXPECT_TRUE(fault::ShouldFire(fault::Point::kLogWrite));
  EXPECT_FALSE(fault::ShouldFire(fault::Point::kSigDrop));
  EXPECT_FALSE(fault::ShouldFire(fault::Point::kAllocFail));
  EXPECT_EQ(fault::Param(fault::Point::kLogWrite),
            static_cast<uint64_t>(EIO));
}

TEST_F(FaultTest, SameSeedSameFiringSequence) {
  auto draw = [](uint64_t seed, int n) {
    fault::Reset();
    fault::SetSeed(seed);
    fault::Configure(fault::Point::kSigDrop, 0.2);
    std::vector<bool> fired;
    fired.reserve(n);
    for (int i = 0; i < n; ++i) {
      fired.push_back(fault::ShouldFire(fault::Point::kSigDrop));
    }
    return fired;
  };
  auto a = draw(42, 2000);
  auto b = draw(42, 2000);
  EXPECT_EQ(a, b);
  auto c = draw(43, 2000);
  EXPECT_NE(a, c);
  // ~20% of draws fire; allow a generous band.
  int fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 200);
  EXPECT_LT(fires, 800);
}

TEST_F(FaultTest, SpecParsesAllClauses) {
  std::string err;
  ASSERT_TRUE(fault::ConfigureFromSpec(
      "sigdrop:0.25,sigdelay:5us:0.5,logwrite:eio:0.125,queuefull,"
      "allocfail:0.01,acceptfail:0.5,partialread,partialwrite:0.25,"
      "connreset:0.125",
      &err))
      << err;
  EXPECT_TRUE(fault::Enabled());
  EXPECT_EQ(fault::Param(fault::Point::kSigDelay), 5u);
  EXPECT_EQ(fault::Param(fault::Point::kLogWrite),
            static_cast<uint64_t>(EIO));
  // Probability-only clauses default to 1 when the :P is omitted.
  EXPECT_TRUE(fault::ShouldFire(fault::Point::kQueueFull));
  EXPECT_TRUE(fault::ShouldFire(fault::Point::kNetPartialRead));
}

TEST_F(FaultTest, SpecShortWriteAndEnospc) {
  ASSERT_TRUE(fault::ConfigureFromSpec("logwrite:short:0.5"));
  EXPECT_EQ(fault::Param(fault::Point::kLogWrite), 0u);
  ASSERT_TRUE(fault::ConfigureFromSpec("logwrite:enospc"));
  EXPECT_EQ(fault::Param(fault::Point::kLogWrite),
            static_cast<uint64_t>(ENOSPC));
}

TEST_F(FaultTest, MalformedSpecsRejectedAtomically) {
  std::string err;
  for (const char* bad :
       {"nonsense", "sigdrop:2.0", "sigdrop:-1", "sigdelay",
        "sigdelay:abc", "logwrite:ebadname", "sigdrop:0.5,,", "logwrite",
        "sigdrop:0.5,bogus:1"}) {
    fault::Reset();
    EXPECT_FALSE(fault::ConfigureFromSpec(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    // All-or-nothing: a partially valid spec must not arm anything.
    EXPECT_FALSE(fault::Enabled()) << bad;
  }
}

TEST_F(FaultTest, AllocFailMakesNothrowNewReturnNull) {
  fault::Configure(fault::Point::kAllocFail, 1.0);
  char* p = new (std::nothrow) char;
  fault::Reset();
  EXPECT_EQ(p, nullptr);
  delete p;
}

// --- Log write path ---

TEST_F(FaultTest, FileBackedLogWritesBytes) {
  engine::LogManager lm;
  std::string path = TempPath("plain");
  std::string err;
  ASSERT_TRUE(lm.OpenFile(path, &err)) << err;
  engine::LogBuffer buf;
  std::string payload(100, 'x');
  EXPECT_EQ(buf.Append(&lm, 1, 7, 7, payload.data(), 100, false), Rc::kOk);
  EXPECT_EQ(buf.Seal(&lm), Rc::kOk);
  EXPECT_GT(lm.total_bytes(), 100u);
  EXPECT_EQ(lm.io_errors(), 0u);
  lm.CloseFile();
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedEioSurfacesAsIoError) {
  engine::LogManager lm;
  std::string path = TempPath("eio");
  ASSERT_TRUE(lm.OpenFile(path));
  fault::Configure(fault::Point::kLogWrite, 1.0, EIO);
  engine::LogBuffer buf;
  std::string payload(64, 'y');
  EXPECT_EQ(buf.Append(&lm, 1, 1, 1, payload.data(), 64, false), Rc::kOk);
  EXPECT_EQ(buf.Seal(&lm), Rc::kIoError);
  fault::Reset();
  EXPECT_EQ(lm.io_errors(), 1u);
  EXPECT_EQ(lm.last_errno(), EIO);
  EXPECT_GT(lm.lost_bytes(), 0u);
  // The buffer emptied despite the failure: the next seal is clean, not a
  // splice of two transactions' records.
  EXPECT_EQ(buf.pos(), 0u);
  EXPECT_EQ(buf.Append(&lm, 1, 2, 2, payload.data(), 64, false), Rc::kOk);
  EXPECT_EQ(buf.Seal(&lm), Rc::kOk);
  lm.CloseFile();
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedShortWritesStillPersistEverything) {
  engine::LogManager lm;
  std::string path = TempPath("short");
  ASSERT_TRUE(lm.OpenFile(path));
  fault::Configure(fault::Point::kLogWrite, 1.0, 0);  // param 0 = short write
  engine::LogBuffer buf;
  std::string payload(500, 'z');
  EXPECT_EQ(buf.Append(&lm, 1, 3, 3, payload.data(), 500, false), Rc::kOk);
  Rc rc = buf.Seal(&lm);
  fault::Reset();
  EXPECT_EQ(rc, Rc::kOk);
  // On-disk size = payload plus the CRC frame header around each segment.
  uint64_t expect = lm.appended_bytes();
  EXPECT_EQ(expect,
            lm.total_bytes() + lm.segments() * sizeof(engine::SegmentHeader));
  lm.CloseFile();
  // Every byte reached the file despite each attempt being truncated.
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<uint64_t>(std::ftell(f)), expect);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST_F(FaultTest, CommitWithFailedLogWriteAbortsCleanly) {
  engine::Engine eng;
  auto* t = eng.CreateTable("t");
  std::string path = TempPath("commit");
  ASSERT_TRUE(eng.log_manager().OpenFile(path));

  // Baseline commit works file-backed.
  auto* txn = eng.Begin();
  ASSERT_EQ(txn->Insert(t, 1, "ok"), Rc::kOk);
  ASSERT_EQ(txn->Commit(), Rc::kOk);

  // Injected EIO: the commit must fail as kIoError and its writes must not
  // become visible (no committed-but-unlogged data).
  fault::Configure(fault::Point::kLogWrite, 1.0, EIO);
  txn = eng.Begin();
  ASSERT_EQ(txn->Insert(t, 2, "lost"), Rc::kOk);
  EXPECT_EQ(txn->Commit(), Rc::kIoError);
  fault::Reset();

  txn = eng.Begin();
  Slice s;
  EXPECT_EQ(txn->Read(t, 1, &s), Rc::kOk);
  EXPECT_EQ(txn->Read(t, 2, &s), Rc::kNotFound);
  txn->Commit();
  eng.log_manager().CloseFile();
  std::remove(path.c_str());
}

// --- Retry policy ---

TEST_F(FaultTest, RetryPolicyRetriesTransientAborts) {
  auto db = DB::Open(EngineOnly());
  std::atomic<int> calls{0};
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.initial_backoff_us = 1;
  Rc rc = db->Execute(
      [&](engine::Engine&) {
        return ++calls < 3 ? Rc::kAbortWriteConflict : Rc::kOk;
      },
      retry);
  EXPECT_EQ(rc, Rc::kOk);
  EXPECT_EQ(calls.load(), 3);
}

TEST_F(FaultTest, RetryPolicyExhaustsAndSurfacesLastAbort) {
  auto db = DB::Open(EngineOnly());
  std::atomic<int> calls{0};
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_us = 1;
  Rc rc = db->Execute(
      [&](engine::Engine&) {
        ++calls;
        return Rc::kAbortSerialization;
      },
      retry);
  EXPECT_EQ(rc, Rc::kAbortSerialization);
  EXPECT_EQ(calls.load(), 3);
}

TEST_F(FaultTest, RetryPolicyLeavesNonRetryableAlone) {
  auto db = DB::Open(EngineOnly());
  std::atomic<int> calls{0};
  RetryPolicy retry;
  retry.max_attempts = 10;
  Rc rc = db->Execute(
      [&](engine::Engine&) {
        ++calls;
        return Rc::kAbortUser;
      },
      retry);
  EXPECT_EQ(rc, Rc::kAbortUser);
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(FaultTest, SubmitAndWaitAppliesRetryPolicy) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(o);
  std::atomic<int> calls{0};
  SubmitOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_us = 1;
  Rc rc = db->SubmitAndWait(
      sched::Priority::kHigh,
      [&](engine::Engine&) {
        return ++calls < 4 ? Rc::kAbortWriteConflict : Rc::kOk;
      },
      opts);
  EXPECT_EQ(rc, Rc::kOk);
  EXPECT_EQ(calls.load(), 4);
}

// --- Deadlines ---

TEST_F(FaultTest, SubmitAndWaitForTimesOutQueuedWork) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 1;
  o.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(o);
  // Block the only worker so the timed submission dies in the queue.
  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  auto blocker = std::thread([&] {
    db->SubmitAndWait(sched::Priority::kHigh, [&](engine::Engine&) {
      running.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);
      return Rc::kOk;
    });
  });
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));
  // Free the worker only well after the 2 ms deadline below: the timed
  // submission must expire (queue-side or at dequeue), never execute. The
  // waiter unblocks as soon as the pipeline completes it as kTimeout.
  auto releaser = std::thread([&] {
    std::this_thread::sleep_for(300ms);
    release.store(true);
  });
  std::atomic<bool> ran{false};
  Rc rc = db->SubmitAndWaitFor(
      sched::Priority::kHigh,
      [&](engine::Engine&) {
        ran.store(true);
        return Rc::kOk;
      },
      2000);  // 2 ms; the worker stays blocked for 300 ms
  EXPECT_EQ(rc, Rc::kTimeout);
  EXPECT_FALSE(ran.load()) << "expired work must never execute";
  releaser.join();
  blocker.join();
}

TEST_F(FaultTest, GenerousDeadlineCompletesNormally) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(o);
  Rc rc = db->SubmitAndWaitFor(
      sched::Priority::kHigh, [](engine::Engine&) { return Rc::kOk; },
      5'000'000);  // 5 s
  EXPECT_EQ(rc, Rc::kOk);
}

// --- Submit backpressure contract ---

TEST_F(FaultTest, SubmitReportsQueueFull) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 1;
  o.scheduler.arrival_interval_us = 200000;
  o.submit_queue_capacity = 4;
  auto db = DB::Open(o);
  // A held worker plus a tiny queue makes rejection deterministic: the
  // worker runs a closure blocked on `release` and a second one fills its
  // one-slot LP queue, so nothing drains between the burst's submissions.
  std::atomic<bool> release{false};
  auto running = std::make_shared<std::atomic<bool>>(false);
  ASSERT_EQ(db->Submit(sched::Priority::kLow,
                       [running, &release](engine::Engine&) {
                         running->store(true);
                         while (!release.load()) {
                           std::this_thread::sleep_for(1ms);
                         }
                         return Rc::kOk;
                       }),
            SubmitResult::kAccepted);
  const bool wedged =
      WaitUntil([&] { return running->load(); }, 5000) &&
      db->Submit(sched::Priority::kLow, [](engine::Engine&) {
        return Rc::kOk;
      }) == SubmitResult::kAccepted &&
      WaitUntil([&] { return db->scheduler().worker(0).LpDepth() == 1; },
                5000);
  if (!wedged) release.store(true);
  ASSERT_TRUE(wedged);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 64; ++i) {
    SubmitResult r = db->Submit(sched::Priority::kLow,
                                [](engine::Engine&) { return Rc::kOk; });
    if (r == SubmitResult::kAccepted) ++accepted;
    if (r == SubmitResult::kQueueFull) ++rejected;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(accepted + rejected, 64);
  EXPECT_STREQ(SubmitResultString(SubmitResult::kQueueFull), "queue_full");
  release.store(true);
  db->Drain();  // accepted submissions all complete; rejects don't wedge it
}

// --- Shed / requeue under forced queue-full ---

TEST_F(FaultTest, ForcedQueueFullShedsThenRecovers) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 2;
  o.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(o);
  // Placement sees every HP queue as full: each tick sheds the whole batch
  // back through on_shed, which requeues the closures.
  fault::Configure(fault::Point::kQueueFull, 1.0);
  std::atomic<int> ran{0};
  const int kSubmissions = 32;
  for (int i = 0; i < kSubmissions; ++i) {
    ASSERT_EQ(db->Submit(sched::Priority::kHigh,
                         [&](engine::Engine&) {
                           ran.fetch_add(1);
                           return Rc::kOk;
                         }),
              SubmitResult::kAccepted);
  }
  // Give the scheduler time to churn the shed/requeue loop.
  ASSERT_TRUE(WaitUntil(
      [&] { return db->scheduler().hp_dropped() > 0; }, 5000))
      << "forced queue-full must shed at the interval deadline";
  EXPECT_EQ(ran.load(), 0) << "nothing can run while placement is blocked";
  // Recovery: disarm and everything completes; Drain terminates.
  fault::Reset();
  db->Drain();
  EXPECT_EQ(ran.load(), kSubmissions) << "no submission may be lost";
}

// --- SendUipi failure handling + graceful degradation ---

TEST_F(FaultTest, SigDropDemotesThenRecoveryPromotes) {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 1;
  o.scheduler.arrival_interval_us = 500;
  o.scheduler.tunables.demote_failure_threshold = 3;
  o.scheduler.tunables.probe_interval_ticks = 4;
  auto db = DB::Open(o);
  // A long LP transaction keeps the worker inside a preemptible window so
  // HP work depends on interrupts (or, degraded, on yield hooks).
  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  auto blocker = std::thread([&] {
    db->SubmitAndWait(sched::Priority::kLow, [&](engine::Engine&) {
      running.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);
      return Rc::kOk;
    });
  });
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  // Every interrupt send is swallowed: consecutive failures cross the
  // demotion threshold as the scheduler keeps re-interrupting for the
  // stuck HP work.
  fault::Configure(fault::Point::kSigDrop, 1.0);
  std::atomic<int> hp_ran{0};
  for (int i = 0; i < 8; ++i) {
    db->Submit(sched::Priority::kHigh, [&](engine::Engine&) {
      hp_ran.fetch_add(1);
      return Rc::kOk;
    });
  }
  ASSERT_TRUE(WaitUntil([&] { return db->scheduler().demotions() > 0; }, 5000))
      << "sustained send failure must demote the worker";
  EXPECT_TRUE(db->scheduler().worker_degraded(0));

  // Signal path heals: a probe gets through, the scheduler promotes the
  // worker back to preempt placement.
  fault::Reset();
  ASSERT_TRUE(WaitUntil([&] { return db->scheduler().promotions() > 0; }, 5000))
      << "a successful probe must promote the worker back";
  EXPECT_FALSE(db->scheduler().worker_degraded(0));

  release.store(true);
  blocker.join();
  db->Drain();
  EXPECT_EQ(hp_ran.load(), 8) << "no HP submission may be lost to drops";
}

// --- Networked front-end fault points ---

std::unique_ptr<DB> OpenNetDb() {
  DB::Options o;
  o.scheduler.policy = sched::Policy::kPreempt;
  o.scheduler.num_workers = 1;
  o.scheduler.arrival_interval_us = 500;
  return DB::Open(o);
}

TEST_F(FaultTest, PartialReadsAndWritesOnlySlowRequestsDown) {
  auto db = OpenNetDb();
  net::Server server(db.get(), {});
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  // Every server-side read and write is truncated to one byte: a 48-byte
  // request header takes ~48 reads, a response dribbles out byte by byte.
  // Level-triggered epoll must keep resuming both directions until each
  // frame completes — correctness is untouched, only latency suffers.
  fault::Configure(fault::Point::kNetPartialRead, 1.0);
  fault::Configure(fault::Point::kNetPartialWrite, 1.0);

  net::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  net::Client::Result res;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.Put(static_cast<uint64_t>(i + 1), "chunked",
                      net::WireClass::kHigh, &res, &err))
        << err << " op " << i;
    EXPECT_EQ(res.status, net::WireStatus::kOk);
  }
  ASSERT_TRUE(c.Get(3, net::WireClass::kLow, &res, &err)) << err;
  EXPECT_EQ(res.status, net::WireStatus::kOk);
  EXPECT_EQ(res.payload, "chunked");

  EXPECT_GT(fault::FireCount(fault::Point::kNetPartialRead), 48u);
  EXPECT_GT(fault::FireCount(fault::Point::kNetPartialWrite), 32u);
  fault::Reset();
  server.Stop();
}

TEST_F(FaultTest, InjectedAcceptFailureDropsConnNotServer) {
  auto db = OpenNetDb();
  net::Server server(db.get(), {});
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  fault::Configure(fault::Point::kNetAccept, 1.0);
  {
    net::Client c;
    // connect() itself succeeds (the kernel completed the handshake from the
    // backlog); the injected failure closes the fd server-side, so the first
    // round trip fails instead.
    if (c.Connect("127.0.0.1", server.port(), &err)) {
      net::Client::Result res;
      EXPECT_FALSE(c.Ping(&res, &err));
    }
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return fault::FireCount(fault::Point::kNetAccept) >= 1; }, 5000));
  EXPECT_EQ(server.conns_accepted(), 0u);

  // Disarm: the server itself is unharmed and accepts normally.
  fault::Reset();
  net::Client c2;
  ASSERT_TRUE(c2.Connect("127.0.0.1", server.port(), &err)) << err;
  net::Client::Result res;
  ASSERT_TRUE(c2.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, net::WireStatus::kOk);
  server.Stop();
}

TEST_F(FaultTest, ConnResetMidResponseNeverLosesAcceptedSubmission) {
  auto db = OpenNetDb();
  net::Server server(db.get(), {});
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  // Establish the connection and a baseline round trip first, then arm the
  // reset so it fires on the next queued response.
  net::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  net::Client::Result res;
  ASSERT_TRUE(c.Put(1, "before", net::WireClass::kHigh, &res, &err)) << err;
  ASSERT_EQ(res.status, net::WireStatus::kOk);

  fault::Configure(fault::Point::kNetReset, 1.0);
  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(net::Op::kPut);
  h.prio_class = static_cast<uint8_t>(net::WireClass::kHigh);
  h.params[0] = 2;
  ASSERT_TRUE(c.Send(h, "after", &err)) << err;
  // The client observes a hard close instead of its response.
  EXPECT_FALSE(c.Recv(&res, &err));

  ASSERT_TRUE(WaitUntil([&] { return server.conn_resets_injected() >= 1; },
                        5000));
  db->Drain();
  fault::Reset();
  // The accepted submission completed despite the reset: the write is
  // committed and only the reply bytes were lost.
  EXPECT_EQ(server.admitted(), 2u);
  ASSERT_TRUE(
      WaitUntil([&] { return server.responses_dropped() >= 1; }, 5000));
  Rc rc = db->Execute([&](engine::Engine& eng) {
    auto* t = eng.GetTable("netkv");
    auto* txn = eng.Begin();
    Slice s;
    Rc r = txn->Read(t, 2, &s);
    if (!IsOk(r)) {
      txn->Abort();
      return r;
    }
    EXPECT_EQ(std::string(s.data, s.size), "after");
    return txn->Commit();
  });
  EXPECT_EQ(rc, Rc::kOk) << "reset must lose reply bytes, not the txn";
  server.Stop();
}

}  // namespace
}  // namespace preemptdb
