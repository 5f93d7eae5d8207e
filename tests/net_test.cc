// Networked front-end tests: wire protocol round trips, admission
// classification, and — the part that matters — the PR-2 backpressure
// contract surfacing on the wire: kQueueFull as BUSY, deadlines as TIMEOUT
// (expired work never executed), zero timeout meaning "no deadline", and a
// dead peer losing only its reply bytes, never an accepted submission.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/preemptdb.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace preemptdb {
namespace {

using namespace std::chrono_literals;
using net::Op;
using net::WireClass;
using net::WireStatus;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
  uint64_t deadline = MonoNanos() + static_cast<uint64_t>(timeout_ms) * 1000000;
  while (MonoNanos() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// DB + server on an ephemeral loopback port, torn down in order (server
// before DB, as the server contract requires).
class NetTest : public ::testing::Test {
 protected:
  void Start(DB::Options dbo, net::Server::Options so = {}) {
    db_ = DB::Open(dbo);
    server_ = std::make_unique<net::Server>(db_.get(), so);
    std::string err;
    ASSERT_TRUE(server_->Start(&err)) << err;
  }

  void StartDefault() {
    DB::Options dbo;
    dbo.scheduler.policy = sched::Policy::kPreempt;
    dbo.scheduler.num_workers = 2;
    dbo.scheduler.arrival_interval_us = 500;
    Start(dbo);
  }

  // Single worker + fast tick: tests that need to wedge the pipeline block
  // the one worker with a direct Submit and own the timing completely.
  void StartSingleWorker(net::Server::Options so = {}) {
    DB::Options dbo;
    dbo.scheduler.policy = sched::Policy::kPreempt;
    dbo.scheduler.num_workers = 1;
    dbo.scheduler.arrival_interval_us = 500;
    Start(dbo, so);
  }

  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    db_.reset();
  }

  net::Client Connect() {
    net::Client c;
    std::string err;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port(), &err)) << err;
    return c;
  }

  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
};

// --- Protocol layer (no sockets) ---

TEST(NetProtocolTest, RequestHeaderRoundTrip) {
  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kScanSum);
  h.prio_class = 1;
  h.request_id = 0xdeadbeefcafe;
  h.timeout_us = 1234;
  h.params[0] = 7;
  h.params[1] = 9000;
  std::string frame;
  net::EncodeRequest(h, "xyz", &frame);
  ASSERT_EQ(frame.size(), net::kRequestHeaderSize + 3);
  net::RequestHeader d;
  ASSERT_TRUE(net::DecodeRequestHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), &d));
  EXPECT_EQ(d.opcode, h.opcode);
  EXPECT_EQ(d.prio_class, 1);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.timeout_us, 1234u);
  EXPECT_EQ(d.payload_len, 3u);
  EXPECT_EQ(d.params[1], 9000u);
}

TEST(NetProtocolTest, DecodeRejectsCorruptHeaders) {
  net::RequestHeader h;
  std::string frame;
  net::EncodeRequest(h, {}, &frame);
  net::RequestHeader d;

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_FALSE(net::DecodeRequestHeader(
      reinterpret_cast<const uint8_t*>(bad_magic.data()), &d));

  // An unknown *request* version still decodes (the layout is version-
  // stable); the server answers it with kBadRequest rather than poisoning
  // the connection — see VersionNegotiation below.
  std::string odd_version = frame;
  odd_version[4] = 99;
  EXPECT_TRUE(net::DecodeRequestHeader(
      reinterpret_cast<const uint8_t*>(odd_version.data()), &d));
  EXPECT_EQ(d.version, 99);

  // Claimed payload beyond kMaxPayload is rejected before any allocation.
  std::string bad_len = frame;
  uint32_t huge = net::kMaxPayload + 1;
  std::memcpy(&bad_len[20], &huge, sizeof(huge));
  EXPECT_FALSE(net::DecodeRequestHeader(
      reinterpret_cast<const uint8_t*>(bad_len.data()), &d));
}

TEST(NetProtocolTest, ResponseHeaderRoundTrip) {
  net::ResponseHeader h;
  h.status = static_cast<uint8_t>(WireStatus::kTimeout);
  h.rc = static_cast<uint8_t>(Rc::kTimeout);
  h.request_id = 42;
  h.server_ns = 5555;
  std::string frame;
  net::EncodeResponse(h, "pp", &frame);
  ASSERT_EQ(frame.size(), net::kResponseHeaderSize + 2);
  net::ResponseHeader d;
  ASSERT_TRUE(net::DecodeResponseHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), &d));
  EXPECT_EQ(d.status, h.status);
  EXPECT_EQ(d.rc, h.rc);
  EXPECT_EQ(d.request_id, 42u);
  EXPECT_EQ(d.server_ns, 5555u);
  EXPECT_EQ(d.payload_len, 2u);
}

TEST(NetProtocolTest, StatusFromRcCoarsens) {
  EXPECT_EQ(net::StatusFromRc(Rc::kOk), WireStatus::kOk);
  EXPECT_EQ(net::StatusFromRc(Rc::kNotFound), WireStatus::kNotFound);
  EXPECT_EQ(net::StatusFromRc(Rc::kAbortWriteConflict), WireStatus::kAborted);
  EXPECT_EQ(net::StatusFromRc(Rc::kAbortSerialization), WireStatus::kAborted);
  EXPECT_EQ(net::StatusFromRc(Rc::kTimeout), WireStatus::kTimeout);
  EXPECT_EQ(net::StatusFromRc(Rc::kIoError), WireStatus::kError);
  EXPECT_STREQ(net::WireStatusString(WireStatus::kBusy), "busy");
}

// --- End-to-end KV round trips ---

TEST_F(NetTest, PingAndKvOpsRoundTrip) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_GT(res.server_ns, 0u);

  ASSERT_TRUE(c.Put(7, "hello", WireClass::kHigh, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);

  ASSERT_TRUE(c.Get(7, WireClass::kHigh, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.payload, "hello");

  // Upsert: Put on an existing key overwrites.
  ASSERT_TRUE(c.Put(7, "world", WireClass::kLow, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  ASSERT_TRUE(c.Get(7, WireClass::kLow, &res, &err)) << err;
  EXPECT_EQ(res.payload, "world");

  ASSERT_TRUE(c.Get(9999, WireClass::kHigh, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kNotFound);
  EXPECT_EQ(res.rc, Rc::kNotFound);

  // ScanSum over [1, 100]: one key with 5 bytes.
  ASSERT_TRUE(c.ScanSum(1, 100, WireClass::kLow, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  ASSERT_EQ(res.payload.size(), 16u);
  uint64_t count, bytes;
  std::memcpy(&count, res.payload.data(), 8);
  std::memcpy(&bytes, res.payload.data() + 8, 8);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(bytes, 5u);

  EXPECT_EQ(server_->bad_requests(), 0u);
  EXPECT_GE(server_->admitted(), 5u);  // ping is admission-free
}

TEST_F(NetTest, BadRequestsGetExplicitStatusAndConnectionSurvives) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  net::RequestHeader h;
  h.opcode = 200;  // unknown opcode
  ASSERT_TRUE(c.Call(h, {}, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  h = net::RequestHeader{};
  h.opcode = static_cast<uint8_t>(Op::kGet);
  h.prio_class = 7;  // not a WireClass
  ASSERT_TRUE(c.Call(h, {}, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  EXPECT_EQ(server_->bad_requests(), 2u);
  // Bad requests are per-frame errors, not framing corruption: the same
  // connection keeps working.
  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, CorruptFramingClosesTheConnection) {
  StartDefault();
  net::Client c = Connect();
  std::string junk(net::kRequestHeaderSize, 'Z');
  ASSERT_EQ(::send(c.fd(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  net::Client::Result res;
  std::string err;
  EXPECT_FALSE(c.Recv(&res, &err));  // server closed us: framing is gone
  ASSERT_TRUE(WaitUntil([&] { return server_->conns_closed() >= 1; }, 5000));

  // A fresh connection is unaffected.
  net::Client c2 = Connect();
  ASSERT_TRUE(c2.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, OversizedPayloadRejectedPerServerLimit) {
  net::Server::Options so;
  so.max_payload = 64;
  StartSingleWorker(so);
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  // 65 bytes: over this server's cap but under the protocol cap, so the
  // frame parses and the server answers BAD_REQUEST instead of closing.
  ASSERT_TRUE(c.Put(1, std::string(65, 'x'), WireClass::kHigh, &res, &err))
      << err;
  EXPECT_EQ(res.status, WireStatus::kBadRequest);
  ASSERT_TRUE(c.Put(1, std::string(64, 'x'), WireClass::kHigh, &res, &err))
      << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

// --- Backpressure contract on the wire ---

// Fills the only worker's pipeline ahead of a wire burst: the worker runs a
// closure blocked on `release`, and a second closure occupies its one-slot
// LP queue, so nothing leaves the submission queue until `release` is set.
// Dispatch is event-driven, so only a held worker makes the pipeline full by
// construction. On failure it sets `release` itself and returns false.
bool WedgeOnlyWorker(DB& db, std::atomic<bool>& release) {
  auto running = std::make_shared<std::atomic<bool>>(false);
  bool ok = db.Submit(sched::Priority::kLow,
                      [running, &release](engine::Engine&) {
                        running->store(true);
                        while (!release.load()) {
                          std::this_thread::sleep_for(1ms);
                        }
                        return Rc::kOk;
                      }) == SubmitResult::kAccepted &&
            WaitUntil([&] { return running->load(); }, 5000) &&
            db.Submit(sched::Priority::kLow, [](engine::Engine&) {
              return Rc::kOk;
            }) == SubmitResult::kAccepted &&
            WaitUntil(
                [&] { return db.scheduler().worker(0).LpDepth() == 1; },
                5000);
  if (!ok) release.store(true);
  return ok;
}

TEST_F(NetTest, QueueFullSurfacesAsBusyNeverSilentlyDropped) {
  // Tiny submission queue in front of a held worker: a pipelined burst must
  // split into kAccepted (eventually kOk) and kQueueFull (immediately BUSY),
  // with every single request answered.
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 1;
  dbo.scheduler.arrival_interval_us = 200000;
  dbo.submit_queue_capacity = 4;
  Start(dbo);
  std::atomic<bool> release{false};
  ASSERT_TRUE(WedgeOnlyWorker(*db_, release));

  net::Client c = Connect();
  std::string err;
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kGet);
    h.prio_class = static_cast<uint8_t>(WireClass::kLow);
    h.params[0] = 1;
    ASSERT_TRUE(c.Send(h, {}, &err)) << err;
  }
  // Let the server admit or reject the whole burst before the pipeline
  // drains, then release the worker so the admitted part completes.
  const bool all_stamped = WaitUntil(
      [&] { return server_->admitted() + server_->busy() == kBurst; }, 5000);
  release.store(true);
  ASSERT_TRUE(all_stamped);
  int ok = 0, busy = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    net::Client::Result res;
    ASSERT_TRUE(c.Recv(&res, &err)) << err << " after " << i;
    if (res.status == WireStatus::kBusy) {
      ++busy;
    } else if (res.status == WireStatus::kOk ||
               res.status == WireStatus::kNotFound) {
      ++ok;
    } else {
      ++other;
    }
  }
  EXPECT_GT(busy, 0) << "queue of 4 cannot absorb a burst of 64";
  EXPECT_GT(ok, 0) << "the queue's worth of requests must still be served";
  EXPECT_EQ(other, 0);
  EXPECT_EQ(ok + busy, kBurst) << "no request may go unanswered";
  EXPECT_EQ(server_->busy(), static_cast<uint64_t>(busy));
  EXPECT_GT(server_->admitted(), 0u);
}

TEST_F(NetTest, ZeroTimeoutMeansNoDeadline) {
  StartSingleWorker();
  // Wedge the only worker long enough that any accidental deadline would
  // fire; a timeout_us=0 request must simply wait and complete.
  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  ASSERT_EQ(db_->Submit(sched::Priority::kHigh,
                        [&](engine::Engine&) {
                          running.store(true);
                          while (!release.load()) {
                            std::this_thread::sleep_for(1ms);
                          }
                          return Rc::kOk;
                        }),
            SubmitResult::kAccepted);
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  net::Client c = Connect();
  std::string err;
  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kPut);
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  h.timeout_us = 0;  // explicitly: no deadline
  h.params[0] = 5;
  ASSERT_TRUE(c.Send(h, "v", &err)) << err;

  std::this_thread::sleep_for(100ms);  // long past any plausible deadline
  release.store(true);

  net::Client::Result res;
  ASSERT_TRUE(c.Recv(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(server_->timeouts(), 0u);
}

TEST_F(NetTest, DeadlineExpiringWhileQueuedAnswersTimeoutAndNeverRuns) {
  // Custom handler so execution is observable: the timed-out request must
  // never reach it.
  std::atomic<int> executed{0};
  net::Server::Options so;
  so.handler = [&](engine::Engine&, const net::RequestHeader&,
                   const std::string&, std::string*) {
    executed.fetch_add(1);
    return Rc::kOk;
  };
  StartSingleWorker(so);

  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  ASSERT_EQ(db_->Submit(sched::Priority::kHigh,
                        [&](engine::Engine&) {
                          running.store(true);
                          while (!release.load()) {
                            std::this_thread::sleep_for(1ms);
                          }
                          return Rc::kOk;
                        }),
            SubmitResult::kAccepted);
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  net::Client c = Connect();
  std::string err;
  net::RequestHeader h;
  h.opcode = 1;
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  h.timeout_us = 2000;  // 2 ms; the worker stays wedged for ~300 ms
  ASSERT_TRUE(c.Send(h, {}, &err)) << err;

  // Expiry is detected when the pipeline next touches the closure (dequeue /
  // pre-exec), so free the worker well after the deadline: the request must
  // then complete as TIMEOUT, not run.
  auto releaser = std::thread([&] {
    std::this_thread::sleep_for(300ms);
    release.store(true);
  });

  net::Client::Result res;
  ASSERT_TRUE(c.Recv(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kTimeout);
  EXPECT_EQ(res.rc, Rc::kTimeout);
  EXPECT_EQ(server_->timeouts(), 1u);

  releaser.join();
  db_->Drain();
  EXPECT_EQ(executed.load(), 0) << "expired work must never execute";
}

TEST_F(NetTest, PerConnectionInflightCapAnswersBusy) {
  net::Server::Options so;
  so.max_inflight = 1;
  StartSingleWorker(so);

  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  ASSERT_EQ(db_->Submit(sched::Priority::kHigh,
                        [&](engine::Engine&) {
                          running.store(true);
                          while (!release.load()) {
                            std::this_thread::sleep_for(1ms);
                          }
                          return Rc::kOk;
                        }),
            SubmitResult::kAccepted);
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  net::Client c = Connect();
  std::string err;
  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kGet);
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  h.params[0] = 1;
  // Two pipelined requests against max_inflight=1: the first is admitted
  // (and parks behind the wedged worker), the second bounces as BUSY.
  ASSERT_TRUE(c.Send(h, {}, &err)) << err;
  ASSERT_TRUE(c.Send(h, {}, &err)) << err;

  net::Client::Result res;
  ASSERT_TRUE(c.Recv(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kBusy);

  release.store(true);
  ASSERT_TRUE(c.Recv(&res, &err)) << err;
  EXPECT_TRUE(res.status == WireStatus::kOk ||
              res.status == WireStatus::kNotFound);
}

TEST_F(NetTest, DeadPeerLosesOnlyReplyBytesNeverTheSubmission) {
  // The client vanishes while its request is still executing. The accepted
  // submission must run to completion (its write commits); only the reply
  // is dropped.
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  net::Server::Options so;
  so.handler = [&](engine::Engine& eng, const net::RequestHeader& req,
                   const std::string&, std::string*) {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(1ms);
    }
    auto* t = eng.GetTable("netkv");
    auto* txn = eng.Begin();
    Rc r = txn->Insert(t, req.params[0], "survived");
    if (!IsOk(r)) {
      txn->Abort();
      return r;
    }
    return txn->Commit();
  };
  StartSingleWorker(so);
  // Custom handlers own their tables; the server only auto-creates the KV
  // table for the built-in dispatch.
  db_->CreateTable("netkv");

  {
    net::Client c = Connect();
    std::string err;
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kPut);
    h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
    h.params[0] = 77;
    ASSERT_TRUE(c.Send(h, {}, &err)) << err;
    ASSERT_TRUE(WaitUntil([&] { return entered.load(); }, 5000));
  }  // client destroyed: socket closed mid-execution
  ASSERT_TRUE(WaitUntil([&] { return server_->conns_closed() >= 1; }, 5000));
  release.store(true);
  db_->Drain();

  EXPECT_EQ(server_->admitted(), 1u);
  ASSERT_TRUE(WaitUntil([&] { return server_->responses_dropped() >= 1; },
                        5000))
      << "the completion must have found a dead connection";

  // The transaction's effect is durable and visible engine-side.
  Rc rc = db_->Execute([&](engine::Engine& eng) {
    auto* t = eng.GetTable("netkv");
    auto* txn = eng.Begin();
    Slice s;
    Rc r = txn->Read(t, 77, &s);
    if (IsOk(r)) {
      EXPECT_EQ(std::string(s.data, s.size), "survived");
      return txn->Commit();
    }
    txn->Abort();
    return r;
  });
  EXPECT_EQ(rc, Rc::kOk);
}

TEST_F(NetTest, CustomHandlerReplacesKvDispatch) {
  net::Server::Options so;
  so.handler = [](engine::Engine&, const net::RequestHeader&,
                  const std::string& payload, std::string* reply) {
    reply->assign(payload.rbegin(), payload.rend());
    return Rc::kOk;
  };
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);

  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  net::RequestHeader h;
  h.opcode = 200;  // custom handlers own the opcode space entirely
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  ASSERT_TRUE(c.Call(h, "abc", &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.payload, "cba");
}

TEST_F(NetTest, HighPriorityOvertakesQueuedLowPriority) {
  // One worker, wedged while a burst of LP scans and then one HP get are
  // queued. On release the HP request must not be answered last even though
  // it was sent last — admission classification put it on the high-priority
  // queue, which drains first.
  StartSingleWorker();
  net::Client c = Connect();
  std::string err;
  // Seed one key so ops do real work.
  net::Client::Result res;
  ASSERT_TRUE(c.Put(1, "v", WireClass::kHigh, &res, &err)) << err;

  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  ASSERT_EQ(db_->Submit(sched::Priority::kHigh,
                        [&](engine::Engine&) {
                          running.store(true);
                          while (!release.load()) {
                            std::this_thread::sleep_for(1ms);
                          }
                          return Rc::kOk;
                        }),
            SubmitResult::kAccepted);
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  constexpr int kLpBurst = 8;
  for (int i = 0; i < kLpBurst; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kScanSum);
    h.prio_class = static_cast<uint8_t>(WireClass::kLow);
    h.params[0] = 1;
    h.params[1] = 1000;
    ASSERT_TRUE(c.Send(h, {}, &err)) << err;
  }
  net::RequestHeader hp;
  hp.opcode = static_cast<uint8_t>(Op::kGet);
  hp.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  hp.params[0] = 1;
  uint64_t hp_id = 0;
  ASSERT_TRUE(c.Send(hp, {}, &err, &hp_id)) << err;

  // Everything is queued behind the wedge; let the worker loose.
  std::this_thread::sleep_for(20ms);
  release.store(true);

  int hp_position = -1;
  for (int i = 0; i < kLpBurst + 1; ++i) {
    ASSERT_TRUE(c.Recv(&res, &err)) << err;
    if (res.request_id == hp_id) hp_position = i;
  }
  ASSERT_GE(hp_position, 0);
  EXPECT_LT(hp_position, kLpBurst)
      << "the HP request must overtake at least one queued LP scan";
}

// --- Protocol versioning, timeline echo, admin plane ---

TEST(NetProtocolTest, TimelineWireTrailsThePayloadAndRoundTrips) {
  net::TimelineWire t;
  t.arrival_ns = 100;
  t.admit_ns = 110;
  t.enqueue_ns = 120;
  t.dispatch_ns = 130;
  t.first_run_ns = 140;
  t.done_ns = 150;
  t.reply_ns = 160;
  t.last_resume_ns = 145;
  t.preempts = 3;
  t.yields = 2;
  std::string payload = "body-bytes";
  net::AppendTimelineWire(t, &payload);
  ASSERT_EQ(payload.size(), 10 + net::kTimelineWireSize);
  EXPECT_EQ(payload.compare(0, 10, "body-bytes"), 0)
      << "the timeline is appended, never prepended";

  net::TimelineWire d;
  ASSERT_TRUE(net::DecodeTimelineWire(payload, &d));
  EXPECT_EQ(d.arrival_ns, 100u);
  EXPECT_EQ(d.enqueue_ns, 120u);
  EXPECT_EQ(d.first_run_ns, 140u);
  EXPECT_EQ(d.reply_ns, 160u);
  EXPECT_EQ(d.last_resume_ns, 145u);
  EXPECT_EQ(d.preempts, 3u);
  EXPECT_EQ(d.yields, 2u);

  std::string too_short(net::kTimelineWireSize - 1, 'x');
  EXPECT_FALSE(net::DecodeTimelineWire(too_short, &d));
}

TEST(NetProtocolTest, EncodersPreserveSupportedVersionsAndClampOthers) {
  // The current version survives encoding; any other (the retired v1, an
  // unknown future one) is stamped over with the current version.
  net::RequestHeader h;
  net::RequestHeader d;
  std::string frame;
  for (uint8_t v : {net::kProtocolVersion, uint8_t{1}, uint8_t{99}}) {
    h.version = v;
    frame.clear();
    net::EncodeRequest(h, {}, &frame);
    ASSERT_TRUE(net::DecodeRequestHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), &d));
    EXPECT_EQ(d.version, net::kProtocolVersion) << "encoded as v" << int{v};
  }

  // Response side: the current version round-trips, but a spliced other
  // version fails the decode — the client must not interpret fields another
  // server version may define differently.
  net::ResponseHeader rh;
  frame.clear();
  net::EncodeResponse(rh, {}, &frame);
  net::ResponseHeader rd;
  ASSERT_TRUE(net::DecodeResponseHeader(
      reinterpret_cast<const uint8_t*>(frame.data()), &rd));
  EXPECT_EQ(rd.version, net::kProtocolVersion);
  for (char v : {1, 99}) {
    frame[4] = v;
    EXPECT_FALSE(net::DecodeResponseHeader(
        reinterpret_cast<const uint8_t*>(frame.data()), &rd));
  }
}

TEST_F(NetTest, UnsupportedVersionAnswersBadRequestNotAHang) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  // The retired v1 gets the same answer as an unknown future version; so
  // does a v1 frame with flag bits set.
  const struct {
    char version;
    uint8_t flags;
  } cases[] = {{99, 0}, {1, 0}, {1, net::kReqFlagBatch}};
  uint64_t rejected = 0;
  for (const auto& tc : cases) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kPing);
    h.flags = tc.flags;
    h.request_id = 424242;
    std::string frame;
    net::EncodeRequest(h, {}, &frame);
    frame[4] = tc.version;  // splice the version into an otherwise valid frame
    ASSERT_EQ(::send(c.fd(), frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));

    // A reply — not a hang or a close.
    ASSERT_TRUE(c.Recv(&res, &err)) << err << " for v" << int{tc.version};
    EXPECT_EQ(res.status, WireStatus::kBadRequest);
    EXPECT_EQ(res.request_id, 424242u);
    EXPECT_EQ(res.version, net::kProtocolVersion)
        << "the reply names the version the server speaks";
    EXPECT_EQ(server_->bad_requests(), ++rejected);

    // The 48-byte layout is version-stable, so framing is intact and the
    // same connection keeps serving current-version traffic.
    ASSERT_TRUE(c.Ping(&res, &err)) << err;
    EXPECT_EQ(res.status, WireStatus::kOk);
  }
}

TEST_F(NetTest, TimelineEchoPartitionsServerTimeExactly) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  ASSERT_TRUE(c.Put(21, "tl", WireClass::kHigh, &res, &err)) << err;

  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kGet);
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  h.flags = net::kReqFlagWantTimeline;
  h.params[0] = 21;
  ASSERT_TRUE(c.Call(h, {}, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.payload, "tl")
      << "the timeline must be stripped from the payload";
  ASSERT_TRUE(res.has_timeline);

  // Stage boundaries are stamped in lifecycle order from one clock.
  const net::TimelineWire& t = res.timeline;
  EXPECT_GT(t.arrival_ns, 0u);
  EXPECT_LE(t.arrival_ns, t.admit_ns);
  EXPECT_LE(t.admit_ns, t.enqueue_ns);
  EXPECT_LE(t.enqueue_ns, t.dispatch_ns);
  EXPECT_LE(t.dispatch_ns, t.first_run_ns);
  EXPECT_LE(t.first_run_ns, t.done_ns);
  EXPECT_LE(t.done_ns, t.reply_ns);

  // The four stages partition the wire-reported server latency exactly:
  // admit + queue_wait + run + reply telescopes to reply - arrival.
  uint64_t admit = t.enqueue_ns - t.arrival_ns;
  uint64_t queue_wait = t.first_run_ns - t.enqueue_ns;
  uint64_t run = t.done_ns - t.first_run_ns;
  uint64_t reply = t.reply_ns - t.done_ns;
  EXPECT_EQ(admit + queue_wait + run + reply, res.server_ns);
  EXPECT_EQ(t.reply_ns - t.arrival_ns, res.server_ns);
}

TEST_F(NetTest, TimelineSamplingGatesTheEchoDeterministically) {
  net::Server::Options so;
  so.timeline_sample_every = 2;
  StartSingleWorker(so);
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  ASSERT_TRUE(c.Put(1, "v", WireClass::kHigh, &res, &err)) << err;

  // One shard, one connection: asking requests alternate strictly, starting
  // with the first (sequence 0 % 2 == 0).
  int with = 0;
  for (int i = 0; i < 8; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kGet);
    h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
    h.flags = net::kReqFlagWantTimeline;
    h.params[0] = 1;
    ASSERT_TRUE(c.Call(h, {}, &res, &err)) << err;
    EXPECT_EQ(res.has_timeline, i % 2 == 0) << "request " << i;
    if (res.has_timeline) ++with;
  }
  EXPECT_EQ(with, 4);

  // Requests that do not ask never pay the bytes and never consume a
  // sampling slot.
  net::RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kGet);
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  h.params[0] = 1;
  ASSERT_TRUE(c.Call(h, {}, &res, &err)) << err;
  EXPECT_FALSE(res.has_timeline);
}

TEST_F(NetTest, TimelineSampleZeroNeverEchoes) {
  net::Server::Options so;
  so.timeline_sample_every = 0;
  StartSingleWorker(so);
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  for (int i = 0; i < 4; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kPut);
    h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
    h.flags = net::kReqFlagWantTimeline;
    h.params[0] = 1;
    ASSERT_TRUE(c.Call(h, "v", &res, &err)) << err;
    EXPECT_EQ(res.status, WireStatus::kOk);
    EXPECT_FALSE(res.has_timeline);
  }
}

TEST_F(NetTest, AdminPlaneServesParseableMetricsHealthAndTrace) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  // Pre-traffic: kMetrics must already carry every stage-histogram key — a
  // scraper's schema cannot depend on whether traffic has arrived yet.
  ASSERT_TRUE(c.Admin(Op::kMetrics, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::JsonParse(res.payload, &doc, &err)) << err;
  const obs::JsonValue* hists = doc.Find("histograms_ns");
  ASSERT_NE(hists, nullptr);
  for (const char* key :
       {"net.stage.admit", "sched.stage.queue_wait_hp",
        "sched.stage.queue_wait_lp", "sched.stage.run_hp",
        "sched.stage.run_lp", "net.stage.reply", "net.stage.total"}) {
    EXPECT_NE(hists->Find(key), nullptr) << key;
  }

  // Drive traffic; the stage counts must move with it.
  for (uint64_t k = 1; k <= 10; ++k) {
    ASSERT_TRUE(c.Put(k, "v", WireClass::kHigh, &res, &err)) << err;
    ASSERT_EQ(res.status, WireStatus::kOk);
  }
  ASSERT_TRUE(c.Admin(Op::kMetrics, &res, &err)) << err;
  ASSERT_TRUE(obs::JsonParse(res.payload, &doc, &err)) << err;
  const obs::JsonValue* total = doc.Path({"histograms_ns", "net.stage.total"});
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->NumberOr("count", 0), 10.0);

  ASSERT_TRUE(c.Admin(Op::kHealth, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  obs::JsonValue health;
  ASSERT_TRUE(obs::JsonParse(res.payload, &health, &err)) << err;
  const obs::JsonValue* shards = health.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  EXPECT_EQ(shards->items.size(), server_->num_shards());
  const obs::JsonValue* sched = health.Find("scheduler");
  ASSERT_NE(sched, nullptr);
  ASSERT_TRUE(sched->is_object());
  const obs::JsonValue* workers = sched->Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_TRUE(workers->is_array());
  EXPECT_EQ(workers->items.size(), 2u);  // StartDefault runs two workers

  // kTraceSnapshot answers well-formed Chrome-trace JSON even with tracing
  // disabled (an empty traceEvents array, not an error).
  ASSERT_TRUE(c.Admin(Op::kTraceSnapshot, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  obs::JsonValue trace;
  ASSERT_TRUE(obs::JsonParse(res.payload, &trace, &err)) << err;
  EXPECT_NE(trace.Find("traceEvents"), nullptr);
}

TEST_F(NetTest, SloWatchdogSurfacesBreachOnHealthPlane) {
  net::Server::Options so;
  so.slo.hp_target_us = 1;  // 1 us p99: any real request breaches
  so.slo.eval_period_ms = 5;
  StartSingleWorker(so);
  ASSERT_NE(server_->slo_watchdog(), nullptr);
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  ASSERT_TRUE(c.Put(1, "v", WireClass::kHigh, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);

  ASSERT_TRUE(WaitUntil(
      [&] { return server_->slo_watchdog()->hp_violations() > 0; }, 5000))
      << "a 1 us target must be breached by any served request";
  EXPECT_TRUE(server_->slo_watchdog()->hp_breached());

  ASSERT_TRUE(c.Admin(Op::kHealth, &res, &err)) << err;
  obs::JsonValue health;
  ASSERT_TRUE(obs::JsonParse(res.payload, &health, &err)) << err;
  const obs::JsonValue* slo = health.Find("slo");
  ASSERT_NE(slo, nullptr) << "configured SLO must appear on the health plane";
  EXPECT_GE(slo->NumberOr("hp_violations", 0), 1.0);
  EXPECT_GT(slo->NumberOr("hp_measured_us", 0), 1.0);
}

TEST_F(NetTest, ConfigPlaneRoundTripsAndBumpsVersion) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  // kGetConfig: structural + tunables + controller state, version 1.
  ASSERT_TRUE(c.Admin(Op::kGetConfig, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::JsonParse(res.payload, &doc, &err)) << err;
  EXPECT_EQ(doc.Path({"structural", "num_workers"})->number, 2);
  EXPECT_EQ(doc.Path({"config", "version"})->number, 1);
  const obs::JsonValue* tun = doc.Path({"config", "tunables"});
  ASSERT_NE(tun, nullptr);
  EXPECT_FALSE(tun->Path({"starvation_enabled"})->boolean);
  EXPECT_FALSE(doc.Path({"controller", "enabled"})->boolean);

  // kSetConfig applies without restart; the success payload is the new
  // config document, so the version bump is visible in one round trip.
  ASSERT_TRUE(c.SetConfig(
      R"({"starvation_enabled":true,"starvation_threshold":0.4,
          "hp_batch_size":64})",
      &res, &err))
      << err;
  ASSERT_EQ(res.status, WireStatus::kOk) << res.payload;
  ASSERT_TRUE(obs::JsonParse(res.payload, &doc, &err)) << err;
  EXPECT_EQ(doc.Path({"config", "version"})->number, 2);
  tun = doc.Path({"config", "tunables"});
  ASSERT_NE(tun, nullptr);
  EXPECT_TRUE(tun->Path({"starvation_enabled"})->boolean);
  EXPECT_DOUBLE_EQ(tun->NumberOr("starvation_threshold", 0), 0.4);
  EXPECT_EQ(doc.Path({"config", "effective_hp_batch"})->number, 64);

  // The live scheduler sees the new values — no restart, no re-open.
  sched::TunableConfig& tc = db_->scheduler().tunables();
  EXPECT_EQ(tc.version(), 2u);
  EXPECT_TRUE(tc.starvation_enabled());
  EXPECT_DOUBLE_EQ(tc.starvation_threshold(), 0.4);
  EXPECT_EQ(tc.EffectiveHpBatch(), 64u);

  // And the health plane carries the same config section.
  ASSERT_TRUE(c.Admin(Op::kHealth, &res, &err)) << err;
  obs::JsonValue health;
  ASSERT_TRUE(obs::JsonParse(res.payload, &health, &err)) << err;
  EXPECT_EQ(health.Path({"config", "version"})->number, 2);
}

TEST_F(NetTest, SetConfigRejectsInvalidChangeSetsAtomically) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  auto rejected = [&](std::string_view body, const char* expect_in_err) {
    ASSERT_TRUE(c.SetConfig(body, &res, &err)) << err;
    EXPECT_EQ(res.status, WireStatus::kBadRequest);
    EXPECT_NE(res.payload.find(expect_in_err), std::string::npos)
        << "reason was: " << res.payload;
  };
  // Out of range (valid key, valid type).
  rejected(R"({"starvation_threshold":1.5})", "starvation_threshold");
  // A valid field alongside an invalid one must not be applied (atomic).
  rejected(R"({"hp_batch_size":64,"starvation_threshold":-1})",
           "starvation_threshold");
  // Unknown key, wrong type, malformed JSON.
  rejected(R"({"starvation_treshold":0.4})", "unknown config key");
  rejected(R"({"starvation_enabled":1})", "expected a bool");
  rejected("{not json", "");

  // Nothing stuck: version still 1, values untouched, connection alive.
  sched::TunableConfig& tc = db_->scheduler().tunables();
  EXPECT_EQ(tc.version(), 1u);
  EXPECT_EQ(tc.hp_batch_size(), 0u);
  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, ConcurrentSetConfigSerializesEveryVersionBump) {
  StartDefault();
  constexpr int kThreads = 4;
  constexpr int kSets = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::Client c = Connect();
      for (int i = 0; i < kSets; ++i) {
        char body[64];
        std::snprintf(body, sizeof(body), "{\"hp_batch_size\":%d}",
                      1 + (t * kSets + i) % 100);
        net::Client::Result res;
        std::string err;
        ASSERT_TRUE(c.SetConfig(body, &res, &err)) << err;
        ASSERT_EQ(res.status, WireStatus::kOk) << res.payload;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every successful apply bumped the version exactly once.
  EXPECT_EQ(db_->scheduler().tunables().version(),
            1u + kThreads * kSets);
}

TEST_F(NetTest, AdaptiveControllerRetunesLiveServer) {
  // A 1 us HP target is breached by any real request, so the controller's
  // step-4 arm must fire: batch grows (and version bumps) with zero
  // kSetConfig traffic. The controller also auto-provisions its SLO-watchdog
  // sensor when Options::slo is unset.
  net::Server::Options so;
  so.controller.hp_target_us = 1;
  so.controller.period_ms = 5;
  so.controller.settle_evals = 1;
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);
  ASSERT_NE(server_->controller(), nullptr);
  ASSERT_NE(server_->slo_watchdog(), nullptr) << "sensor must be mirrored in";

  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  const size_t batch_before = db_->scheduler().tunables().EffectiveHpBatch();
  ASSERT_TRUE(WaitUntil(
      [&] {
        // Keep feeding samples; the rolling SLO window needs traffic.
        if (!c.Put(1, "v", WireClass::kHigh, &res, &err)) return true;
        return server_->controller()->retunes() > 0;
      },
      5000))
      << "controller never retuned against an unmeetable target";
  EXPECT_GT(server_->controller()->retunes(), 0u);
  EXPECT_GT(db_->scheduler().tunables().version(), 1u);
  EXPECT_GT(db_->scheduler().tunables().EffectiveHpBatch(), batch_before);
  EXPECT_STREQ(server_->controller()->last_action(), "hp_over_target");

  // The health plane surfaces the controller's state.
  ASSERT_TRUE(c.Admin(Op::kHealth, &res, &err)) << err;
  obs::JsonValue health;
  ASSERT_TRUE(obs::JsonParse(res.payload, &health, &err)) << err;
  ASSERT_NE(health.Find("ctl"), nullptr);
  EXPECT_GE(health.Path({"ctl", "retunes"})->number, 1);
}

TEST_F(NetTest, AdminPlaneStaysReservedUnderCustomHandlers) {
  // A custom OpHandler owns the transaction opcode space, but the admin
  // opcodes are served by the shard loop before dispatch — introspection
  // cannot be shadowed away.
  net::Server::Options so;
  so.handler = [](engine::Engine&, const net::RequestHeader&,
                  const std::string&, std::string* reply) {
    reply->assign("custom");
    return Rc::kOk;
  };
  StartSingleWorker(so);
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  ASSERT_TRUE(c.Admin(Op::kMetrics, &res, &err)) << err;
  ASSERT_EQ(res.status, WireStatus::kOk);
  obs::JsonValue doc;
  EXPECT_TRUE(obs::JsonParse(res.payload, &doc, &err)) << err;
  EXPECT_NE(res.payload, "custom");
}

// --- Sharded front-end ---

TEST(NetShardPolicyTest, EpollTimeoutFollowsNearestDeadline) {
  net::DeadlineHeap h;
  // Idle loop blocks indefinitely; a ring gap forces a short poll instead.
  EXPECT_EQ(net::EpollTimeoutMs(&h, 1000, false), -1);
  EXPECT_EQ(net::EpollTimeoutMs(&h, 1000, true), 1);

  const uint64_t now = 1'000'000'000;
  h.push(now + 2'500'000);    // 2.5 ms out: rounds UP, never early-spins
  h.push(now + 700'000'000);  // far deadline behind it
  EXPECT_EQ(net::EpollTimeoutMs(&h, now, false), 3);

  // Passed deadlines are pruned; the next nearest drives the wait.
  EXPECT_EQ(net::EpollTimeoutMs(&h, now + 10'000'000, false), 690);

  h.push(now + 800'000'000);
  EXPECT_EQ(net::EpollTimeoutMs(&h, now + 750'000'000, false), 50);
  EXPECT_EQ(h.size(), 1u);
}

TEST_F(NetTest, ShardedServerSpreadsConnectionsAcrossReuseportListeners) {
  net::Server::Options so;
  so.num_shards = 4;
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);
  ASSERT_EQ(server_->num_shards(), 4u);
  ASSERT_FALSE(server_->handoff_mode()) << "Linux should grant SO_REUSEPORT";

  constexpr int kConns = 32;
  std::vector<net::Client> clients(kConns);
  net::Client::Result res;
  std::string err;
  for (int i = 0; i < kConns; ++i) {
    clients[static_cast<size_t>(i)] = Connect();
    ASSERT_TRUE(clients[static_cast<size_t>(i)].Ping(&res, &err)) << err;
    EXPECT_EQ(res.status, WireStatus::kOk);
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return server_->conns_accepted() >= kConns; }, 5000));

  // Every connection is owned by exactly one shard, and the kernel's
  // REUSEPORT hashing spread them over more than one loop.
  uint64_t sum = 0;
  int shards_with_conns = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    uint64_t accepted = server_->shard_stats(i).conns_accepted.Value();
    sum += accepted;
    if (accepted > 0) ++shards_with_conns;
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(kConns));
  EXPECT_GE(shards_with_conns, 2)
      << "32 connections all hashed onto a single REUSEPORT listener";
  EXPECT_EQ(server_->accept_handoffs(), 0u);
  EXPECT_EQ(server_->replies(), static_cast<uint64_t>(kConns));
}

TEST_F(NetTest, HandoffFallbackSpreadsAndServesEveryConnection) {
  net::Server::Options so;
  so.num_shards = 4;
  so.reuseport = false;  // force the fd-hash handoff accept path
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);
  ASSERT_TRUE(server_->handoff_mode());

  constexpr int kConns = 16;
  std::vector<net::Client> clients(kConns);
  net::Client::Result res;
  std::string err;
  for (int i = 0; i < kConns; ++i) {
    clients[static_cast<size_t>(i)] = Connect();
    // The ping round-trips no matter which shard adopted the socket — the
    // handoff is invisible on the wire.
    ASSERT_TRUE(clients[static_cast<size_t>(i)].Ping(&res, &err)) << err;
    EXPECT_EQ(res.status, WireStatus::kOk);
  }
  ASSERT_TRUE(WaitUntil(
      [&] { return server_->conns_accepted() >= kConns; }, 5000));

  uint64_t sum = 0;
  int shards_with_conns = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    uint64_t accepted = server_->shard_stats(i).conns_accepted.Value();
    sum += accepted;
    if (accepted > 0) ++shards_with_conns;
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(kConns));
  // 16 concurrently-open sockets get mostly-consecutive fds, so fd % 4
  // cannot collapse onto one shard.
  EXPECT_GE(shards_with_conns, 2);
  EXPECT_GT(server_->accept_handoffs(), 0u)
      << "shard 0 must have routed some sockets away from itself";
}

TEST_F(NetTest, CompletionWakesCoalesceUnderPipelinedLoad) {
  // Wedge the single worker, pipeline a burst, release: the completions
  // fire back-to-back while the shard loop sleeps, so one eventfd write
  // must cover many responses (the whole point of the completion ring).
  StartSingleWorker();
  std::atomic<bool> release{false};
  std::atomic<bool> running{false};
  ASSERT_EQ(db_->Submit(sched::Priority::kHigh,
                        [&](engine::Engine&) {
                          running.store(true);
                          while (!release.load()) {
                            std::this_thread::sleep_for(1ms);
                          }
                          return Rc::kOk;
                        }),
            SubmitResult::kAccepted);
  ASSERT_TRUE(WaitUntil([&] { return running.load(); }, 5000));

  net::Client c = Connect();
  std::string err;
  constexpr int kBurst = 256;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kGet);
    h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
    h.params[0] = 1;
    ASSERT_TRUE(c.Send(h, {}, &err)) << err;
  }
  release.store(true);
  for (int i = 0; i < kBurst; ++i) {
    net::Client::Result res;
    ASSERT_TRUE(c.Recv(&res, &err)) << err << " after " << i;
  }

  EXPECT_EQ(server_->replies(), static_cast<uint64_t>(kBurst));
  EXPECT_LT(server_->eventfd_wakes(), server_->replies())
      << "per-response eventfd writes defeat wake coalescing";
  ASSERT_GT(server_->completion_batches(), 0u);
  EXPECT_GT(static_cast<double>(server_->completions()) /
                static_cast<double>(server_->completion_batches()),
            1.0)
      << "a drained batch should average more than one completion";
}

TEST_F(NetTest, ConnResetChurnNeverLosesCompletions) {
  // Inject random peer resets while pipelined bursts churn over short-lived
  // connections on both shards: reply bytes may die with their sockets, but
  // every admitted submission must still produce exactly one completion.
  struct FaultGuard {
    ~FaultGuard() { fault::Reset(); }
  } guard;
  net::Server::Options so;
  so.num_shards = 2;
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);

  fault::SetSeed(42);
  fault::Configure(fault::Point::kNetReset, 0.1);

  for (int round = 0; round < 4; ++round) {
    for (int j = 0; j < 4; ++j) {
      net::Client c;
      std::string err;
      if (!c.Connect("127.0.0.1", server_->port(), &err)) continue;
      constexpr int kOps = 16;
      int sent = 0;
      for (int i = 0; i < kOps; ++i) {
        net::RequestHeader h;
        h.opcode = static_cast<uint8_t>(Op::kGet);
        h.prio_class =
            static_cast<uint8_t>(i % 2 == 0 ? WireClass::kHigh
                                            : WireClass::kLow);
        h.params[0] = static_cast<uint64_t>(i + 1);
        if (!c.Send(h, {}, &err)) break;
        ++sent;
      }
      for (int i = 0; i < sent; ++i) {
        net::Client::Result res;
        if (!c.Recv(&res, &err)) break;  // reset mid-burst: expected
      }
    }  // client destroyed: more churn
  }
  fault::Reset();
  db_->Drain();

  ASSERT_GT(server_->conn_resets_injected(), 0u)
      << "the fault must actually have fired for this test to mean anything";
  // The loop may still be draining the last pushed completions; completion
  // accounting must then converge exactly: one completion per admission.
  ASSERT_TRUE(WaitUntil(
      [&] { return server_->completions() >= server_->admitted(); }, 5000));
  EXPECT_EQ(server_->completions(), server_->admitted())
      << "lost or duplicated completion";
  EXPECT_EQ(server_->completions_pushed(), server_->admitted());
}

uint64_t RegistryCounter(const char* name) {
  for (int i = 0; i < obs::NumCounters(); ++i) {
    const obs::Counter* c = obs::CounterAt(i);
    if (std::strcmp(c->name(), name) == 0) return c->Value();
  }
  ADD_FAILURE() << "no registered counter " << name;
  return 0;
}

TEST_F(NetTest, ShardRepliesRollUpIntoResponsesSentExactly) {
  // Each reply is counted once, on its shard; the process-wide
  // net.responses_sent is the sum of those shard counts, and keeps them
  // after the server is gone.
  const uint64_t before = RegistryCounter("net.responses_sent");
  net::Server::Options so;
  so.num_shards = 2;
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  dbo.scheduler.arrival_interval_us = 500;
  Start(dbo, so);

  constexpr int kConns = 8;
  constexpr int kPerConn = 5;
  net::Client::Result res;
  std::string err;
  for (int i = 0; i < kConns; ++i) {
    net::Client c = Connect();
    for (int j = 0; j < kPerConn; ++j) {
      ASSERT_TRUE(c.Ping(&res, &err)) << err;
    }
  }
  const uint64_t replies = server_->shard_stats(0).replies.Value() +
                           server_->shard_stats(1).replies.Value();
  EXPECT_EQ(replies, static_cast<uint64_t>(kConns * kPerConn));
  EXPECT_EQ(server_->replies(), replies);
  EXPECT_EQ(RegistryCounter("net.responses_sent") - before, replies);

  server_->Stop();
  server_.reset();
  EXPECT_EQ(RegistryCounter("net.responses_sent") - before, replies)
      << "a destroyed server's replies must stay in the process total";
}

TEST(NetClientRetryTest, ConnectRetriesUntilListenerAppears) {
  // Reserve an ephemeral port, then bring the server up only after the
  // client has started connecting: bounded retry must bridge the gap that a
  // single-shot connect() loses to ECONNREFUSED.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &alen),
            0);
  uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 1;
  dbo.scheduler.arrival_interval_us = 500;
  auto db = DB::Open(dbo);
  net::Server::Options so;
  so.port = port;
  net::Server server(db.get(), so);

  std::string start_err;
  std::atomic<bool> started{false};
  std::thread late_start([&] {
    std::this_thread::sleep_for(30ms);
    started.store(server.Start(&start_err));
  });

  net::Client c;
  std::string err;
  bool connected = c.Connect("127.0.0.1", port, &err, /*max_attempts=*/12);
  late_start.join();
  ASSERT_TRUE(started.load()) << start_err;
  ASSERT_TRUE(connected) << err;

  net::Client::Result res;
  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  server.Stop();
}

TEST_F(NetTest, StopAnswersDrainAndRejectsAfterwards) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;
  ASSERT_TRUE(c.Put(3, "x", WireClass::kHigh, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The connection is gone; a fresh connect is refused (listener closed).
  net::Client c2;
  EXPECT_FALSE(c2.Connect("127.0.0.1", server_->port(), &err));
}

// --- Protocol-v2 batch frames ---

TEST_F(NetTest, BatchRoundTripAnswersEveryInnerFrame) {
  StartDefault();
  net::Client c = Connect();
  std::string err;

  std::vector<net::Client::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    net::Client::BatchItem it;
    it.hdr.opcode = static_cast<uint8_t>(Op::kPut);
    it.hdr.prio_class = static_cast<uint8_t>(WireClass::kHigh);
    it.hdr.params[0] = 100 + static_cast<uint64_t>(i);
    it.payload = "b" + std::to_string(i);
    items.push_back(it);
  }
  // One envelope, one write syscall; first id is known before the send.
  // Completion order across the scheduler is not guaranteed, so assert the
  // id SET: exactly one response per inner frame, none invented or lost.
  uint64_t first_id = c.next_id();
  ASSERT_TRUE(c.SendBatch(&items, &err)) << err;
  std::set<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    net::Client::Result res;
    ASSERT_TRUE(c.Recv(&res, &err)) << err << " after " << i;
    EXPECT_EQ(res.status, WireStatus::kOk);
    ids.insert(res.request_id);
  }
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(*ids.begin(), first_id);
  EXPECT_EQ(*ids.rbegin(), first_id + 7);
  // Every inner frame went through the ordinary KV path.
  net::Client::Result res;
  ASSERT_TRUE(c.Get(103, WireClass::kHigh, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
  EXPECT_EQ(res.payload, "b3");
  EXPECT_EQ(server_->bad_requests(), 0u);
}

TEST_F(NetTest, BatchZeroAndOversizedCountsRejectedConnectionSurvives) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  // A zero-count envelope is a confused client, not a framing error: the
  // envelope itself is answered kBadRequest and the connection lives on.
  net::RequestHeader env;
  env.flags = net::kReqFlagBatch;
  env.params[0] = 0;
  ASSERT_TRUE(c.Call(env, {}, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  env.params[0] = net::kMaxBatchCount + 1;
  ASSERT_TRUE(c.Call(env, {}, &res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  EXPECT_EQ(server_->bad_requests(), 2u);
  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, BatchWithNestedBatchOrAdminOpcodeRejected) {
  StartDefault();
  net::Client c = Connect();
  net::Client::Result res;
  std::string err;

  auto send_batch_of_one = [&](net::RequestHeader inner) {
    std::string body;
    net::EncodeRequest(inner, {}, &body);
    net::RequestHeader env;
    env.flags = net::kReqFlagBatch;
    env.params[0] = 1;
    ASSERT_TRUE(c.Call(env, body, &res, &err)) << err;
  };

  net::RequestHeader nested;
  nested.flags = net::kReqFlagBatch;  // batch inside a batch
  nested.params[0] = 1;
  send_batch_of_one(nested);
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  net::RequestHeader admin;
  admin.opcode = static_cast<uint8_t>(Op::kMetrics);  // introspection plane
  send_batch_of_one(admin);
  EXPECT_EQ(res.status, WireStatus::kBadRequest);

  ASSERT_TRUE(c.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, BatchTruncatedMidFrameClosesConnectionNoHang) {
  StartDefault();
  net::Client c = Connect();
  std::string err;

  // Envelope claims 2 inner frames but carries one full frame plus a
  // header fragment: the count can no longer be trusted against the bytes,
  // so framing is poisoned and the server must close, not guess or hang.
  net::RequestHeader inner;
  inner.opcode = static_cast<uint8_t>(Op::kGet);
  inner.params[0] = 1;
  std::string body;
  net::EncodeRequest(inner, {}, &body);
  body.append(8, 'x');  // fragment of a second header
  net::RequestHeader env;
  env.flags = net::kReqFlagBatch;
  env.request_id = 777;
  env.params[0] = 2;
  std::string frame;
  net::EncodeRequest(env, body, &frame);
  ASSERT_EQ(::send(c.fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  net::Client::Result res;
  EXPECT_FALSE(c.Recv(&res, &err)) << "poisoned framing must close, and the "
                                      "truncated batch must not be admitted";
  ASSERT_TRUE(WaitUntil([&] { return server_->conns_closed() >= 1; }, 5000));

  net::Client c2 = Connect();
  ASSERT_TRUE(c2.Ping(&res, &err)) << err;
  EXPECT_EQ(res.status, WireStatus::kOk);
}

TEST_F(NetTest, QueueDepthHintRidesResponses) {
  // Wedged pipeline (tiny submit queue, held worker): the burst's BUSY
  // rejections are stamped while 4 submissions sit admitted-and-incomplete,
  // so their queue-depth hint is deterministic.
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 1;
  dbo.scheduler.arrival_interval_us = 200000;
  dbo.submit_queue_capacity = 4;
  Start(dbo);
  std::atomic<bool> release{false};
  ASSERT_TRUE(WedgeOnlyWorker(*db_, release));

  net::Client c = Connect();
  std::string err;
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestHeader h;
    h.opcode = static_cast<uint8_t>(Op::kGet);
    h.prio_class = static_cast<uint8_t>(WireClass::kLow);
    h.params[0] = 1;
    ASSERT_TRUE(c.Send(h, {}, &err)) << err;
  }
  const bool all_stamped = WaitUntil(
      [&] { return server_->admitted() + server_->busy() == kBurst; }, 5000);
  release.store(true);
  ASSERT_TRUE(all_stamped);
  uint32_t max_hint = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    net::Client::Result res;
    ASSERT_TRUE(c.Recv(&res, &err)) << err << " after " << i;
    if (res.status == WireStatus::kBusy) {
      ++busy;
      EXPECT_EQ(res.queue_hint, 4u)
          << "BUSY is stamped while exactly the queue's worth is in flight";
    }
    max_hint = std::max(max_hint, res.queue_hint);
  }
  EXPECT_GT(busy, 0);
  EXPECT_GE(max_hint, 1u);
}

}  // namespace
}  // namespace preemptdb
