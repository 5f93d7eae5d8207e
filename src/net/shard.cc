#include "net/shard.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repl/shipper.h"
#include "util/clock.h"

namespace preemptdb::net {

namespace {

// Process-global wire-level counters, summed across every server and shard
// in the process: the roll-up of a ShardStats LocalCounter (server.h), or
// direct adds for events with no per-shard field. net.rejected takes both.
obs::Counter g_conns_accepted("net.conns_accepted");
obs::Counter g_conns_closed("net.conns_closed");
obs::Counter g_requests("net.requests");
obs::Counter g_accepted("net.accepted");
obs::Counter g_rejected("net.rejected");
obs::Counter g_busy("net.busy");
obs::Counter g_responses_dropped("net.responses_dropped");
obs::Counter g_wire_timeouts("net.timeouts");
obs::Counter g_class_hp("net.class_hp");
obs::Counter g_class_lp("net.class_lp");
// Wake-coalescing accounting: the acceptance gauge for this front-end is
// net.eventfd_wakes < net.responses_sent under pipelined load.
obs::Counter g_eventfd_wakes("net.eventfd_wakes");
obs::Counter g_responses_sent("net.responses_sent");
obs::Counter g_completion_batches("net.completion_batches");
obs::Counter g_accept_handoffs("net.accept_handoffs");
obs::Counter g_repl_detaches("net.repl_detaches");
obs::Counter g_readonly_redirects("net.readonly_redirects");
// Batch envelopes accepted, and the inner requests they carried — the read
// syscall savings mirror: N requests arrived framed as one envelope.
obs::Counter g_batch_frames("net.batch_frames");
obs::Counter g_batch_requests("net.batch_requests");

}  // namespace

ShardStats::ShardStats()
    : conns_accepted(g_conns_accepted),
      conns_closed(g_conns_closed),
      requests(g_requests),
      admitted(g_accepted),
      busy(g_busy),
      bad_requests(g_rejected),
      replies(g_responses_sent),
      responses_dropped(g_responses_dropped),
      timeouts(g_wire_timeouts),
      eventfd_wakes(g_eventfd_wakes),
      completion_batches(g_completion_batches),
      accept_handoffs(g_accept_handoffs) {}

CompletionRing::Pop CompletionRing::TryPop(PendingOp** out) {
  PendingOp* tail = tail_;
  PendingOp* next = tail->ring_next.load(std::memory_order_acquire);
  if (tail == &stub_) {
    if (next == nullptr) {
      // Stub with no successor: truly empty if the stub is also the head,
      // otherwise a producer has exchanged head but not linked yet.
      return head_.load(std::memory_order_acquire) == tail ? Pop::kEmpty
                                                           : Pop::kRetry;
    }
    // Skip the stub.
    tail_ = next;
    tail = next;
    next = tail->ring_next.load(std::memory_order_acquire);
  }
  if (next != nullptr) {
    tail_ = next;
    *out = tail;
    return Pop::kItem;
  }
  if (tail != head_.load(std::memory_order_acquire)) {
    // A producer is between exchange and link; its node (and everything
    // after) is unreachable until the store lands. Poll again shortly.
    return Pop::kRetry;
  }
  // `tail` is the last real node: re-insert the stub behind it so the node
  // can be detached.
  Push(&stub_);
  next = tail->ring_next.load(std::memory_order_acquire);
  if (next != nullptr) {
    tail_ = next;
    *out = tail;
    return Pop::kItem;
  }
  return Pop::kRetry;
}

int EpollTimeoutMs(DeadlineHeap* deadlines, uint64_t now_ns, bool retry_soon) {
  // Deadlines that already passed are the scheduler's to shed — their
  // completions arrive via the ring like any other; drop them from the heap.
  while (!deadlines->empty() && deadlines->top() <= now_ns) deadlines->pop();
  if (retry_soon) return 1;
  if (deadlines->empty()) return -1;  // nothing timed in flight: block
  uint64_t delta_ns = deadlines->top() - now_ns;
  // Round up so the loop never spins on a deadline that is almost-but-not-
  // quite due; cap to keep the wait interruptible on clock weirdness.
  uint64_t ms = (delta_ns + 999'999) / 1'000'000;
  if (ms > 60'000) ms = 60'000;
  return static_cast<int>(ms);
}

NetShard::NetShard(Server* server, uint32_t id) : server_(server), id_(id) {}

NetShard::~NetShard() { TearDown(); }

bool NetShard::Init(std::string* err) {
  auto fail = [&](const char* what) {
    if (err != nullptr) {
      *err = std::string(what) + " (shard " + std::to_string(id_) +
             "): " + std::strerror(errno);
    }
    return false;
  };
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  PDB_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
  if (listen_fd_ >= 0) {
    ev.data.fd = listen_fd_;
    PDB_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  }
  return true;
}

void NetShard::StartThread() {
  thread_ = std::thread([this] { EventLoop(); });
}

void NetShard::JoinThread() {
  if (thread_.joinable()) thread_.join();
}

size_t NetShard::TearDown() {
  if (torn_down_) return 0;
  torn_down_ = true;
  // Stragglers (e.g. ~DB completing never-run closures as kError) must not
  // queue into a ring nobody will ever drain again.
  ring_open_.store(false, std::memory_order_release);
  size_t dropped = 0;
  // Final ring drain: completions pushed before the loop exited but never
  // processed (the bounded quiesce wait in Stop() expired). No producers
  // remain — the DB drained before the join — so kRetry can only be a
  // momentary gap; bound the spin anyway.
  for (int spins = 0; spins < 1000;) {
    PendingOp* raw = nullptr;
    CompletionRing::Pop r = ring_.TryPop(&raw);
    if (r == CompletionRing::Pop::kItem) {
      std::shared_ptr<PendingOp> op = std::move(raw->self);
      stats_.completions.fetch_add(1, std::memory_order_release);
      stats_.responses_dropped.Add();
      ++dropped;
      continue;
    }
    if (r == CompletionRing::Pop::kEmpty) break;
    ++spins;
    sched_yield();
  }
  for (auto& [fd, conn] : conns_) {
    size_t d = conn->MarkClosed();
    if (d > 0) {
      dropped += d;
      stats_.responses_dropped.Add(d);
    }
    stats_.conns_closed.Add();
  }
  conns_.clear();
  stats_.open_conns.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(inbox_mu_);
    for (int fd : inbox_) ::close(fd);  // handed off but never adopted
    inbox_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  return dropped;
}

void NetShard::Wake() {
  uint64_t one = 1;
  // eventfd writes are async-signal-safe and never block for a counter < max.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  stats_.eventfd_wakes.Add();
}

void NetShard::MaybeWake() {
  // Coalescing handshake with DrainCompletionsAndFlush(), both seq_cst: if
  // this exchange sees `false`, it happened after the loop's clear, so the
  // loop's subsequent ring drain may miss us — write the eventfd. If it sees
  // `true`, some earlier producer's write (or the pre-clear state) already
  // guarantees a drain that happens after our Push. Either way: never lost,
  // at most one write per loop tick.
  if (!wake_pending_.exchange(true, std::memory_order_seq_cst)) Wake();
}

void NetShard::PushCompletion(const std::shared_ptr<PendingOp>& op, Rc rc) {
  // Producer side: worker/scheduler threads, possibly inside a resumed
  // preempted fiber. Nothing here blocks, locks, or allocates.
  op->rc = rc;
  op->conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
  stats_.completions_pushed.fetch_add(1, std::memory_order_release);
  if (!ring_open_.load(std::memory_order_acquire)) {
    // Shard already torn down: the submission completed, only the reply
    // bytes are lost (same contract as a dead peer).
    stats_.responses_dropped.Add();
    stats_.completions.fetch_add(1, std::memory_order_release);
    return;
  }
  op->self = op;  // the ring's reference; dropped after serialization
  ring_.Push(op.get());
  MaybeWake();
}

void NetShard::AdoptSocket(int fd) {
  {
    std::lock_guard<std::mutex> g(inbox_mu_);
    inbox_.push_back(fd);
  }
  MaybeWake();
}

void NetShard::EventLoop() {
  char name[32];
  std::snprintf(name, sizeof(name), "net-shard-%u", id_);
  obs::RegisterThisThread(name);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (server_->running_.load(std::memory_order_acquire)) {
    int timeout = EpollTimeoutMs(&deadlines_, MonoNanos(), ring_retry_);
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd died; only happens at teardown
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
        continue;  // ring + inbox are drained below, every pass
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((ev & EPOLLIN) != 0) HandleConnReadable(conn);
      if ((ev & EPOLLOUT) != 0 && conns_.count(fd) != 0) FlushConn(conn);
    }
    DrainInbox();
    // Drain completions regardless of which event (or timeout) woke us —
    // responses must flow even on a quiet socket.
    DrainCompletionsAndFlush();
  }
}

void NetShard::HandleAccept() {
  const uint32_t nshards = static_cast<uint32_t>(server_->shards_.size());
  const bool handoff = server_->handoff_mode_ && nshards > 1;
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient (EMFILE): retry on the next edge
    }
    if (fault::ShouldFire(fault::Point::kNetAccept)) {
      ::close(fd);  // injected accept failure: the peer sees a reset
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (handoff) {
      // Fallback accept path: this shard owns the only listener and routes
      // by fd hash so load still spreads without SO_REUSEPORT.
      uint32_t target = static_cast<uint32_t>(fd) % nshards;
      if (target != id_) {
        stats_.accept_handoffs.Add();
        server_->shards_[target]->AdoptSocket(fd);
        continue;
      }
    }
    RegisterConn(fd);
  }
}

void NetShard::DrainInbox() {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> g(inbox_mu_);
    adopted.swap(inbox_);
  }
  for (int fd : adopted) RegisterConn(fd);
}

void NetShard::RegisterConn(int fd) {
  // Shard-unique ids stay process-unique: sequence in the high bits, shard
  // in the low byte.
  uint64_t cid = (next_conn_seq_++ << 8) | id_;
  auto conn = std::make_shared<Connection>(fd, cid, id_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conn->MarkClosed();
    return;
  }
  conns_.emplace(fd, std::move(conn));
  stats_.conns_accepted.Add();
  stats_.open_conns.fetch_add(1, std::memory_order_relaxed);
  obs::Trace(obs::EventType::kNetAccept, id_, cid);
}

void NetShard::HandleConnReadable(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Connection::IoResult r = conn->ReadIntoBuffer();
    if (r == Connection::IoResult::kOk) continue;
    if (r == Connection::IoResult::kClosed) {
      CloseConn(conn);
      return;
    }
    break;  // kWouldBlock: buffer holds all available bytes
  }
  bool ok = conn->DrainFrames(
      [&](const RequestHeader& hdr, std::string_view payload) {
        return HandleRequest(conn, hdr, payload);
      });
  if (!ok) {
    CloseConn(conn);
    return;
  }
  FlushConn(conn);  // immediate replies (BUSY etc.) go out right away
}

bool NetShard::HandleRequest(const std::shared_ptr<Connection>& conn,
                             const RequestHeader& hdr,
                             std::string_view payload) {
  const uint64_t arrival_ns = MonoNanos();
  stats_.requests.Add();
  obs::Trace(obs::EventType::kNetRequest, hdr.opcode, hdr.request_id);

  // Another protocol version still decoded cleanly (the layout is stable):
  // answer kBadRequest instead of poisoning the connection, which a naive
  // client would see as a hang.
  if (hdr.version != kProtocolVersion) return RejectBadRequest(conn, hdr);
  // Batch envelope: expand before the admin check so the envelope's own
  // (ignored) opcode can never hijack the introspection plane.
  if ((hdr.flags & kReqFlagBatch) != 0) {
    return HandleBatchRequest(conn, hdr, payload);
  }

  // Introspection plane: served by this loop directly — no admission
  // control, no engine, and deliberately *before* the stopping check so a
  // draining (or wedged-draining) server can still be scraped.
  if (HandleAdminRequest(conn, hdr, payload)) return true;

  const Server::Options& opts = server_->opts_;
  if (server_->stopping_.load(std::memory_order_acquire)) {
    g_rejected.Add();
    ReplyNow(conn, hdr, WireStatus::kShuttingDown, Rc::kError);
    return true;
  }
  // Replication subscription: this socket stops being a request/response
  // connection here. Detach it from the event loop and hand the raw fd to
  // the shipper's session thread, which owns it end to end (hello, snapshot,
  // stream, acks). Returning false stops DrainFrames; the CloseConn the
  // caller then issues is a no-op because the conn is already unregistered.
  if (static_cast<Op>(hdr.opcode) == Op::kReplSubscribe) {
    repl::Shipper* shipper = server_->shipper_.get();
    // Not a replication primary (repl disabled or engine not durable).
    if (shipper == nullptr) return RejectBadRequest(conn, hdr);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
    conns_.erase(conn->fd());
    stats_.conns_closed.Add();
    stats_.open_conns.fetch_sub(1, std::memory_order_relaxed);
    int fd = conn->DetachFd();
    if (fd >= 0) {
      // The shipper uses plain blocking I/O on its own thread.
      int fl = ::fcntl(fd, F_GETFL, 0);
      if (fl >= 0) ::fcntl(fd, F_SETFL, fl & ~O_NONBLOCK);
      g_repl_detaches.Add();
      shipper->AddFollower(fd, hdr);
    }
    return false;
  }
  // Read-only replica: writes bounce with a redirect to the primary
  // instead of executing. Reads fall through and serve replicated state.
  if (opts.read_only && !opts.handler &&
      (static_cast<Op>(hdr.opcode) == Op::kPut ||
       static_cast<Op>(hdr.opcode) == Op::kDelete)) {
    g_readonly_redirects.Add();
    ReplyNow(conn, hdr, WireStatus::kReadOnly, Rc::kError,
             opts.primary_hint);
    return true;
  }
  bool known_op =
      opts.handler || hdr.opcode <= static_cast<uint8_t>(Op::kScanSum);
  if (!known_op || hdr.prio_class > 1 || hdr.payload_len > opts.max_payload) {
    return RejectBadRequest(conn, hdr);
  }
  if (opts.max_inflight > 0 &&
      conn->in_flight.load(std::memory_order_relaxed) >= opts.max_inflight) {
    stats_.busy.Add();
    ReplyNow(conn, hdr, WireStatus::kBusy, Rc::kError);
    return true;
  }

  // Admission classification: the wire class byte decides which submission
  // queue (and thus which preemption tier) this request lands in.
  sched::Priority prio =
      hdr.prio_class == 1 ? sched::Priority::kHigh : sched::Priority::kLow;
  (hdr.prio_class == 1 ? g_class_hp : g_class_lp).Add();

  auto op = std::make_shared<PendingOp>();
  op->conn = conn;
  op->shard = this;
  op->hdr = hdr;
  // accept_ns anchors both the wire server_ns and the timeline, so the
  // net.stage.* partition sums exactly to the latency the client sees.
  op->accept_ns = arrival_ns;
  op->in.assign(payload.data(), payload.size());
  op->tl.arrival_ns = arrival_ns;
  op->tl.admit_ns = MonoNanos();
  if ((hdr.flags & kReqFlagWantTimeline) != 0 &&
      opts.timeline_sample_every > 0) {
    op->echo_timeline =
        (timeline_want_seq_++ % opts.timeline_sample_every) == 0;
  }

  SubmitOptions so;
  so.timeout_us = hdr.timeout_us;  // 0 = no deadline, same as SubmitOptions
  so.shard_id = id_;               // per-shard attribution in traces/metrics
  so.timeline = &op->tl;           // owned by the op, which the completion
                                   // lambda keeps alive — contract satisfied

  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  Server* server = server_;
  SubmitResult res = server_->db_->Submit(
      prio,
      [server, op](engine::Engine& eng) {
        return server->Dispatch(eng, op->hdr, op->in, &op->out);
      },
      [op](Rc rc) { op->shard->PushCompletion(op, rc); }, so);

  switch (res) {
    case SubmitResult::kAccepted:
      stats_.admitted.Add();
      // Timed request in flight: wake near its deadline so the shed
      // response flushes on time instead of a tick late.
      if (hdr.timeout_us > 0) {
        deadlines_.push(op->accept_ns + hdr.timeout_us * 1000);
      }
      obs::Trace(obs::EventType::kNetSubmit, hdr.prio_class, hdr.request_id);
      return true;
    case SubmitResult::kQueueFull:
      conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
      stats_.busy.Add();
      ReplyNow(conn, hdr, WireStatus::kBusy, Rc::kError);
      return true;
    case SubmitResult::kStopped:
      conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
      g_rejected.Add();
      ReplyNow(conn, hdr, WireStatus::kShuttingDown, Rc::kError);
      return true;
  }
  return true;
}

bool NetShard::HandleBatchRequest(const std::shared_ptr<Connection>& conn,
                                  const RequestHeader& hdr,
                                  std::string_view payload) {
  // A malformed envelope is a bad request either way; poison() also drops
  // the connection, for when framing can no longer be trusted.
  auto poison = [&] {
    stats_.bad_requests.Add();
    return false;
  };
  const uint64_t count = hdr.params[0];
  if (count == 0 || count > kMaxBatchCount) {
    return RejectBadRequest(conn, hdr);
  }
  // Validation walk first, dispatch second: either the whole envelope is
  // well formed or none of it runs, so a malformed tail can never leave a
  // prefix of the batch already admitted.
  const uint8_t* base = reinterpret_cast<const uint8_t*>(payload.data());
  size_t off = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (payload.size() - off < kRequestHeaderSize) {
      // Truncated mid-batch: the envelope lied about its contents, so inner
      // framing can no longer be trusted — poison and close (no reply; the
      // peer's framing state is unknown).
      return poison();
    }
    RequestHeader ih;
    if (!DecodeRequestHeader(base + off, &ih)) {
      return poison();  // bad magic / oversized length: framing poisoned
    }
    if ((ih.flags & kReqFlagBatch) != 0 ||
        ih.opcode >= static_cast<uint8_t>(Op::kMetrics)) {
      // Nested batches and admin/repl opcodes are not batchable; the
      // envelope itself is the bad request.
      return RejectBadRequest(conn, hdr);
    }
    size_t frame = kRequestHeaderSize + ih.payload_len;
    if (payload.size() - off < frame) return poison();  // payload truncated
    off += frame;
  }
  if (off != payload.size()) {
    // Count does not tile the payload: trailing bytes whose framing intent
    // is unknowable. Poison and close.
    return poison();
  }
  g_batch_frames.Add();
  g_batch_requests.Add(count);
  // Dispatch: each inner frame takes the ordinary single-request path, so
  // admission control, classification, and BUSY apply per request and each
  // produces its own response frame (coalesced into one writev on flush).
  off = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RequestHeader ih;
    DecodeRequestHeader(base + off, &ih);
    std::string_view inner(payload.data() + off + kRequestHeaderSize,
                           ih.payload_len);
    if (!HandleRequest(conn, ih, inner)) return false;
    off += kRequestHeaderSize + ih.payload_len;
  }
  return true;
}

bool NetShard::HandleAdminRequest(const std::shared_ptr<Connection>& conn,
                                  const RequestHeader& hdr,
                                  std::string_view payload) {
  const Op op = static_cast<Op>(hdr.opcode);
  if (op != Op::kMetrics && op != Op::kHealth && op != Op::kTraceSnapshot &&
      op != Op::kGetConfig && op != Op::kSetConfig) {
    return false;
  }
  std::string body;
  switch (op) {
    case Op::kMetrics:
      body = server_->BuildMetricsJson();
      break;
    case Op::kHealth:
      body = server_->BuildHealthJson();
      break;
    case Op::kTraceSnapshot:
      body = server_->BuildTraceJson(server_->opts_.max_payload);
      break;
    case Op::kGetConfig:
      body = server_->BuildConfigJson();
      break;
    case Op::kSetConfig: {
      // Validated all-or-nothing apply on the scheduler's tunable registry.
      // Rejections (unknown key, wrong type, out-of-range) answer
      // kBadRequest with the error text as the payload and leave the config
      // version untouched; success answers the post-apply config JSON so
      // the caller sees the new version without a second round trip.
      std::string err;
      if (!server_->ApplyConfigJson(payload, &err)) {
        return RejectBadRequest(conn, hdr, err);
      }
      body = server_->BuildConfigJson();
      break;
    }
    default:
      break;
  }
  if (body.size() > server_->opts_.max_payload) {
    // A metrics/health document larger than the payload cap means a
    // pathological registry; refuse rather than emit an unframeable reply.
    ReplyNow(conn, hdr, WireStatus::kError, Rc::kError);
    return true;
  }
  ReplyNow(conn, hdr, WireStatus::kOk, Rc::kOk, body);
  return true;
}

void NetShard::ProcessCompletion(PendingOp* raw) {
  // Take over the ring's reference; `op` keeps the PendingOp (and its
  // connection) alive for the scope of serialization.
  std::shared_ptr<PendingOp> op = std::move(raw->self);
  stats_.completions.fetch_add(1, std::memory_order_release);
  Rc rc = op->rc;
  if (rc == Rc::kTimeout) {
    stats_.timeouts.Add();
  }
  // Reply stamp closes the timeline: server_ns and net.stage.total are the
  // same subtraction, so the stage histograms partition exactly the latency
  // reported on the wire.
  op->tl.reply_ns = MonoNanos();
  obs::RecordNetStages(op->tl);
  ResponseHeader rh;
  rh.status = static_cast<uint8_t>(StatusFromRc(rc));
  rh.rc = static_cast<uint8_t>(rc);
  rh.request_id = op->hdr.request_id;
  rh.server_ns = op->tl.reply_ns - op->accept_ns;
  // Flow-control hint: current in-flight depth, so pipelined clients can
  // back off before hitting BUSY.
  rh.reserved = EncodeQueueHint(QueueDepthHint());
  server_->RecordSlo(op->hdr.prio_class == 1, rh.server_ns);
  std::string_view body = IsOk(rc) ? op->out : std::string_view();
  std::string with_tl;
  if (op->echo_timeline) {
    // Timeline rides as the last 72 bytes of the payload (counted in
    // payload_len), so version-unaware framing still works.
    rh.flags |= kRespFlagTimeline;
    TimelineWire tw;
    tw.arrival_ns = op->tl.arrival_ns;
    tw.admit_ns = op->tl.admit_ns;
    tw.enqueue_ns = op->tl.enqueue_ns;
    tw.dispatch_ns = op->tl.dispatch_ns;
    tw.first_run_ns = op->tl.first_run_ns;
    tw.done_ns = op->tl.done_ns;
    tw.reply_ns = op->tl.reply_ns;
    tw.last_resume_ns = op->tl.last_resume_ns;
    tw.preempts = op->tl.preempts;
    tw.yields = op->tl.yields;
    with_tl.assign(body.data(), body.size());
    AppendTimelineWire(tw, &with_tl);
    body = with_tl;
  }
  std::string frame;
  EncodeResponse(rh, body, &frame);
  if (!op->conn->EnqueueResponse(std::move(frame))) {
    // Connection died first. The submission itself completed — only the
    // reply bytes are lost, which is all a peer reset can ever lose.
    stats_.responses_dropped.Add();
    return;
  }
  stats_.replies.Add();
  obs::Trace(obs::EventType::kNetReply, static_cast<uint32_t>(rh.status),
             rh.server_ns);
  MarkDirty(op->conn);
}

void NetShard::DrainCompletionsAndFlush() {
  // Clear the wake flag BEFORE draining (seq_cst, pairing with MaybeWake):
  // a completion pushed after this store either lands in this drain or sees
  // the cleared flag and re-arms the eventfd. Either way it is never lost.
  wake_pending_.store(false, std::memory_order_seq_cst);
  ring_retry_ = false;
  uint64_t drained = 0;
  for (;;) {
    PendingOp* raw = nullptr;
    CompletionRing::Pop r = ring_.TryPop(&raw);
    if (r == CompletionRing::Pop::kItem) {
      ProcessCompletion(raw);
      ++drained;
      continue;
    }
    // kRetry: a producer is mid-push. Its MaybeWake may have found the flag
    // still set pre-clear, so don't rely on the eventfd — poll again on a
    // short timeout instead of blocking.
    if (r == CompletionRing::Pop::kRetry) ring_retry_ = true;
    break;
  }
  if (drained > 0) {
    stats_.completion_batches.Add();
  }
  if (dirty_.empty()) return;
  // One flush per connection no matter how many completions it absorbed
  // this tick — this is where wake coalescing turns into syscall batching.
  std::vector<std::shared_ptr<Connection>> dirty;
  dirty.swap(dirty_);
  for (auto& conn : dirty) {
    conn->flush_pending = false;
    if (!conn->closed()) FlushConn(conn);
  }
}

void NetShard::MarkDirty(const std::shared_ptr<Connection>& conn) {
  if (conn->flush_pending) return;
  conn->flush_pending = true;
  dirty_.push_back(conn);
}

void NetShard::ReplyNow(const std::shared_ptr<Connection>& conn,
                        const RequestHeader& req, WireStatus status, Rc rc,
                        std::string_view payload) {
  // Always at the server's own version, which tells a peer speaking another
  // one what this server does speak.
  ResponseHeader rh;
  rh.status = static_cast<uint8_t>(status);
  rh.rc = static_cast<uint8_t>(rc);
  rh.request_id = req.request_id;
  rh.reserved = EncodeQueueHint(QueueDepthHint());
  std::string frame;
  EncodeResponse(rh, payload, &frame);
  if (conn->EnqueueResponse(std::move(frame))) {
    stats_.replies.Add();
    obs::Trace(obs::EventType::kNetReply, static_cast<uint32_t>(status), 0);
  } else {
    stats_.responses_dropped.Add();
  }
}

bool NetShard::RejectBadRequest(const std::shared_ptr<Connection>& conn,
                                const RequestHeader& req,
                                std::string_view why) {
  stats_.bad_requests.Add();
  ReplyNow(conn, req, WireStatus::kBadRequest, Rc::kError, why);
  return true;
}

uint64_t NetShard::QueueDepthHint() const {
  // admitted and completions are monotonic and admitted leads, but the two
  // relaxed loads can be torn by in-flight completions — clamp at 0.
  uint64_t a = stats_.admitted.Value();
  uint64_t c = stats_.completions.load(std::memory_order_relaxed);
  return a > c ? a - c : 0;
}

void NetShard::FlushConn(const std::shared_ptr<Connection>& conn) {
  if (conn->closed()) return;
  if (conn->WantsWrite() && fault::ShouldFire(fault::Point::kNetReset)) {
    // Injected peer reset mid-response: the admitted submissions on this
    // connection still complete (their completions find a closed outbox and
    // count responses_dropped) — the chaos suite asserts exactly that.
    stats_.conn_resets.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
    return;
  }
  Connection::IoResult r = conn->Flush();
  if (r == Connection::IoResult::kClosed) {
    CloseConn(conn);
    return;
  }
  UpdateEpollInterest(conn);
}

void NetShard::UpdateEpollInterest(const std::shared_ptr<Connection>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (conn->WantsWrite()) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

void NetShard::CloseConn(const std::shared_ptr<Connection>& conn) {
  auto it = conns_.find(conn->fd());
  if (it == conns_.end() || it->second != conn) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
  conns_.erase(it);
  size_t dropped = conn->MarkClosed();
  if (dropped > 0) {
    // Responses that made it into the outbox but never onto the wire: their
    // submissions completed, only the reply bytes died with the socket.
    stats_.responses_dropped.Add(dropped);
  }
  stats_.conns_closed.Add();
  stats_.open_conns.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace preemptdb::net
