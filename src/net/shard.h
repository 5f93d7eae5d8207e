// One event-loop shard of the networked front-end.
//
// The server is sharded into N independent event loops (Server::Options::
// num_shards). Each NetShard owns, exclusively and without cross-shard
// locking on the hot path:
//
//   * an epoll fd and the loop thread that polls it,
//   * a wakeup eventfd with *coalesced* writes (below),
//   * a listening socket — its own SO_REUSEPORT listener, or, in fd-hash
//     handoff mode, shard 0 owns the single listener and routes each
//     accepted fd to `fd % num_shards` via AdoptSocket(),
//   * every Connection accepted into it (reads, frame parsing, admission,
//     response writes, close — see connection.h for the ownership contract),
//   * a ShardStats block surfaced as `net.shard<i>.*` gauges, summed by the
//     Server's aggregate accessors and rolled up into the net.* counters.
//
// Completion path ("enqueue + maybe-wake"): DB completion callbacks fire on
// worker/scheduler threads — possibly inside a fiber that was preempted and
// resumed — so the path from completion to loop wakeup must not take locks,
// block, or allocate. PushCompletion() appends the op to an intrusive
// lock-free MPSC ring (two atomic ops, wait-free for producers) and then
// writes the eventfd only if no wake is already pending: one eventfd write
// per loop tick, not one per response. The loop clears the wake flag
// *before* draining the ring, so a completion that arrives mid-drain either
// lands in the same pass or re-arms the wake — never lost. Response
// serialization happens on the shard thread, keeping the producer side
// signal-safe.
//
// Idle behaviour: the loop blocks in epoll_wait indefinitely when nothing is
// queued; when admitted requests carry deadlines, the timeout is computed
// from the nearest one (EpollTimeoutMs) so deadline sheds flush on time
// instead of up to a fixed tick late.
#ifndef PREEMPTDB_NET_SHARD_H_
#define PREEMPTDB_NET_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/timeline.h"
#include "util/status.h"

namespace preemptdb::net {

// Everything one admitted request needs to complete after its connection
// dies: kept alive by the TxnFn/completion lambdas and, while queued in the
// completion ring, by its own `self` reference.
struct PendingOp {
  std::shared_ptr<Connection> conn;
  NetShard* shard = nullptr;  // the loop that admitted (and will reply)
  RequestHeader hdr;
  uint64_t accept_ns = 0;
  std::string in;   // request payload (owned copy; the rbuf recycles)
  std::string out;  // reply payload, written inside the transaction
  Rc rc = Rc::kError;  // terminal status, set just before the ring push
  // Lifecycle timeline, stamped from arrival to reply (obs/timeline.h). By
  // value: the PendingOp outlives the completion callback by construction,
  // which is exactly the SubmitOptions::timeline ownership contract.
  obs::TxnTimeline tl;
  // Echo `tl` on the response (kRespFlagTimeline)? Set at admission when the
  // client asked (kReqFlagWantTimeline) and sampling selected this request.
  bool echo_timeline = false;

  // Intrusive MPSC ring linkage (CompletionRing). `self` is the reference
  // the ring holds: set by the producer right before Push, dropped by the
  // consumer after the response is serialized.
  std::atomic<PendingOp*> ring_next{nullptr};
  std::shared_ptr<PendingOp> self;
};

// Intrusive MPSC queue (Vyukov-style): producers are wait-free (one
// exchange + one store, no locks, no allocation — safe from completion
// callbacks in preempted-fiber context), single consumer is the shard loop.
class CompletionRing {
 public:
  enum class Pop : uint8_t {
    kItem,   // *out holds the next completed op
    kEmpty,  // nothing queued
    kRetry,  // a producer is mid-push; poll again shortly, do not block
  };

  CompletionRing() : head_(&stub_), tail_(&stub_) {}
  PDB_DISALLOW_COPY_AND_ASSIGN(CompletionRing);

  // Any thread. Wait-free; `n` must not be queued already.
  void Push(PendingOp* n) {
    n->ring_next.store(nullptr, std::memory_order_relaxed);
    PendingOp* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->ring_next.store(n, std::memory_order_release);
  }

  // Consumer (shard loop) only.
  Pop TryPop(PendingOp** out);

 private:
  std::atomic<PendingOp*> head_;  // last pushed node
  PendingOp* tail_;               // consumer cursor (oldest)
  PendingOp stub_;
};

// Pure timeout policy, split out for unit testing: pops every deadline that
// has already passed, then returns the epoll_wait timeout in milliseconds —
// -1 (block indefinitely) when no deadline is queued, the rounded-up
// distance to the nearest one otherwise, and 1 when `retry_soon` (a
// completion producer was observed mid-push, so the ring must be re-polled
// without waiting on a wakeup that may already have been consumed).
using DeadlineHeap =
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>;
int EpollTimeoutMs(DeadlineHeap* deadlines, uint64_t now_ns, bool retry_soon);

class NetShard {
 public:
  NetShard(Server* server, uint32_t id);
  ~NetShard();
  PDB_DISALLOW_COPY_AND_ASSIGN(NetShard);

  uint32_t id() const { return id_; }
  const ShardStats& stats() const { return stats_; }

  // --- Server lifecycle (Start/Stop thread) ---

  // Installs an already-bound-and-listening socket (or -1 for a shard that
  // only serves handed-off connections).
  void SetListener(int fd) { listen_fd_ = fd; }
  // Creates the epoll instance + wake eventfd and registers the listener.
  bool Init(std::string* err);
  void StartThread();
  void JoinThread();
  // Closes every remaining connection and all owned fds; returns reply
  // frames lost with those sockets. Only after JoinThread().
  size_t TearDown();

  // True once every pushed completion has been handled (response queued, or
  // counted dropped): Stop() polls this after DB::Drain so queued responses
  // reach the outboxes before the loop is torn down.
  bool Quiesced() const {
    return stats_.completions.load(std::memory_order_acquire) >=
           stats_.completions_pushed.load(std::memory_order_acquire);
  }

  // --- Cross-thread entry points ---

  // Coalesced wakeup: writes the eventfd only when no wake is pending.
  // Async-signal-safe (eventfd write + atomics).
  void MaybeWake();
  // Unconditional wake (Stop path).
  void Wake();

  // Completion callback target (worker/scheduler threads, possibly from a
  // preempted fiber): record the terminal status, enqueue, maybe-wake.
  // Lock-free and allocation-free.
  void PushCompletion(const std::shared_ptr<PendingOp>& op, Rc rc);

  // fd-hash handoff (fallback accept path): shard 0's thread routes an
  // accepted socket here; this shard adopts it on its next tick.
  void AdoptSocket(int fd);

 private:
  friend class Server;

  void EventLoop();
  void HandleAccept();
  void RegisterConn(int fd);
  void HandleConnReadable(const std::shared_ptr<Connection>& conn);
  bool HandleRequest(const std::shared_ptr<Connection>& conn,
                     const RequestHeader& hdr, std::string_view payload);
  // Batch frame (kReqFlagBatch): validates the whole envelope first (count
  // in range, inner frames decode, no nested batch / admin / repl opcodes,
  // count exactly tiles the payload), then feeds each inner frame through
  // HandleRequest so admission, classification, and per-request BUSY all
  // behave exactly as if the frames had arrived separately. Returns false
  // (poisoning the connection) when the envelope breaks framing — a
  // truncated inner frame or a count/length mismatch.
  bool HandleBatchRequest(const std::shared_ptr<Connection>& conn,
                          const RequestHeader& hdr, std::string_view payload);
  // Admin-plane opcodes (kMetrics/kHealth/kTraceSnapshot/kGetConfig/
  // kSetConfig): served inline on the shard thread, never submitted to the
  // engine, answered even while the server is draining. `payload` is the
  // request body (kSetConfig's JSON changeset). Returns false if `op` is
  // not an admin opcode.
  bool HandleAdminRequest(const std::shared_ptr<Connection>& conn,
                          const RequestHeader& hdr, std::string_view payload);
  // Shard thread: serialize one completed op and queue its response frame.
  void ProcessCompletion(PendingOp* op);
  // Immediate reply from the shard thread (rejections + admin payloads).
  void ReplyNow(const std::shared_ptr<Connection>& conn,
                const RequestHeader& req, WireStatus status, Rc rc,
                std::string_view payload = {});
  // Counts a bad request and answers it kBadRequest, `why` as the payload.
  // Returns true: the connection survives.
  bool RejectBadRequest(const std::shared_ptr<Connection>& conn,
                        const RequestHeader& req, std::string_view why = {});
  // In-flight submission depth (admitted minus completed), the flow-control
  // hint encoded into response headers so pipelined clients back off
  // before hitting BUSY.
  uint64_t QueueDepthHint() const;
  void FlushConn(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void UpdateEpollInterest(const std::shared_ptr<Connection>& conn);
  void DrainInbox();
  // Clears the wake flag, drains the completion ring into connection
  // outboxes, and flushes every connection touched this tick.
  void DrainCompletionsAndFlush();
  void MarkDirty(const std::shared_ptr<Connection>& conn);

  Server* const server_;
  const uint32_t id_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool torn_down_ = false;
  std::thread thread_;

  uint64_t next_conn_seq_ = 0;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  // Timeline-echo sampling counter (shard-thread-only): counts requests
  // that asked for their timeline; every Nth one gets it.
  uint64_t timeline_want_seq_ = 0;

  CompletionRing ring_;
  std::atomic<bool> wake_pending_{false};
  // Cleared after JoinThread: straggler completions (e.g. DB teardown
  // firing kError for never-run closures) drop their reply instead of
  // queueing into a loop that will never run again.
  std::atomic<bool> ring_open_{true};
  // Set when the last drain saw a producer mid-push: next epoll_wait must
  // use a short timeout instead of blocking (shard-thread-only).
  bool ring_retry_ = false;

  // Handed-off sockets from the accepting shard (fallback mode only; the
  // accept path is not the hot path, so a mutex is fine here).
  std::mutex inbox_mu_;
  std::vector<int> inbox_;

  // Absolute deadlines of admitted timed requests, nearest first; lazily
  // pruned by EpollTimeoutMs (shard-thread-only).
  DeadlineHeap deadlines_;

  // Connections with responses queued this tick (shard-thread-only).
  std::vector<std::shared_ptr<Connection>> dirty_;

  ShardStats stats_;
};

}  // namespace preemptdb::net

#endif  // PREEMPTDB_NET_SHARD_H_
