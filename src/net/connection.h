// One accepted TCP connection of the networked front-end.
//
// Ownership and threading: a connection belongs to exactly one event-loop
// shard (net/shard.h), and that shard's thread is the only thread that
// touches the socket or the buffers — reads, frame parsing, response
// enqueue, writes, close. Worker threads never call into a Connection:
// completions travel through the shard's MPSC ring and are serialized into
// the outbox by the shard thread (which is why the outbox needs no lock).
// Connections are held by shared_ptr — a completion captured at admission
// keeps the object alive after the socket dies, so an accepted submission
// always has somewhere to deliver its completion even if the peer reset
// mid-response (the frame is then dropped and counted, never the
// submission).
#ifndef PREEMPTDB_NET_CONNECTION_H_
#define PREEMPTDB_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "util/macros.h"

namespace preemptdb::net {

class Connection {
 public:
  enum class IoResult : uint8_t {
    kOk,          // made progress; buffer state advanced
    kWouldBlock,  // socket drained/full; wait for the next epoll edge
    kClosed,      // peer closed or fatal error; caller must CloseAndDrop
  };

  Connection(int fd, uint64_t id, uint32_t shard_id);
  ~Connection();
  PDB_DISALLOW_COPY_AND_ASSIGN(Connection);

  int fd() const { return fd_; }
  uint64_t id() const { return id_; }
  // The event-loop shard that owns this connection for its whole life.
  uint32_t shard_id() const { return shard_id_; }

  // --- Shard-thread-only socket I/O ---

  // Reads whatever the socket has into the input buffer. The
  // kNetPartialRead fault point truncates each read to a single byte —
  // exercising exactly the resume-partial-frame path a slow peer causes.
  IoResult ReadIntoBuffer();

  // Invokes `cb` for every complete frame in the input buffer and compacts
  // it. Returns false on a malformed header: framing is unrecoverable, the
  // caller must close. `cb` returning false also stops parsing (close).
  bool DrainFrames(
      const std::function<bool(const RequestHeader&, std::string_view)>& cb);

  // Moves queued responses into the write buffer and writes as much as the
  // socket accepts. kNetPartialWrite truncates each write to one byte (the
  // loop resumes on the next edge, so responses still arrive whole).
  IoResult Flush();

  // True when bytes are queued (write buffer or outbox) — drives EPOLLOUT
  // interest.
  bool WantsWrite() const {
    return woff_ < wbuf_.size() || !outbox_.empty();
  }

  // Queues one serialized response frame for the next Flush(). Returns
  // false when the connection is already closed: the response is dropped
  // (the caller counts it), while the submission that produced it has
  // already completed DB-side — nothing is lost except the reply bytes,
  // exactly what a peer reset means. Shard thread only (completions reach
  // this via the shard's ring, never directly from a worker).
  bool EnqueueResponse(std::string frame);

  // Closes the socket and discards queued responses. Idempotent. Returns
  // the number of completed responses that were queued but never written —
  // the reply bytes this close actually lost (the caller counts them as
  // dropped; the submissions behind them completed regardless).
  size_t MarkClosed();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Hands the socket to another owner (the replication shipper): marks the
  // connection closed WITHOUT closing the fd, discards queued output, and
  // returns the fd — or -1 when the connection was already closed (the fd is
  // then gone; the caller must not use it). After a successful detach the
  // destructor and MarkClosed are no-ops on the socket. Shard thread only.
  int DetachFd();

  // In-flight submissions admitted on this connection (admission-side
  // backpressure: the server replies BUSY beyond Options::max_inflight).
  // Atomic because completion producers decrement it off-thread.
  std::atomic<uint32_t> in_flight{0};

  // Shard-thread scratch: set while the connection sits in the shard's
  // dirty list this tick, so a burst of completions queues one flush.
  bool flush_pending = false;

 private:
  const int fd_;
  const uint64_t id_;
  const uint32_t shard_id_;

  // Input: frames accumulate at the tail, parsing consumes from roff_.
  std::vector<uint8_t> rbuf_;
  size_t roff_ = 0;

  // Output: wbuf_[woff_..] is unwritten; refilled from the outbox.
  std::string wbuf_;
  size_t woff_ = 0;

  std::vector<std::string> outbox_;  // completed responses awaiting flush

  std::atomic<bool> closed_{false};
};

}  // namespace preemptdb::net

#endif  // PREEMPTDB_NET_CONNECTION_H_
