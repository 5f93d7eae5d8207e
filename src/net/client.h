// Client library for the PreemptDB wire protocol.
//
// Two usage modes over one blocking TCP socket:
//
//   Blocking RPC — Call() sends a frame and waits for its response; the
//   simplest integration (examples, tests, closed-loop load).
//
//   Pipelined — Send() queues frames without waiting and Recv() pulls
//   responses as they arrive, matched by request id at the caller. This is
//   what an open-loop generator needs: arrivals must not be gated on
//   completions, or the measured system is closed-loop no matter what the
//   schedule says (the coordinated-omission trap).
//
// A Client is NOT thread-safe; open-loop harnesses typically run one sender
// and one receiver thread per connection — that split (Send on one thread,
// Recv on another) IS supported, since the two directions touch disjoint
// socket halves and separate id state.
#ifndef PREEMPTDB_NET_CLIENT_H_
#define PREEMPTDB_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "util/macros.h"

namespace preemptdb::net {

class Client {
 public:
  struct Result {
    uint64_t request_id = 0;
    WireStatus status = WireStatus::kError;
    Rc rc = Rc::kError;
    uint64_t server_ns = 0;
    uint8_t version = 0;  // protocol version the server answered with
    // Flow-control hint: the serving shard's in-flight
    // submission depth at reply time, saturated at 255. Pipelined senders
    // back off when it climbs instead of discovering BUSY the hard way.
    uint32_t queue_hint = 0;
    std::string payload;  // timeline bytes (if any) already stripped
    // Server-side lifecycle timeline, present when the response carried
    // kRespFlagTimeline (the request asked via kReqFlagWantTimeline and
    // sampling selected it). Timestamps are server MonoNanos — deltas only.
    bool has_timeline = false;
    TimelineWire timeline;
  };

  Client() = default;
  ~Client() { Close(); }
  PDB_DISALLOW_COPY_AND_ASSIGN(Client);
  Client(Client&& other) noexcept
      : fd_(other.fd_), next_id_(other.next_id_) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      next_id_ = other.next_id_;
      other.fd_ = -1;
    }
    return *this;
  }

  // Connects with bounded retry: ECONNREFUSED / ECONNABORTED / EAGAIN (and
  // an EINTR-interrupted attempt) are retried up to `max_attempts` times
  // total with doubling backoff (0.5 ms start, 20 ms cap — worst case well
  // under 200 ms), covering the race where the client beats the server's
  // listen() or a shard's backlog momentarily overflows. Other errors (bad
  // host, unreachable network) fail immediately; max_attempts <= 1 restores
  // single-shot behaviour.
  bool Connect(const std::string& host, uint16_t port, std::string* err,
               int max_attempts = 8);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // --- Pipelined mode ---

  // Sends one framed request (blocking until the kernel buffer takes it);
  // assigns and returns the request id via *id_out when non-null. The id
  // in `h` is overwritten by an internal monotonic counter.
  bool Send(RequestHeader h, std::string_view payload, std::string* err,
            uint64_t* id_out = nullptr);

  // Blocks for the next response frame (arrival order, which under
  // preemption is NOT send order — match via Result::request_id).
  bool Recv(Result* out, std::string* err);

  // --- Batched mode ---

  // One inner request of a batch envelope. `hdr.request_id` is overwritten
  // with the assigned id on send, so the caller can match the responses.
  struct BatchItem {
    RequestHeader hdr;
    std::string payload;
  };

  // Encodes the items as one kReqFlagBatch envelope and sends it in a
  // single write syscall. The server answers with items.size() ordinary
  // response frames (coalesced into one writev on its side) — Recv() each.
  // Fails locally when the batch is empty, exceeds kMaxBatchCount, or the
  // encoded envelope would exceed kMaxPayload.
  bool SendBatch(std::vector<BatchItem>* items, std::string* err);

  // --- Blocking RPC mode ---

  // Send + Recv-until-matching-id. Responses to other outstanding pipelined
  // requests must not be interleaved with Call() on the same connection.
  bool Call(RequestHeader h, std::string_view payload, Result* out,
            std::string* err);

  // Convenience wrappers over the built-in KV opcodes, blocking, high or
  // low priority class. timeout_us = 0 means no deadline.
  bool Ping(Result* out, std::string* err);
  // Admin plane: fetch one introspection document (kMetrics / kHealth /
  // kTraceSnapshot / kGetConfig); Result::payload is the JSON body.
  bool Admin(Op op, Result* out, std::string* err);
  // kSetConfig: `json` is the tunable-knob changeset. On kOk the payload is
  // the new config document; on kBadRequest it is the rejection reason.
  bool SetConfig(std::string_view json, Result* out, std::string* err);
  bool Put(uint64_t key, std::string_view value, WireClass cls, Result* out,
           std::string* err, uint32_t timeout_us = 0);
  bool Get(uint64_t key, WireClass cls, Result* out, std::string* err,
           uint32_t timeout_us = 0);
  bool ScanSum(uint64_t lo, uint64_t hi, WireClass cls, Result* out,
               std::string* err, uint32_t timeout_us = 0);

  uint64_t next_id() const { return next_id_; }
  int fd() const { return fd_; }

 private:
  bool WriteAll(const char* buf, size_t len, std::string* err);
  bool ReadAll(char* buf, size_t len, std::string* err);

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

}  // namespace preemptdb::net

#endif  // PREEMPTDB_NET_CLIENT_H_
