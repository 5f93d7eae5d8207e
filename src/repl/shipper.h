// Primary-side log shipping: one session thread per subscribed follower.
//
// A follower arrives as an ordinary wire connection whose first frame is
// kReplSubscribe; the serving shard detaches the socket from its event loop
// (Connection::DetachFd) and hands the raw fd here. The session thread then
// owns the socket end to end:
//
//   1. Mode decision — resume from the follower's durable offset when the
//      primary's log still covers it, otherwise ship the last complete
//      checkpoint for bootstrap (hello.mode = kReplModeSnapshot).
//   2. Hello — a ResponseHeader whose payload is ReplHelloWire.
//   3. Snapshot (bootstrap only) — the checkpoint file in <=256 KiB
//      kReplSnapshot chunks.
//   4. Stream — kReplAppend chunks of whole CRC-framed redo segments read
//      from the log file, strictly within [shipped, durable_bytes): a byte
//      is never shipped before a completed fdatasync covers it, so a
//      follower can never apply state the primary would lose in a crash.
//      durable_bytes is always a frame boundary (log.h), so chunk carving
//      only ever cuts between frames, never inside one.
//   5. Acks — kReplAck frames read back on the same socket carry the
//      follower's durable offset + applied commit_seq; per-follower lag is
//      durable_bytes - acked, exported as repl.follower<i>.* gauges.
//
// The fault::kReplShip point perturbs step 4 (drop / dup / connreset /
// stall — the `replship:` spec grammar); the follower's offset check turns
// a dropped chunk into a detectable gap and a duplicated one into a no-op.
#ifndef PREEMPTDB_REPL_SHIPPER_H_
#define PREEMPTDB_REPL_SHIPPER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace preemptdb::repl {

class Shipper {
 public:
  // Follower slots are a small fixed pool so gauge names stay stable across
  // reconnects (a returning follower lands in the lowest free slot).
  static constexpr uint32_t kMaxFollowers = 8;
  // Chunk payload budget; >= one max frame (LogBuffer::kCapacity + header),
  // well under the wire payload cap.
  static constexpr size_t kChunkBudget = 256 * 1024;

  struct Options {
    // Per-follower redo-stream pacing (token bucket, one-chunk burst): a
    // kReplAppend chunk of B bytes blocks the NEXT chunk for B /
    // max_bytes_per_sec seconds, so a bootstrapping or far-behind follower
    // cannot saturate the primary's NIC against foreground traffic.
    // 0 = unlimited (ship as fast as the socket takes bytes). Snapshot
    // chunks are not paced — bootstrap is a one-shot bulk copy.
    uint64_t max_bytes_per_sec = 0;
  };

  struct FollowerView {
    uint32_t slot = 0;
    bool connected = false;
    uint64_t shipped_bytes = 0;
    uint64_t acked_bytes = 0;
    uint64_t applied_seq = 0;
    uint64_t lag_bytes = 0;  // primary durable_bytes - acked_bytes
  };

  explicit Shipper(engine::Engine* engine);
  Shipper(engine::Engine* engine, Options opts);
  ~Shipper();
  PDB_DISALLOW_COPY_AND_ASSIGN(Shipper);

  // Takes ownership of a detached, blocking-mode socket whose subscribe
  // frame was `sub`. Closes the fd immediately when stopping or when every
  // slot is taken. Called from shard threads.
  void AddFollower(int fd, const net::RequestHeader& sub);

  // Stops every session thread (shutdown + join). Idempotent.
  void Stop();

  // Point-in-time view of slots that are (or have been) connected.
  std::vector<FollowerView> Followers() const;
  uint32_t follower_count() const;
  uint64_t max_lag_bytes() const;
  uint64_t sessions_started() const { return sessions_started_.Value(); }

 private:
  struct Slot {
    std::atomic<bool> active{false};
    std::atomic<bool> ever_used{false};
    std::atomic<int> fd{-1};
    std::atomic<uint64_t> shipped{0};
    std::atomic<uint64_t> acked{0};
    std::atomic<uint64_t> applied_seq{0};
    std::thread thread;
  };

  void Run(Slot* slot, net::RequestHeader sub);
  bool SendAll(int fd, const char* data, size_t n);
  // Drains whatever ack bytes the socket has (non-blocking); *dead on
  // EOF/error. `ackbuf` persists partial frames across calls.
  bool DrainAcks(Slot* slot, std::string* ackbuf, bool* dead);

  engine::Engine* const engine_;
  const Options opts_;
  std::atomic<bool> stopping_{false};
  obs::LocalCounter sessions_started_;  // repl.ship.sessions
  mutable std::mutex mu_;  // slot assignment / join
  Slot slots_[kMaxFollowers];
  obs::GaugeGroup gauges_;
};

}  // namespace preemptdb::repl

#endif  // PREEMPTDB_REPL_SHIPPER_H_
