// Follower-side replication: bootstrap local state from the primary, then
// apply its shipped redo stream into a live read-only engine.
//
// Life cycle is two-phase, split around the engine's own recovery:
//
//   Bootstrap()  — BEFORE Engine::EnableDurability. Reconciles the local
//     directory with the primary: scans the local redo log for its valid
//     frame prefix (truncating any torn tail, exactly like local recovery),
//     subscribes with that offset, and if the primary answers with a
//     checkpoint bootstrap, downloads + installs the image and creates a
//     redo log sparse-extended to the checkpoint's redo offset. Either way
//     the directory afterwards recovers through the ordinary recovery path
//     to a state whose redo offsets EQUAL the primary's — the two logs are
//     byte-identical over the follower's range, forever.
//
//   Start(engine) — AFTER recovery. Spawns the apply thread: subscribe at
//     the engine's appended_bytes, stream kReplAppend chunks, validate
//     frames (CRC), land them via LogManager::AppendRaw (durability first),
//     apply them via Applier (visibility second), ack with the new durable
//     offset + applied commit_seq. Disconnects reconnect with backoff and
//     resume from the follower's own frontier; a primary that can no longer
//     serve our offset sets rebuild_required() and the thread exits (the
//     operator restarts the follower, which re-bootstraps from checkpoint).
#ifndef PREEMPTDB_REPL_REPLICATOR_H_
#define PREEMPTDB_REPL_REPLICATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "repl/applier.h"
#include "util/macros.h"

namespace preemptdb::repl {

class Replicator {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::string dir;  // follower data directory
  };

  explicit Replicator(Options opts);
  ~Replicator() { Stop(); }
  PDB_DISALLOW_COPY_AND_ASSIGN(Replicator);

  // Phase 1 (see file comment). On success the directory is ready for
  // Engine::EnableDurability. Fails (with *err) when the primary is
  // unreachable or a shipped image is corrupt.
  bool Bootstrap(std::string* err);

  // Phase 2: starts the apply thread against a recovered, durable engine.
  void Start(engine::Engine* engine);
  // Stops and joins the apply thread. Idempotent.
  void Stop();

  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  // The primary refused our offset and had no resume path; local state must
  // be rebuilt from scratch (wipe + Bootstrap again).
  bool rebuild_required() const {
    return rebuild_required_.load(std::memory_order_acquire);
  }
  uint64_t reconnects() const { return reconnects_.Value(); }
  // Primary's durable commit frontier as of the last kReplAppend frame —
  // applied_seq() vs this is the follower's staleness in commit_seqs.
  uint64_t primary_durable_seq() const {
    return primary_durable_seq_.load(std::memory_order_relaxed);
  }
  uint64_t applied_seq() const {
    return applier_ ? applier_->applied_seq() : 0;
  }
  const Applier* applier() const { return applier_.get(); }
  const Options& options() const { return opts_; }

 private:
  void RunApply();

  const Options opts_;
  engine::Engine* engine_ = nullptr;
  std::unique_ptr<Applier> applier_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> connected_{false};
  std::atomic<bool> rebuild_required_{false};
  std::atomic<int> live_fd_{-1};
  obs::LocalCounter reconnects_;  // repl.follower.reconnects
  std::atomic<uint64_t> primary_durable_seq_{0};
};

}  // namespace preemptdb::repl

#endif  // PREEMPTDB_REPL_REPLICATOR_H_
