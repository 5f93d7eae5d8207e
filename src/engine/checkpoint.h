// Fuzzy checkpoints and crash recovery (the durability half of the redo
// design in log.h).
//
// A checkpoint is a point-in-time materialization of the store — every table,
// its secondary indexes, and the newest version of every live row visible at
// a snapshot timestamp T — taken *while transactions keep running* (fuzzy:
// no quiesce, no latch held across the scan). Correctness rests on one
// ordering rule: the redo offset O is captured BEFORE the snapshot T, so any
// commit the checkpoint missed (cts > T) wrote its redo frames at offset
// >= O, and replaying [O, end) over the checkpoint re-applies it. Commits
// that land in both (cts <= T and offset >= O) are deduplicated at replay:
// a record whose commit sequence is <= the installed head's clsn is skipped.
//
// The writer never mutates the previous checkpoint: it streams to ckpt.tmp,
// fsyncs, and atomically renames to ckpt-<seq>.pdb before rewriting the
// MANIFEST (same tmp+rename+dir-fsync dance). A crash at any byte leaves
// either the old checkpoint in force or the new one complete — never a half
// checkpoint named by the manifest. The file carries a whole-file CRC-32C
// trailer (masked, util/crc32c.h) so a checkpoint torn by an unluckier
// failure is detected, and a manifest naming a bad checkpoint is refused
// loudly rather than recovered wrongly.
//
// Recovery (Engine::Recover, called through Engine::EnableDurability):
//   1. load the manifest (absent => log-only recovery from offset 0; corrupt
//      => hard error);
//   2. rebuild tables/indexes/rows from the checkpoint, stamping rows with
//      clsn = T;
//   3. replay redo frames from O, buffering each transaction's segments
//      until its end marker and discarding groups that never got one;
//   4. truncate the log at the first torn/corrupt frame (counted in
//      recovery.truncated_bytes) and reopen it for appending.
#ifndef PREEMPTDB_ENGINE_CHECKPOINT_H_
#define PREEMPTDB_ENGINE_CHECKPOINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace preemptdb::engine {

// What recovery found and repaired; returned by Engine::EnableDurability.
struct RecoveryStats {
  uint64_t checkpoint_seq = 0;   // manifest sequence loaded (0 = none)
  uint64_t checkpoint_ts = 0;    // snapshot timestamp of that checkpoint
  uint64_t checkpoint_rows = 0;  // rows installed from the checkpoint
  uint64_t redo_segments = 0;    // frames parsed from the redo tail
  uint64_t redo_txns_applied = 0;
  uint64_t redo_records_applied = 0;
  uint64_t truncated_bytes = 0;  // torn tail cut off the log file
  uint64_t discarded_partial_txns = 0;  // groups missing their end marker
  uint64_t skipped_records = 0;  // records referencing unknown tables/indexes
  uint64_t restored_ts = 0;      // timestamp counter after recovery
};

// --- Replication helpers (the shipper/follower reuse the checkpoint file
// format and manifest dance verbatim; implemented in checkpoint.cc) ---

// Reads and CRC-validates `dir`/MANIFEST. Returns false with *err filled
// when the manifest is absent, unreadable, or corrupt. On success fills the
// checkpoint sequence/timestamp/redo-offset and the checkpoint file name
// (relative to `dir`).
bool LoadCheckpointManifest(const std::string& dir, uint64_t* seq,
                            uint64_t* ts, uint64_t* redo_off,
                            std::string* file, std::string* err);

// Installs a checkpoint image received off the wire into `dir`: verifies the
// whole-file CRC trailer and header, writes the checkpoint durably under its
// canonical name (ckpt-<seq>.pdb), then writes the MANIFEST referencing it —
// the same tmp+fsync+rename+dir-fsync dance the checkpointer uses, so a
// crash mid-install leaves either nothing or a complete bootstrap. Fills the
// header fields so the caller knows where streaming resumes (redo_off).
bool InstallCheckpointImage(const std::string& dir, const std::string& image,
                            uint64_t* out_seq, uint64_t* out_ts,
                            uint64_t* out_redo_off, std::string* err);

// Background fuzzy-checkpoint writer. One per durable engine, owned by it.
class Checkpointer {
 public:
  // On-disk names inside the durability directory.
  static constexpr const char* kManifestName = "MANIFEST";
  static constexpr const char* kTmpSuffix = ".tmp";

  Checkpointer(Engine* engine, std::string dir);
  ~Checkpointer();
  PDB_DISALLOW_COPY_AND_ASSIGN(Checkpointer);

  // Periodic mode: a checkpoint every `interval_ms`. Idempotent.
  void Start(uint64_t interval_ms);
  void Stop();

  // One fuzzy checkpoint, in the calling thread. Returns false on write
  // failure (counted in failures(); the previous checkpoint stays in
  // force and its file is untouched). Serialized against the periodic
  // thread: both funnel through one writer mutex, so a manual call while
  // the background writer is mid-checkpoint waits rather than colliding
  // on ckpt.tmp.
  bool WriteCheckpoint();

  // Seeds sequence/timestamp state from what recovery loaded, so the next
  // checkpoint continues the numbering.
  void NoteRecovered(uint64_t seq, uint64_t ts);

  uint64_t last_seq() const {
    return last_seq_.load(std::memory_order_acquire);
  }
  uint64_t last_ts() const { return last_ts_.load(std::memory_order_acquire); }
  uint64_t failures() const { return failures_.Value(); }
  uint64_t completed() const { return completed_.Value(); }
  // Milliseconds since the last completed checkpoint; UINT64_MAX when none
  // has completed in this process (a recovered seq counts as none: its age
  // is unknown).
  uint64_t AgeMs() const;

 private:
  // Streams one checkpoint into `tmp_path`. Fills the snapshot timestamp
  // and row count; returns false on any write/inject failure.
  bool WriteCheckpointFile(const std::string& tmp_path, uint64_t seq,
                           uint64_t* out_ts, uint64_t* out_rows,
                           uint64_t* out_redo_off);

  Engine* const engine_;
  const std::string dir_;
  // GC guard while the snapshot scan runs (same registry as transactions).
  std::shared_ptr<std::atomic<uint64_t>> active_slot_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Held for the whole of WriteCheckpoint (tmp write + rename + manifest).
  std::mutex write_mu_;

  std::atomic<uint64_t> last_seq_{0};
  std::atomic<uint64_t> last_ts_{0};
  std::atomic<uint64_t> last_done_ns_{0};  // steady clock; 0 = none yet
  obs::LocalCounter completed_;  // ckpt.completed
  obs::LocalCounter failures_;   // ckpt.failures
};

}  // namespace preemptdb::engine

#endif  // PREEMPTDB_ENGINE_CHECKPOINT_H_
