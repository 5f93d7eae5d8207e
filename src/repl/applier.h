// Follower-side application of shipped redo segments into a LIVE engine.
//
// The primary ships the redo log verbatim (whole CRC-framed segments, see
// engine/log.h), so the follower replays exactly what local crash recovery
// would replay — same parsing, same transaction grouping, same dedup rule —
// but against an engine that is concurrently serving read-only transactions.
// Two things make that safe:
//
//   * Version installs use release stores, so a reader that finds a new
//     chain head sees its payload fully built.
//   * The engine's commit-timestamp counter only advances (Engine::
//     AdvanceTs) AFTER a transaction's whole record group is installed.
//     Until then every installed version carries clsn > any reader's begin
//     timestamp, so readers never observe half a transaction — the same
//     argument snapshot isolation makes for in-flight local writers.
//
// A group is applied only when its kSegTxnEnd segment arrives (groups are
// buffered per commit_seq, exactly like recovery), so a primary that dies
// mid-transaction never leaks a partial commit to replica reads.
#ifndef PREEMPTDB_REPL_APPLIER_H_
#define PREEMPTDB_REPL_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/log.h"
#include "util/macros.h"

namespace preemptdb::repl {

// Frame-walk summary of one shipped chunk.
struct ChunkInfo {
  uint64_t frames = 0;     // complete CRC-valid segments found
  uint64_t max_seq = 0;    // highest commit_seq among them
  uint64_t valid_bytes = 0;  // whole-frame prefix that validated
};

// Walks [data, data+n) as CRC-framed redo segments. Returns true when the
// entire range is whole, CRC-valid frames (info->valid_bytes == n); false
// means the stream is torn or corrupt at valid_bytes — the follower treats
// that as transport corruption and resubscribes rather than applying.
bool ValidateFrames(const char* data, size_t n, ChunkInfo* info);

// Byte offset of the end of the last valid frame in `path`, scanning from
// `from_off` (the local manifest's redo_off; bytes before it may be a
// sparse bootstrap hole and are not parseable frames). Returns `from_off`
// when the file is missing, shorter than from_off, or starts torn — the
// same truncation point local recovery would pick.
uint64_t ScanValidLogEnd(const std::string& path, uint64_t from_off);

class Applier {
 public:
  explicit Applier(engine::Engine* engine) : engine_(engine) {}
  PDB_DISALLOW_COPY_AND_ASSIGN(Applier);

  // Applies one shipped chunk of whole frames (caller validated with
  // ValidateFrames and landed it via LogManager::AppendRaw first, so the
  // on-disk log is always at least as new as the in-memory state a crash
  // must rebuild). Returns false on a malformed frame — the caller's
  // validation makes that unreachable in practice. Transaction groups
  // publish only at their kSegTxnEnd frame.
  bool ApplyChunk(const char* data, size_t n);

  // Highest commit_seq whose full group has been applied and published.
  uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

 private:
  struct PendingRecord {
    engine::LogRecordHeader hdr;
    std::string payload;
  };

  void ApplyRecord(uint64_t seq, const engine::LogRecordHeader& h,
                   const char* payload);

  engine::Engine* const engine_;
  // Transaction groups awaiting their end marker (apply-thread-only).
  std::map<uint64_t, std::vector<PendingRecord>> pending_;
  std::atomic<uint64_t> applied_seq_{0};
};

}  // namespace preemptdb::repl

#endif  // PREEMPTDB_REPL_APPLIER_H_
