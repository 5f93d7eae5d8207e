// Redo logging with per-context log buffers and CRC-framed durable segments.
//
// This is the paper's motivating example for context-local storage (§4.3):
// ERMIA keeps a per-thread log buffer as a thread_local, which breaks once
// two transaction contexts share a worker thread — they would interleave redo
// records in one buffer. Here the buffer is a ContextLocal, so the preempted
// low-priority transaction and the preempting high-priority transaction each
// append to their own buffer, and a context switch transparently swaps them.
//
// Durability is simulated by default: sealed buffers are accounted (bytes,
// flush count) by the LogManager rather than written to storage, which
// preserves the CPU path (serialize + buffer management) without adding I/O
// the paper's memory-resident evaluation also avoids.
//
// OpenFile() switches the manager to a real append-only log. Each sealed
// buffer is then framed as a *segment*:
//
//   SegmentHeader { magic, length, commit_seq, flags, crc32c } + payload
//
// The CRC covers the header prefix and the payload, so replay can tell a
// torn tail (power cut / SIGKILL mid-write) from valid data and truncate at
// the first bad frame instead of silently corrupting recovery. Segments of
// one transaction share its commit sequence; the last one carries
// kSegTxnEnd — recovery applies a transaction's records only when its end
// marker made it to disk, so a commit that died mid-log never resurrects
// half-applied.
//
// Group commit: with SyncMode::kGroupCommit (the default for file-backed
// logs) Sink fdatasyncs at commit boundaries, but concurrent committers
// share one sync — a sealer first appends under the append latch, then
// waits on the sync latch; whoever holds it syncs everything appended so
// far, covering the queued sealers behind it. Only after the covering sync
// returns does Sink return kOk — the completion (and therefore any wire
// ACK) happens strictly after the bytes are durable, which is the invariant
// the crash harness's "every acked commit survives" assertion leans on.
//
// Failure handling: the write path retries short writes and EINTR/EAGAIN,
// surfaces persistent errno as Rc::kIoError (readable via last_errno()),
// and is a fault::kLogWrite injection point. A persistent failure part-way
// through a frame leaves `off` torn bytes on disk — counted in torn_bytes()
// — then repaired by truncating back to the frame start so later appends
// stay parseable; if even the repair fails the log is poisoned (every later
// Sink fails fast) rather than appending unreachable-after-garbage data.
#ifndef PREEMPTDB_ENGINE_LOG_H_
#define PREEMPTDB_ENGINE_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "engine/version.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/status.h"

namespace preemptdb::engine {

class LogManager;

// --- On-disk format ---

inline constexpr uint32_t kSegmentMagic = 0x53424450;  // "PDBS"

// Segment flags.
inline constexpr uint32_t kSegTxnEnd = 1u << 0;  // closes commit_seq's group

struct SegmentHeader {
  uint32_t magic;       // kSegmentMagic
  uint32_t length;      // payload bytes following this header
  uint64_t commit_seq;  // commit timestamp of the sealing txn (0 = DDL/none)
  uint32_t flags;       // kSeg* bits
  uint32_t crc32c;      // over bytes [0, 16) of this header + the payload
};
static_assert(sizeof(SegmentHeader) == 24, "segment header layout");
// Header bytes covered by the CRC: everything before the crc field itself.
inline constexpr size_t kSegmentCrcPrefix = offsetof(SegmentHeader, crc32c);

enum class LogRecordKind : uint8_t {
  kData = 0,             // payload = row bytes; key/oid/deleted meaningful
  kSecondaryUpsert = 1,  // key = secondary key, oid = target, sec_ordinal
  kTableCreate = 2,      // payload = table name; table_id = assigned id
  kSecondaryCreate = 3,  // payload = index name; table_id + sec_ordinal
};

// Record header preceding each payload in a segment.
struct LogRecordHeader {
  uint32_t table_id;
  uint32_t size;  // payload bytes following this header
  Oid oid;
  uint64_t key;          // primary key (kData) or secondary key
  uint8_t kind;          // LogRecordKind
  uint8_t deleted;       // tombstone flag (kData)
  uint16_t sec_ordinal;  // secondary index ordinal within the table
  uint32_t reserved;
};
static_assert(sizeof(LogRecordHeader) == 32, "log record layout");

// Fixed-size append buffer; one instance per transaction context (CLS).
class LogBuffer {
 public:
  static constexpr size_t kCapacity = 1 << 16;

  LogBuffer() = default;
  PDB_DISALLOW_COPY_AND_ASSIGN(LogBuffer);

  // Declares the commit sequence stamped on every segment sealed from this
  // buffer until the next StartTxn. Call at the start of a commit's redo
  // phase (the commit timestamp is already drawn by then).
  void StartTxn(uint64_t commit_seq) {
    seq_ = commit_seq;
    auto_sealed_ = false;
  }

  // Appends a data redo record; seals the buffer to `lm` (without the
  // txn-end marker) when full. Returns kIoError (and drops the record) when
  // the triggered seal fails to write.
  Rc Append(LogManager* lm, uint32_t table_id, Oid oid, uint64_t key,
            const void* payload, uint32_t size, bool deleted);

  // Appends an arbitrary pre-built record (secondary upserts, DDL). `size`
  // in `hdr` must match the payload length.
  Rc AppendRecord(LogManager* lm, const LogRecordHeader& hdr,
                  const void* payload);

  // Seals whatever is buffered to the manager. txn_end stamps the segment
  // as the transaction's last (the commit boundary); recovery discards
  // transactions whose end marker never hit the disk. The buffer is emptied
  // either way; a failed write is reported as kIoError and counted in the
  // manager's lost_bytes(). An empty buffer with txn_end still emits a
  // zero-length end segment when earlier auto-seals wrote this
  // transaction's records (exact-fit fills must not lose the marker).
  Rc Seal(LogManager* lm, bool txn_end = true);

  size_t pos() const { return pos_; }
  uint64_t records() const { return records_; }

 private:
  size_t pos_ = 0;
  uint64_t records_ = 0;
  uint64_t seq_ = 0;
  bool auto_sealed_ = false;  // a non-end segment went out for seq_
  char buf_[kCapacity];
};

class LogManager {
 public:
  // Durability discipline for the file-backed mode.
  enum class SyncMode : uint8_t {
    kNone,         // write() only; the OS decides when bytes are durable
    kGroupCommit,  // fdatasync before Sink returns, shared across sealers
  };

  LogManager();
  ~LogManager();
  PDB_DISALLOW_COPY_AND_ASSIGN(LogManager);

  // Switches from simulated durability to a real append-only log file.
  // Reopening an existing file appends after the surviving bytes (recovery
  // depends on this); pass truncate = true to explicitly start over (tests
  // asserting exact file sizes). Returns false (filling *err) if the file
  // cannot be opened/created.
  bool OpenFile(const std::string& path, std::string* err = nullptr,
                bool truncate = false);
  void CloseFile();
  bool file_backed() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  void set_sync_mode(SyncMode m) { sync_mode_ = m; }
  SyncMode sync_mode() const { return sync_mode_; }

  // Accepts a sealed buffer as one framed segment. Simulated mode always
  // succeeds; file-backed mode writes through (retrying short writes and
  // EINTR/EAGAIN), fdatasyncs per sync_mode(), and returns kIoError on a
  // persistent failure, with errno in last_errno() and the dropped payload
  // counted in lost_bytes().
  Rc Sink(const char* data, size_t bytes, uint64_t records,
          uint64_t commit_seq, uint32_t flags);

  // Replication apply path: appends `bytes` of already-framed segment data
  // verbatim (the follower receives whole frames off the wire and must land
  // them byte-identical, or its offsets diverge from the primary's). Same
  // write-retry / torn-frame-repair / poisoning discipline as Sink, same
  // group-commit durability before returning; `max_seq` is the highest
  // commit_seq inside the chunk and `frames` its segment count (accounting).
  Rc AppendRaw(const char* data, size_t bytes, uint64_t frames,
               uint64_t max_seq);

  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  uint64_t io_errors() const { return io_errors_.Value(); }
  uint64_t lost_bytes() const {
    return lost_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes of partial frames a persistent mid-frame failure left on disk
  // (before repair). Distinct from lost_bytes, which counts payload that
  // never landed: torn bytes *are* on disk, as garbage recovery truncates.
  uint64_t torn_bytes() const { return torn_bytes_.Value(); }
  int last_errno() const { return last_errno_.load(std::memory_order_relaxed); }

  // File-backed framing state. appended_bytes counts fully-framed bytes
  // (headers included); durable_seq is the highest commit sequence covered
  // by a completed fdatasync (0 under SyncMode::kNone or simulated mode).
  uint64_t appended_bytes() const {
    std::lock_guard<std::mutex> g(append_mutex_);
    return appended_bytes_;
  }
  uint64_t segments() const { return segments_.Value(); }
  uint64_t durable_seq() const {
    return durable_seq_.load(std::memory_order_relaxed);
  }
  // Byte frontier covered by a completed fdatasync — always a frame
  // boundary, because the sync snapshot is taken under the append latch.
  // The replication shipper streams only [shipped, durable_bytes): bytes it
  // ships survive a primary crash by construction, so a follower can never
  // apply state the primary later loses.
  uint64_t durable_bytes() const {
    return durable_bytes_.load(std::memory_order_acquire);
  }
  // Seeds the durable frontiers after recovery: everything a fresh OpenFile
  // found on disk already survived at least one crash, so the shipper may
  // stream it before any new commit forces a sync.
  void NoteRecoveredDurable(uint64_t seq) {
    uint64_t bytes;
    {
      std::lock_guard<std::mutex> g(append_mutex_);
      bytes = appended_bytes_;
      if (seq > last_appended_seq_) last_appended_seq_ = seq;
    }
    durable_bytes_.store(bytes, std::memory_order_release);
    uint64_t prev = durable_seq_.load(std::memory_order_relaxed);
    if (seq > prev) durable_seq_.store(seq, std::memory_order_release);
  }
  uint64_t fsyncs() const { return fsyncs_.Value(); }
  bool poisoned() const {
    return poisoned_.load(std::memory_order_relaxed);
  }

 private:
  // Waits until a completed fdatasync covers `ticket` (group commit).
  Rc EnsureDurable(uint64_t ticket);

  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> total_records_{0};
  std::atomic<uint64_t> flushes_{0};
  obs::LocalCounter io_errors_;  // log.io_errors
  std::atomic<uint64_t> lost_bytes_{0};
  obs::LocalCounter torn_bytes_;  // log.torn_bytes
  obs::LocalCounter segments_;    // log.segments
  obs::LocalCounter fsyncs_;      // log.fsyncs
  std::atomic<int> last_errno_{0};
  std::atomic<bool> poisoned_{false};

  // Append path (serialized: frames from different contexts must not
  // interleave on disk). Commit runs inside a non-preemptible region, so a
  // holder is never a paused fiber — waiters are other threads, briefly.
  mutable std::mutex append_mutex_;
  std::vector<char> scratch_;          // frame assembly buffer
  uint64_t appended_bytes_ = 0;        // fully-framed on-disk bytes
  uint64_t append_ticket_ = 0;         // frames appended so far
  uint64_t last_appended_seq_ = 0;     // max commit_seq appended

  // Group-commit sync state.
  std::mutex sync_mutex_;
  std::atomic<uint64_t> synced_ticket_{0};
  std::atomic<uint64_t> durable_seq_{0};
  std::atomic<uint64_t> durable_bytes_{0};

  SyncMode sync_mode_ = SyncMode::kGroupCommit;
  std::string path_;
  int fd_ = -1;
};

}  // namespace preemptdb::engine

#endif  // PREEMPTDB_ENGINE_LOG_H_
