// Fuzzy checkpoint writer + crash recovery. See checkpoint.h for the
// ordering argument (redo offset before snapshot timestamp) and the on-disk
// dance (tmp -> fsync -> rename -> dir fsync, checkpoint before manifest).
#include "engine/checkpoint.h"

#include <errno.h>
#include <fcntl.h>
#include <sched.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "engine/transaction.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"

namespace preemptdb::engine {

namespace {

obs::Counter g_ckpt_completed("ckpt.completed");
obs::Counter g_ckpt_failures("ckpt.failures");
obs::Counter g_ckpt_rows("ckpt.rows");
obs::Counter g_ckpt_bytes("ckpt.bytes");
obs::Counter g_recovery_runs("recovery.runs");
obs::Counter g_recovery_truncated("recovery.truncated_bytes");
obs::Counter g_recovery_redo_txns("recovery.redo_txns");
obs::Counter g_recovery_discarded("recovery.discarded_txns");
obs::Counter g_recovery_ckpt_rows("recovery.ckpt_rows");

// --- Checkpoint file format ---
//
// CkptFileHeader
// per table (in id order):
//   TableHeader + name bytes
//   per secondary (in ordinal order): u32 name length + name bytes
//   rows: RowHeader + payload, terminated by a RowHeader with
//         oid == kRowSentinel
//   per secondary: u64 pair count, then count * SecPair
// CkptTrailer (masked CRC-32C of every preceding byte)

constexpr uint32_t kCkptMagic = 0x43424450;    // "PDBC"
constexpr uint32_t kCkptTrailerMagic = 0x45424450;  // "PDBE"
constexpr uint32_t kCkptVersion = 1;
constexpr uint64_t kRowSentinel = UINT64_MAX;

struct CkptFileHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t seq;
  uint64_t snapshot_ts;
  uint64_t redo_off;  // replay the redo log from this byte offset
  uint32_t table_count;
  uint32_t reserved;
};
static_assert(sizeof(CkptFileHeader) == 40, "checkpoint header layout");

struct TableHeader {
  uint32_t name_len;
  uint32_t secondary_count;
  uint64_t oid_watermark;  // OidArray allocation cursor at capture time
};

struct RowHeader {
  uint64_t oid;
  uint64_t key;
  uint32_t size;
  uint32_t reserved;
};

struct SecPair {
  uint64_t key;
  uint64_t oid;
};

struct CkptTrailer {
  uint32_t magic;
  uint32_t masked_crc;
};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Streaming writer with a running whole-file CRC. Checkpoint writes are a
// fault::kCkptWrite injection point (param: errno, or 0 for a retried short
// write) and host the kMidCheckpoint crash site.
struct CkptWriter {
  int fd = -1;
  uint32_t crc = 0;
  uint64_t bytes = 0;

  bool Write(const void* p, size_t n) {
    const char* d = static_cast<const char*>(p);
    size_t off = 0;
    int transient = 0;
    while (off < n) {
      fault::CrashPoint(fault::CrashSite::kMidCheckpoint);
      size_t want = n - off;
      ssize_t w;
      if (PDB_UNLIKELY(fault::ShouldFire(fault::Point::kCkptWrite))) {
        uint64_t injected = fault::Param(fault::Point::kCkptWrite);
        if (injected == 0) {
          // Injected short write: the retry loop must finish the job.
          w = ::write(fd, d + off, want > 1 ? want / 2 : want);
        } else {
          w = -1;
          errno = static_cast<int>(injected);
        }
      } else {
        w = ::write(fd, d + off, want);
      }
      if (w > 0) {
        off += static_cast<size_t>(w);
        continue;
      }
      int err = errno;
      if ((err == EINTR || err == EAGAIN) && transient++ < 64) continue;
      return false;
    }
    crc = util::Crc32c(crc, p, n);
    bytes += n;
    return true;
  }
};

// The version of `oid` visible at `snapshot`, waiting out concurrent
// committers whose timestamp is (or may land) inside the snapshot — the same
// discipline as Transaction::FindVisible, but from a non-transaction thread.
// Commit stamping runs non-preemptible, so the waits are bounded.
Version* VisibleAt(Table* table, Oid oid, uint64_t snapshot) {
  Version* v = table->Head(oid).load(std::memory_order_acquire);
  while (v != nullptr) {
    uint64_t clsn = v->clsn.load(std::memory_order_acquire);
    if (PDB_LIKELY(!(clsn & kInFlightBit))) {
      if (clsn <= snapshot) return v;
      v = v->next;
      continue;
    }
    Transaction* owner = Version::OwnerOf(clsn);
    if (owner == nullptr) {  // aborted residue
      v = v->next;
      continue;
    }
    uint64_t octs = owner->CommitTsRelaxed();
    if (octs == Transaction::kCommittingTs || (octs != 0 && octs <= snapshot)) {
      // Committing at (or possibly at) a timestamp we must include: wait for
      // the stamp, unless the version already moved on.
      if (v->clsn.load(std::memory_order_acquire) != clsn) continue;
      sched_yield();
      continue;
    }
    if (v->clsn.load(std::memory_order_acquire) != clsn) continue;
    v = v->next;
  }
  return nullptr;
}

// Bounded cursor over an in-memory checkpoint image; every Read fails
// gracefully instead of over-running, so a structurally-corrupt (but
// CRC-valid, i.e. impossible in practice) file cannot crash recovery.
struct Cursor {
  const char* p;
  size_t left;
  bool Read(void* out, size_t n) {
    if (n > left) return false;
    std::memcpy(out, p, n);
    p += n;
    left -= n;
    return true;
  }
  bool ReadString(std::string* out, size_t n) {
    if (n > left) return false;
    out->assign(p, n);
    p += n;
    left -= n;
    return true;
  }
};

bool ReadFileAll(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string CkptFileName(uint64_t seq) {
  return "ckpt-" + std::to_string(seq) + ".pdb";
}

// Manifest: human-readable key/value lines, CRC-sealed. Written via
// tmp+rename like the checkpoint itself.
//
//   PDBM v1
//   ckpt_seq <n>
//   ckpt_ts <T>
//   redo_off <O>
//   ckpt_file ckpt-<n>.pdb
//   crc <masked CRC-32C of all preceding bytes, decimal>
std::string BuildManifest(uint64_t seq, uint64_t ts, uint64_t redo_off,
                          const std::string& file) {
  std::string body = "PDBM v1\n";
  body += "ckpt_seq " + std::to_string(seq) + "\n";
  body += "ckpt_ts " + std::to_string(ts) + "\n";
  body += "redo_off " + std::to_string(redo_off) + "\n";
  body += "ckpt_file " + file + "\n";
  uint32_t crc = util::MaskCrc(util::Crc32c(0, body.data(), body.size()));
  body += "crc " + std::to_string(crc) + "\n";
  return body;
}

bool ParseManifest(const std::string& text, uint64_t* seq, uint64_t* ts,
                   uint64_t* redo_off, std::string* file, std::string* err) {
  size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos || crc_line == 0 ||
      text[crc_line - 1] != '\n' || text.compare(0, 8, "PDBM v1\n") != 0) {
    *err = "manifest malformed";
    return false;
  }
  unsigned long long stored = 0;
  if (::sscanf(text.c_str() + crc_line, "crc %llu", &stored) != 1) {
    *err = "manifest crc line malformed";
    return false;
  }
  uint32_t computed =
      util::MaskCrc(util::Crc32c(0, text.data(), crc_line));
  if (computed != static_cast<uint32_t>(stored)) {
    *err = "manifest crc mismatch";
    return false;
  }
  char fname[256] = {0};
  unsigned long long s = 0, t = 0, o = 0;
  if (::sscanf(text.c_str(),
               "PDBM v1\nckpt_seq %llu\nckpt_ts %llu\nredo_off %llu\n"
               "ckpt_file %255s",
               &s, &t, &o, fname) != 4) {
    *err = "manifest fields malformed";
    return false;
  }
  *seq = s;
  *ts = t;
  *redo_off = o;
  *file = fname;
  return true;
}

bool WriteFileDurably(const std::string& dir, const std::string& final_name,
                      const std::string& content) {
  std::string tmp = dir + "/" + final_name + Checkpointer::kTmpSuffix;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t off = 0;
  while (off < content.size()) {
    ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), (dir + "/" + final_name).c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return FsyncDir(dir);
}

}  // namespace

// --- Replication helpers ---

bool LoadCheckpointManifest(const std::string& dir, uint64_t* seq,
                            uint64_t* ts, uint64_t* redo_off,
                            std::string* file, std::string* err) {
  std::string mpath = dir + "/" + Checkpointer::kManifestName;
  if (!FileExists(mpath)) {
    *err = "no manifest in " + dir;
    return false;
  }
  std::string mtext;
  if (!ReadFileAll(mpath, &mtext)) {
    *err = "cannot read manifest";
    return false;
  }
  return ParseManifest(mtext, seq, ts, redo_off, file, err);
}

bool InstallCheckpointImage(const std::string& dir, const std::string& image,
                            uint64_t* out_seq, uint64_t* out_ts,
                            uint64_t* out_redo_off, std::string* err) {
  if (image.size() < sizeof(CkptFileHeader) + sizeof(CkptTrailer)) {
    *err = "shipped checkpoint truncated";
    return false;
  }
  CkptTrailer trailer;
  std::memcpy(&trailer, image.data() + image.size() - sizeof(trailer),
              sizeof(trailer));
  uint32_t body_crc =
      util::Crc32c(0, image.data(), image.size() - sizeof(CkptTrailer));
  if (trailer.magic != kCkptTrailerMagic ||
      util::UnmaskCrc(trailer.masked_crc) != body_crc) {
    *err = "shipped checkpoint crc mismatch";
    return false;
  }
  CkptFileHeader fh;
  std::memcpy(&fh, image.data(), sizeof(fh));
  if (fh.magic != kCkptMagic || fh.version != kCkptVersion) {
    *err = "shipped checkpoint header mismatch";
    return false;
  }
  std::string final_name = CkptFileName(fh.seq);
  if (!WriteFileDurably(dir, final_name, image)) {
    *err = "cannot write shipped checkpoint " + final_name;
    return false;
  }
  if (!WriteFileDurably(
          dir, Checkpointer::kManifestName,
          BuildManifest(fh.seq, fh.snapshot_ts, fh.redo_off, final_name))) {
    *err = "cannot write manifest for shipped checkpoint";
    return false;
  }
  *out_seq = fh.seq;
  *out_ts = fh.snapshot_ts;
  *out_redo_off = fh.redo_off;
  return true;
}

// --- Checkpointer ---

Checkpointer::Checkpointer(Engine* engine, std::string dir)
    : engine_(engine),
      dir_(std::move(dir)),
      active_slot_(std::make_shared<std::atomic<uint64_t>>(0)),
      completed_(g_ckpt_completed),
      failures_(g_ckpt_failures) {
  engine_->RegisterActiveSlot(active_slot_);
}

Checkpointer::~Checkpointer() {
  Stop();
  active_slot_->store(0, std::memory_order_release);
}

void Checkpointer::Start(uint64_t interval_ms) {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this, interval_ms] {
    // The checkpointer is LP work by design: nice it all the way down so a
    // saturated box schedules transaction workers (and their preemption
    // latency) ahead of the snapshot scan. Best-effort — unprivileged
    // processes can always lower their own priority.
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (cv_.wait_for(lk, std::chrono::milliseconds(interval_ms),
                       [this] { return stop_; })) {
        break;
      }
      lk.unlock();
      WriteCheckpoint();
      lk.lock();
    }
  });
}

void Checkpointer::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Checkpointer::NoteRecovered(uint64_t seq, uint64_t ts) {
  last_seq_.store(seq, std::memory_order_release);
  last_ts_.store(ts, std::memory_order_release);
}

uint64_t Checkpointer::AgeMs() const {
  uint64_t done = last_done_ns_.load(std::memory_order_acquire);
  if (done == 0) return UINT64_MAX;
  return (SteadyNowNs() - done) / 1000000ull;
}

bool Checkpointer::WriteCheckpointFile(const std::string& tmp_path,
                                       uint64_t seq, uint64_t* out_ts,
                                       uint64_t* out_rows,
                                       uint64_t* out_redo_off) {
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  // GC guard up BEFORE capturing anything: from here on the collector treats
  // this scan like an active transaction and will not free versions the
  // snapshot still needs. Then the ordering that makes the checkpoint fuzzy
  // yet complete: redo offset first, snapshot timestamp second (checkpoint.h).
  active_slot_->store(1, std::memory_order_release);
  uint64_t redo_off = engine_->log_manager().appended_bytes();
  uint64_t snapshot = engine_->ReadTs();
  active_slot_->store(snapshot == 0 ? 1 : snapshot,
                      std::memory_order_release);

  CkptWriter w;
  w.fd = fd;
  uint64_t rows = 0;
  bool ok = true;

  size_t table_count = engine_->TableCount();
  CkptFileHeader fh{kCkptMagic,
                    kCkptVersion,
                    seq,
                    snapshot,
                    redo_off,
                    static_cast<uint32_t>(table_count),
                    0};
  ok = w.Write(&fh, sizeof(fh));

  for (size_t tid = 0; ok && tid < table_count; ++tid) {
    Table* t = engine_->TableAt(tid);
    TableHeader th{static_cast<uint32_t>(t->name().size()),
                   static_cast<uint32_t>(t->SecondaryCount()),
                   t->oids().AllocatedCount()};
    ok = w.Write(&th, sizeof(th)) && w.Write(t->name().data(), th.name_len);
    for (size_t s = 0; ok && s < th.secondary_count; ++s) {
      const std::string& sn = t->SecondaryNameAt(s);
      auto len = static_cast<uint32_t>(sn.size());
      ok = w.Write(&len, sizeof(len)) && w.Write(sn.data(), len);
    }
    if (!ok) break;
    // Live rows visible at the snapshot. Deleted rows are simply omitted —
    // a checkpoint is also tombstone reclamation.
    t->primary().Scan(0, UINT64_MAX, [&](index::Key key, index::Value oid) {
      Version* v = VisibleAt(t, oid, snapshot);
      if (v == nullptr || v->deleted) return true;
      RowHeader rh{oid, key, v->size, 0};
      if (!w.Write(&rh, sizeof(rh)) ||
          (v->size > 0 && !w.Write(v->Data(), v->size))) {
        ok = false;
        return false;
      }
      ++rows;
      // Breathe between row batches: on a saturated box the snapshot scan
      // must not monopolize a core that transaction workers (and their
      // HP preemption latency) are waiting on.
      if ((rows & 0xFF) == 0) std::this_thread::yield();
      return true;
    });
    if (!ok) break;
    RowHeader sentinel{kRowSentinel, 0, 0, 0};
    ok = w.Write(&sentinel, sizeof(sentinel));
    // Secondary mappings are raw (key -> oid) pairs; visibility is decided
    // by the version chains they point into, same as at runtime.
    for (size_t s = 0; ok && s < th.secondary_count; ++s) {
      std::vector<SecPair> pairs;
      t->SecondaryAt(s)->Scan(0, UINT64_MAX,
                              [&](index::Key key, index::Value oid) {
                                pairs.push_back(SecPair{key, oid});
                                return true;
                              });
      uint64_t count = pairs.size();
      ok = w.Write(&count, sizeof(count)) &&
           (pairs.empty() ||
            w.Write(pairs.data(), pairs.size() * sizeof(SecPair)));
    }
  }

  if (ok) {
    CkptTrailer trailer{kCkptTrailerMagic, util::MaskCrc(w.crc)};
    ok = w.Write(&trailer, sizeof(trailer));
  }
  active_slot_->store(0, std::memory_order_release);
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return false;
  g_ckpt_bytes.Add(w.bytes);
  *out_ts = snapshot;
  *out_rows = rows;
  *out_redo_off = redo_off;
  return true;
}

bool Checkpointer::WriteCheckpoint() {
  std::lock_guard<std::mutex> g(write_mu_);
  uint64_t seq = last_seq() + 1;
  obs::Trace(obs::EventType::kCkptBegin, 0, seq);
  std::string tmp = dir_ + "/ckpt" + kTmpSuffix;
  uint64_t ts = 0;
  uint64_t rows = 0;
  uint64_t redo_off = 0;
  if (!WriteCheckpointFile(tmp, seq, &ts, &rows, &redo_off)) {
    ::unlink(tmp.c_str());
    failures_.Add();
    return false;
  }
  // The checkpoint body is durable in the tmp file — the crash window where
  // it exists under its final name but the manifest still points at the old
  // one is handled at recovery (orphan files are ignored and overwritten).
  fault::CrashPoint(fault::CrashSite::kMidRename);
  std::string final_name = CkptFileName(seq);
  if (::rename(tmp.c_str(), (dir_ + "/" + final_name).c_str()) != 0 ||
      !FsyncDir(dir_)) {
    ::unlink(tmp.c_str());
    failures_.Add();
    return false;
  }
  if (!WriteFileDurably(dir_, kManifestName,
                        BuildManifest(seq, ts, redo_off, final_name))) {
    // The new checkpoint file exists but is unreferenced; the old manifest
    // (and checkpoint) remain authoritative. Harmless orphan.
    failures_.Add();
    return false;
  }
  uint64_t prev = last_seq();
  if (prev > 0) ::unlink((dir_ + "/" + CkptFileName(prev)).c_str());
  last_seq_.store(seq, std::memory_order_release);
  last_ts_.store(ts, std::memory_order_release);
  last_done_ns_.store(SteadyNowNs(), std::memory_order_release);
  completed_.Add();
  g_ckpt_rows.Add(rows);
  obs::Trace(obs::EventType::kCkptEnd, 0, rows);
  return true;
}

// --- Engine durability surface ---

void Engine::LogDdlRecord(const LogRecordHeader& hdr, const void* payload) {
  if (!log_manager_.file_backed() || recovering_) return;
  char buf[sizeof(LogRecordHeader) + 512];
  PDB_CHECK_MSG(sizeof(LogRecordHeader) + hdr.size <= sizeof(buf),
                "DDL name too long for a redo record");
  std::memcpy(buf, &hdr, sizeof(hdr));
  if (hdr.size > 0) std::memcpy(buf + sizeof(hdr), payload, hdr.size);
  // Failure is surfaced through the log manager's io_errors/lost_bytes; a
  // recovery missing this table will skip (and count) its orphaned records
  // rather than crash.
  log_manager_.Sink(buf, sizeof(LogRecordHeader) + hdr.size, 1,
                    /*commit_seq=*/0, kSegTxnEnd);
}

bool Engine::EnableDurability(const std::string& dir, std::string* err,
                              RecoveryStats* stats) {
  PDB_CHECK_MSG(tables_.empty() && ReadTs() == 0 && !durable(),
                "EnableDurability requires a fresh engine");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (err != nullptr) {
      *err = "cannot create " + dir + ": " + ::strerror(errno);
    }
    return false;
  }
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  std::string local_err;
  if (err == nullptr) err = &local_err;
  recovering_ = true;
  bool ok = Recover(dir, err, stats);
  recovering_ = false;
  if (!ok) return false;
  if (!log_manager_.OpenFile(dir + "/redo.log", err)) return false;
  // Everything recovery kept on disk is durable; seed the replication
  // shipping frontier (durable_bytes/durable_seq) to match.
  log_manager_.NoteRecoveredDurable(stats->restored_ts);
  log_dir_ = dir;
  checkpointer_ = std::make_unique<Checkpointer>(this, dir);
  checkpointer_->NoteRecovered(stats->checkpoint_seq, stats->checkpoint_ts);
  return true;
}

void Engine::StartCheckpointer(uint64_t interval_ms) {
  PDB_CHECK_MSG(checkpointer_ != nullptr,
                "StartCheckpointer requires EnableDurability");
  checkpointer_->Start(interval_ms);
}

void Engine::StopCheckpointer() {
  if (checkpointer_ != nullptr) checkpointer_->Stop();
}

bool Engine::WriteCheckpointNow() {
  PDB_CHECK_MSG(checkpointer_ != nullptr,
                "WriteCheckpointNow requires EnableDurability");
  return checkpointer_->WriteCheckpoint();
}

namespace {

// One parsed redo record, buffered until its transaction's end marker.
struct PendingRecord {
  LogRecordHeader hdr;
  std::string payload;
};

}  // namespace

bool Engine::Recover(const std::string& dir, std::string* err,
                     RecoveryStats* stats) {
  g_recovery_runs.Add();

  // 1. Manifest + checkpoint.
  uint64_t ckpt_seq = 0;
  uint64_t snapshot = 0;
  uint64_t redo_off = 0;
  std::string mpath = dir + "/" + Checkpointer::kManifestName;
  if (FileExists(mpath)) {
    std::string mtext;
    if (!ReadFileAll(mpath, &mtext)) {
      *err = "cannot read manifest";
      return false;
    }
    std::string ckpt_file;
    uint64_t mts = 0;
    if (!ParseManifest(mtext, &ckpt_seq, &mts, &redo_off, &ckpt_file, err)) {
      return false;  // a corrupt manifest is refused, never guessed around
    }
    std::string image;
    if (!ReadFileAll(dir + "/" + ckpt_file, &image)) {
      *err = "manifest names missing checkpoint " + ckpt_file;
      return false;
    }
    if (image.size() < sizeof(CkptFileHeader) + sizeof(CkptTrailer)) {
      *err = "checkpoint file truncated";
      return false;
    }
    CkptTrailer trailer;
    std::memcpy(&trailer, image.data() + image.size() - sizeof(trailer),
                sizeof(trailer));
    uint32_t body_crc =
        util::Crc32c(0, image.data(), image.size() - sizeof(CkptTrailer));
    if (trailer.magic != kCkptTrailerMagic ||
        util::UnmaskCrc(trailer.masked_crc) != body_crc) {
      *err = "checkpoint crc mismatch in " + ckpt_file;
      return false;
    }
    Cursor c{image.data(), image.size() - sizeof(CkptTrailer)};
    CkptFileHeader fh;
    if (!c.Read(&fh, sizeof(fh)) || fh.magic != kCkptMagic ||
        fh.version != kCkptVersion || fh.seq != ckpt_seq) {
      *err = "checkpoint header mismatch";
      return false;
    }
    snapshot = fh.snapshot_ts;
    for (uint32_t tid = 0; tid < fh.table_count; ++tid) {
      TableHeader th;
      std::string name;
      if (!c.Read(&th, sizeof(th)) || !c.ReadString(&name, th.name_len)) {
        *err = "checkpoint table header corrupt";
        return false;
      }
      Table* t = CreateTable(name);
      PDB_CHECK(t->id() == tid);
      for (uint32_t s = 0; s < th.secondary_count; ++s) {
        uint32_t len = 0;
        std::string sname;
        if (!c.Read(&len, sizeof(len)) || !c.ReadString(&sname, len)) {
          *err = "checkpoint secondary name corrupt";
          return false;
        }
        t->CreateSecondaryIndex(sname);
      }
      t->oids().ReserveUpTo(th.oid_watermark);
      for (;;) {
        RowHeader rh;
        if (!c.Read(&rh, sizeof(rh))) {
          *err = "checkpoint row stream corrupt";
          return false;
        }
        if (rh.oid == kRowSentinel) break;
        if (rh.size > c.left) {
          *err = "checkpoint row payload corrupt";
          return false;
        }
        t->oids().ReserveUpTo(rh.oid + 1);
        Version* v = Version::Make(nullptr, c.p, rh.size, /*deleted=*/false,
                                   nullptr);
        v->clsn.store(snapshot, std::memory_order_relaxed);
        t->Head(rh.oid).store(v, std::memory_order_relaxed);
        c.p += rh.size;
        c.left -= rh.size;
        t->primary().Upsert(rh.key, rh.oid);
        ++stats->checkpoint_rows;
      }
      for (uint32_t s = 0; s < th.secondary_count; ++s) {
        uint64_t count = 0;
        if (!c.Read(&count, sizeof(count)) ||
            count * sizeof(SecPair) > c.left) {
          *err = "checkpoint secondary stream corrupt";
          return false;
        }
        index::BTree* sec = t->SecondaryAt(s);
        for (uint64_t i = 0; i < count; ++i) {
          SecPair pair;
          c.Read(&pair, sizeof(pair));
          sec->Upsert(pair.key, pair.oid);
        }
      }
    }
    stats->checkpoint_seq = ckpt_seq;
    stats->checkpoint_ts = snapshot;
    g_recovery_ckpt_rows.Add(stats->checkpoint_rows);
  }

  // 2. Redo tail.
  uint64_t max_applied_seq = 0;
  std::string lpath = dir + "/redo.log";
  if (FileExists(lpath)) {
    std::string log;
    if (!ReadFileAll(lpath, &log)) {
      *err = "cannot read redo log";
      return false;
    }
    if (redo_off > log.size()) {
      *err = "redo log shorter than the checkpoint's replay offset";
      return false;
    }
    std::map<uint64_t, std::vector<PendingRecord>> pending;
    auto apply = [&](uint64_t seq, const LogRecordHeader& h,
                     const char* payload) {
      switch (static_cast<LogRecordKind>(h.kind)) {
        case LogRecordKind::kTableCreate: {
          if (TableAt(h.table_id) != nullptr) return;  // in the checkpoint
          Table* t = CreateTable(std::string(payload, h.size));
          PDB_CHECK(t->id() == h.table_id);
          return;
        }
        case LogRecordKind::kSecondaryCreate: {
          Table* t = TableAt(h.table_id);
          if (t == nullptr) {
            ++stats->skipped_records;
            return;
          }
          if (h.sec_ordinal < t->SecondaryCount()) return;  // already there
          PDB_CHECK(h.sec_ordinal == t->SecondaryCount());
          t->CreateSecondaryIndex(std::string(payload, h.size));
          return;
        }
        case LogRecordKind::kData: {
          Table* t = TableAt(h.table_id);
          if (t == nullptr) {
            ++stats->skipped_records;
            return;
          }
          t->oids().ReserveUpTo(h.oid + 1);
          Version* head = t->Head(h.oid).load(std::memory_order_relaxed);
          // Dedup against the checkpoint (and against per-oid replay order,
          // which equals commit order under first-committer-wins): an
          // already-installed newer state wins. Equal timestamps re-apply —
          // that covers a later write of the same transaction.
          if (head != nullptr &&
              head->clsn.load(std::memory_order_relaxed) > seq) {
            return;
          }
          Version* v = Version::Make(nullptr, payload, h.size,
                                     h.deleted != 0, head);
          v->clsn.store(seq, std::memory_order_relaxed);
          t->Head(h.oid).store(v, std::memory_order_relaxed);
          t->primary().Upsert(h.key, h.oid);
          ++stats->redo_records_applied;
          return;
        }
        case LogRecordKind::kSecondaryUpsert: {
          Table* t = TableAt(h.table_id);
          if (t == nullptr || h.sec_ordinal >= t->SecondaryCount()) {
            ++stats->skipped_records;
            return;
          }
          t->SecondaryAt(h.sec_ordinal)->Upsert(h.key, h.oid);
          ++stats->redo_records_applied;
          return;
        }
      }
      ++stats->skipped_records;  // unknown kind from a future version
    };

    size_t pos = redo_off;
    while (pos + sizeof(SegmentHeader) <= log.size()) {
      SegmentHeader sh;
      std::memcpy(&sh, log.data() + pos, sizeof(sh));
      if (sh.magic != kSegmentMagic) break;
      if (pos + sizeof(sh) + sh.length > log.size()) break;  // torn tail
      uint32_t crc = util::Crc32c(0, log.data() + pos, kSegmentCrcPrefix);
      if (sh.length > 0) {
        crc = util::Crc32c(crc, log.data() + pos + sizeof(sh), sh.length);
      }
      if (crc != sh.crc32c) break;
      ++stats->redo_segments;
      // Parse the segment's records into the transaction's pending group.
      const char* rp = log.data() + pos + sizeof(sh);
      size_t left = sh.length;
      auto& group = pending[sh.commit_seq];
      bool parse_ok = true;
      while (left > 0) {
        if (left < sizeof(LogRecordHeader)) {
          parse_ok = false;
          break;
        }
        LogRecordHeader rh;
        std::memcpy(&rh, rp, sizeof(rh));
        if (sizeof(rh) + rh.size > left) {
          parse_ok = false;
          break;
        }
        group.push_back(
            PendingRecord{rh, std::string(rp + sizeof(rh), rh.size)});
        rp += sizeof(rh) + rh.size;
        left -= sizeof(rh) + rh.size;
      }
      // A record stream that fails to parse inside a CRC-valid frame means
      // a writer bug, not a torn tail; refuse rather than truncate away
      // valid-looking data.
      PDB_CHECK_MSG(parse_ok, "malformed record inside a CRC-valid segment");
      if (sh.flags & kSegTxnEnd) {
        for (const PendingRecord& r : group) {
          apply(sh.commit_seq, r.hdr, r.payload.data());
        }
        if (sh.commit_seq > 0) ++stats->redo_txns_applied;
        if (sh.commit_seq > max_applied_seq) max_applied_seq = sh.commit_seq;
        pending.erase(sh.commit_seq);
      }
      pos += sizeof(sh) + sh.length;
    }
    if (pos < log.size()) {
      stats->truncated_bytes = log.size() - pos;
      if (::truncate(lpath.c_str(), static_cast<off_t>(pos)) != 0) {
        *err = "cannot truncate torn redo tail";
        return false;
      }
      g_recovery_truncated.Add(stats->truncated_bytes);
    }
    // Groups that never saw their end marker: the writer died between a
    // buffer-full auto-seal and the commit seal. Uncommitted — discard.
    for (auto& [seq, group] : pending) {
      (void)seq;
      if (!group.empty()) ++stats->discarded_partial_txns;
    }
    g_recovery_redo_txns.Add(stats->redo_txns_applied);
    g_recovery_discarded.Add(stats->discarded_partial_txns);
  }

  uint64_t restored = snapshot > max_applied_seq ? snapshot : max_applied_seq;
  RestoreTs(restored);
  stats->restored_ts = restored;
  obs::Trace(obs::EventType::kRecoveryDone, 0, stats->redo_txns_applied);
  return true;
}

}  // namespace preemptdb::engine
