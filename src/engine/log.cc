#include "engine/log.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/crc32c.h"

namespace preemptdb::engine {

namespace {
obs::Counter g_log_io_errors("log.io_errors");
obs::Counter g_log_short_writes("log.short_writes");
obs::Counter g_log_segments("log.segments");
obs::Counter g_log_fsyncs("log.fsyncs");
obs::Counter g_log_torn_bytes("log.torn_bytes");
}  // namespace

Rc LogBuffer::Append(LogManager* lm, uint32_t table_id, Oid oid, uint64_t key,
                     const void* payload, uint32_t size, bool deleted) {
  LogRecordHeader hdr{};
  hdr.table_id = table_id;
  hdr.size = size;
  hdr.oid = oid;
  hdr.key = key;
  hdr.kind = static_cast<uint8_t>(LogRecordKind::kData);
  hdr.deleted = static_cast<uint8_t>(deleted);
  return AppendRecord(lm, hdr, payload);
}

Rc LogBuffer::AppendRecord(LogManager* lm, const LogRecordHeader& hdr,
                           const void* payload) {
  size_t need = sizeof(LogRecordHeader) + hdr.size;
  PDB_CHECK_MSG(need <= kCapacity, "redo record exceeds log buffer");
  if (pos_ + need > kCapacity) {
    Rc rc = Seal(lm, /*txn_end=*/false);
    if (!IsOk(rc)) return rc;  // record dropped with the failed seal
  }
  std::memcpy(buf_ + pos_, &hdr, sizeof(hdr));
  if (hdr.size > 0) std::memcpy(buf_ + pos_ + sizeof(hdr), payload, hdr.size);
  pos_ += need;
  ++records_;
  return Rc::kOk;
}

Rc LogBuffer::Seal(LogManager* lm, bool txn_end) {
  if (pos_ == 0) {
    // Nothing buffered. Still emit a zero-length end marker when earlier
    // auto-seals put this transaction's records on disk without one (an
    // exact-capacity fill) — losing the marker would make recovery discard
    // a committed transaction.
    if (!txn_end || !auto_sealed_) return Rc::kOk;
    auto_sealed_ = false;
    return lm->Sink(buf_, 0, 0, seq_, kSegTxnEnd);
  }
  Rc rc = lm->Sink(buf_, pos_, records_, seq_, txn_end ? kSegTxnEnd : 0u);
  // Empty the buffer even on failure: the bytes are accounted as lost by the
  // manager, and retaining them would splice this transaction's records into
  // the next transaction's seal.
  pos_ = 0;
  records_ = 0;
  if (txn_end) {
    auto_sealed_ = false;
  } else if (IsOk(rc)) {
    auto_sealed_ = true;
  }
  return rc;
}

LogManager::LogManager()
    : io_errors_(g_log_io_errors),
      torn_bytes_(g_log_torn_bytes),
      segments_(g_log_segments),
      fsyncs_(g_log_fsyncs) {}

LogManager::~LogManager() { CloseFile(); }

bool LogManager::OpenFile(const std::string& path, std::string* err,
                          bool truncate) {
  CloseFile();
  int oflags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) oflags |= O_TRUNC;
  int fd = ::open(path.c_str(), oflags, 0644);
  if (fd < 0) {
    if (err != nullptr) {
      *err = "cannot open " + path + ": " + ::strerror(errno);
    }
    return false;
  }
  struct stat st {};
  uint64_t existing = 0;
  if (!truncate && ::fstat(fd, &st) == 0) {
    existing = static_cast<uint64_t>(st.st_size);
  }
  std::lock_guard<std::mutex> g(append_mutex_);
  fd_ = fd;
  path_ = path;
  appended_bytes_ = existing;
  // Surviving bytes are durable by definition — they are what the previous
  // incarnation's crash left behind. NoteRecoveredDurable refines the seq.
  durable_bytes_.store(existing, std::memory_order_release);
  poisoned_.store(false, std::memory_order_relaxed);
  return true;
}

void LogManager::CloseFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Rc LogManager::Sink(const char* data, size_t bytes, uint64_t records,
                    uint64_t commit_seq, uint32_t flags) {
  uint64_t my_ticket = 0;
  if (fd_ >= 0) {
    std::lock_guard<std::mutex> g(append_mutex_);
    if (PDB_UNLIKELY(poisoned_.load(std::memory_order_relaxed))) {
      // A previous failure left the on-disk tail in an unknown state and the
      // repair truncate failed too; appending valid frames after garbage
      // would make them unreachable at replay. Fail fast instead.
      lost_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      io_errors_.Add();
      return Rc::kIoError;
    }

    // Assemble the frame contiguously so a single write() covers header and
    // payload — the torn shapes recovery must handle are then exactly the
    // prefixes a crashed write can leave.
    const size_t frame = sizeof(SegmentHeader) + bytes;
    if (scratch_.size() < frame) scratch_.resize(frame);
    SegmentHeader hdr{kSegmentMagic, static_cast<uint32_t>(bytes), commit_seq,
                      flags, 0};
    uint32_t crc = util::Crc32c(0, &hdr, kSegmentCrcPrefix);
    if (bytes > 0) crc = util::Crc32c(crc, data, bytes);
    hdr.crc32c = crc;
    std::memcpy(scratch_.data(), &hdr, sizeof(hdr));
    if (bytes > 0) std::memcpy(scratch_.data() + sizeof(hdr), data, bytes);

    if (PDB_UNLIKELY(fault::CrashArmed(fault::CrashSite::kMidSegment)) &&
        fault::CrashNow(fault::CrashSite::kMidSegment)) {
      // Land half the frame, then die — the canonical torn tail.
      ssize_t ignored = ::write(fd_, scratch_.data(), frame / 2);
      (void)ignored;
      fault::Die();
    }

    // Write through, retrying short writes and transient errno. A short
    // write is normal POSIX behaviour (signal arrival, quota boundary) and
    // must never tear a record stream. Injection (fault::kLogWrite)
    // simulates the failure shapes: param == 0 truncates the attempt,
    // param == kTornWriteParam lands half then fails persistently, any
    // other param fails with that errno.
    size_t off = 0;
    int transient_retries = 0;
    int persistent_errno = 0;
    while (off < frame) {
      size_t want = frame - off;
      ssize_t n;
      if (PDB_UNLIKELY(fault::ShouldFire(fault::Point::kLogWrite))) {
        uint64_t injected = fault::Param(fault::Point::kLogWrite);
        if (injected == 0) {
          // Injected short write: truncate the attempt (a 1-byte tail has
          // nothing left to halve and goes through whole).
          n = ::write(fd_, scratch_.data() + off, want > 1 ? want / 2 : want);
        } else if (injected == fault::kTornWriteParam) {
          n = ::write(fd_, scratch_.data() + off, want > 1 ? want / 2 : want);
          if (n > 0) off += static_cast<size_t>(n);
          persistent_errno = EIO;
          break;
        } else {
          n = -1;
          errno = static_cast<int>(injected);
        }
      } else {
        n = ::write(fd_, scratch_.data() + off, want);
      }
      if (n > 0) {
        if (static_cast<size_t>(n) < want) g_log_short_writes.Add();
        off += static_cast<size_t>(n);
        continue;
      }
      int err = errno;
      if ((err == EINTR || err == EAGAIN) && transient_retries++ < 64) {
        continue;
      }
      persistent_errno = err;
      break;
    }
    if (PDB_UNLIKELY(persistent_errno != 0)) {
      last_errno_.store(persistent_errno, std::memory_order_relaxed);
      io_errors_.Add();
      // The frame is all-or-nothing: any failure loses the whole payload.
      lost_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      if (off > 0) {
        torn_bytes_.Add(off);
        // Repair: cut the partial frame back off so the tail stays
        // parseable for later appends. If even that fails, poison the log.
        if (::ftruncate(fd_, static_cast<off_t>(appended_bytes_)) != 0) {
          poisoned_.store(true, std::memory_order_relaxed);
        }
      }
      return Rc::kIoError;
    }
    appended_bytes_ += frame;
    my_ticket = ++append_ticket_;
    if (commit_seq > last_appended_seq_) last_appended_seq_ = commit_seq;
    segments_.Add();
  }
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  total_records_.fetch_add(records, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  obs::Trace(obs::EventType::kLogFlush, 0, bytes);
  if (fd_ >= 0) {
    fault::CrashPoint(fault::CrashSite::kPreSync);
    if (sync_mode_ == SyncMode::kGroupCommit) return EnsureDurable(my_ticket);
  }
  return Rc::kOk;
}

Rc LogManager::EnsureDurable(uint64_t ticket) {
  if (synced_ticket_.load(std::memory_order_acquire) >= ticket) return Rc::kOk;
  std::lock_guard<std::mutex> g(sync_mutex_);
  if (synced_ticket_.load(std::memory_order_relaxed) >= ticket) {
    // A committer that queued behind us already synced past our frame.
    return Rc::kOk;
  }
  uint64_t target_ticket;
  uint64_t target_seq;
  uint64_t target_bytes;
  {
    std::lock_guard<std::mutex> a(append_mutex_);
    target_ticket = append_ticket_;
    target_seq = last_appended_seq_;
    // Captured under append_mutex_, so this is always a frame boundary —
    // the replication shipper relies on [0, durable_bytes) holding only
    // whole frames when carving chunk boundaries.
    target_bytes = appended_bytes_;
  }
  if (::fdatasync(fd_) != 0) {
    // The durability frontier is now unknown (some appended frames may or
    // may not survive a crash) and acked-implies-durable can no longer be
    // promised, so poison the log rather than limp along.
    last_errno_.store(errno, std::memory_order_relaxed);
    io_errors_.Add();
    poisoned_.store(true, std::memory_order_relaxed);
    return Rc::kIoError;
  }
  fsyncs_.Add();
  synced_ticket_.store(target_ticket, std::memory_order_release);
  uint64_t prev_bytes = durable_bytes_.load(std::memory_order_relaxed);
  if (target_bytes > prev_bytes) {
    durable_bytes_.store(target_bytes, std::memory_order_release);
  }
  uint64_t prev = durable_seq_.load(std::memory_order_relaxed);
  if (target_seq > prev) {
    durable_seq_.store(target_seq, std::memory_order_release);
  }
  return Rc::kOk;
}

Rc LogManager::AppendRaw(const char* data, size_t bytes, uint64_t frames,
                         uint64_t max_seq) {
  if (fd_ < 0 || bytes == 0) return Rc::kOk;
  uint64_t my_ticket = 0;
  {
    std::lock_guard<std::mutex> g(append_mutex_);
    if (PDB_UNLIKELY(poisoned_.load(std::memory_order_relaxed))) {
      lost_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      io_errors_.Add();
      return Rc::kIoError;
    }

    if (PDB_UNLIKELY(fault::CrashArmed(fault::CrashSite::kMidSegment)) &&
        fault::CrashNow(fault::CrashSite::kMidSegment)) {
      // Same canonical torn tail as Sink: land half the chunk, then die.
      // The follower's next bootstrap must truncate it exactly like local
      // recovery would.
      ssize_t ignored = ::write(fd_, data, bytes / 2);
      (void)ignored;
      fault::Die();
    }

    // Same write-retry / torn-repair discipline as Sink; the chunk arrives
    // pre-framed off the wire (validated by the applier), so the all-or-
    // nothing unit here is the whole chunk rather than a single frame.
    size_t off = 0;
    int transient_retries = 0;
    int persistent_errno = 0;
    while (off < bytes) {
      size_t want = bytes - off;
      ssize_t n;
      if (PDB_UNLIKELY(fault::ShouldFire(fault::Point::kLogWrite))) {
        uint64_t injected = fault::Param(fault::Point::kLogWrite);
        if (injected == 0) {
          n = ::write(fd_, data + off, want > 1 ? want / 2 : want);
        } else if (injected == fault::kTornWriteParam) {
          n = ::write(fd_, data + off, want > 1 ? want / 2 : want);
          if (n > 0) off += static_cast<size_t>(n);
          persistent_errno = EIO;
          break;
        } else {
          n = -1;
          errno = static_cast<int>(injected);
        }
      } else {
        n = ::write(fd_, data + off, want);
      }
      if (n > 0) {
        if (static_cast<size_t>(n) < want) g_log_short_writes.Add();
        off += static_cast<size_t>(n);
        continue;
      }
      int err = errno;
      if ((err == EINTR || err == EAGAIN) && transient_retries++ < 64) {
        continue;
      }
      persistent_errno = err;
      break;
    }
    if (PDB_UNLIKELY(persistent_errno != 0)) {
      last_errno_.store(persistent_errno, std::memory_order_relaxed);
      io_errors_.Add();
      lost_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      if (off > 0) {
        torn_bytes_.Add(off);
        if (::ftruncate(fd_, static_cast<off_t>(appended_bytes_)) != 0) {
          poisoned_.store(true, std::memory_order_relaxed);
        }
      }
      return Rc::kIoError;
    }
    appended_bytes_ += bytes;
    my_ticket = ++append_ticket_;
    if (max_seq > last_appended_seq_) last_appended_seq_ = max_seq;
    segments_.Add(frames);
  }
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  obs::Trace(obs::EventType::kLogFlush, 0, bytes);
  fault::CrashPoint(fault::CrashSite::kPreSync);
  if (sync_mode_ == SyncMode::kGroupCommit) return EnsureDurable(my_ticket);
  return Rc::kOk;
}

}  // namespace preemptdb::engine
