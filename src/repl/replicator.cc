#include "repl/replicator.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "engine/checkpoint.h"
#include "engine/log.h"
#include "fault/fault.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace preemptdb::repl {

namespace {

obs::Counter g_repl_reconnects("repl.follower.reconnects");
obs::Counter g_repl_appends("repl.follower.append_chunks");
obs::Counter g_repl_dup_chunks("repl.follower.duplicate_chunks");
obs::Counter g_repl_gap_resyncs("repl.follower.gap_resyncs");
obs::Counter g_repl_bootstraps("repl.follower.snapshot_bootstraps");

bool ReadExact(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

// Reads one RequestHeader-framed stream frame (kReplSnapshot / kReplAppend)
// off the raw socket. Client only parses *response* frames; the replication
// stream reuses request framing, so the follower reads it itself.
bool ReadStreamFrame(int fd, net::RequestHeader* h, std::string* payload) {
  uint8_t hdr[net::kRequestHeaderSize];
  if (!ReadExact(fd, reinterpret_cast<char*>(hdr), sizeof(hdr))) return false;
  if (!net::DecodeRequestHeader(hdr, h)) return false;
  if (h->payload_len > net::kMaxPayload) return false;
  payload->resize(h->payload_len);
  if (h->payload_len > 0 && !ReadExact(fd, payload->data(), h->payload_len)) {
    return false;
  }
  return true;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return st.st_size;
}

// (Re)creates `path` extended with a hole to `size` and fsyncs it. Bytes in
// the hole are never read: they stand in for the primary's log prefix the
// shipped checkpoint already covers, keeping follower byte offsets equal to
// the primary's.
bool CreateSparseLog(const std::string& path, uint64_t size,
                     std::string* err) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    if (err != nullptr) *err = "create " + path + ": " + ::strerror(errno);
    return false;
  }
  bool ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0 &&
            ::fsync(fd) == 0;
  if (!ok && err != nullptr) *err = "extend " + path + ": " + ::strerror(errno);
  ::close(fd);
  return ok;
}

bool DecodeHello(const std::string& payload, net::ReplHelloWire* out) {
  if (payload.size() < net::kReplHelloWireSize) return false;
  std::memcpy(out, payload.data(), net::kReplHelloWireSize);
  return true;
}

}  // namespace

Replicator::Replicator(Options opts)
    : opts_(std::move(opts)), reconnects_(g_repl_reconnects) {}

bool Replicator::Bootstrap(std::string* err) {
  const std::string log_path = opts_.dir + "/redo.log";

  // Local frontier: manifest redo_off (bytes before it may be a bootstrap
  // hole) + the valid frame prefix past it, torn tail truncated — the same
  // repair local recovery performs, done eagerly so the offset we advertise
  // is exactly what the engine will recover to.
  uint64_t ck_seq = 0, ck_ts = 0, ck_redo = 0;
  std::string ck_file, merr;
  bool have_local_ckpt = engine::LoadCheckpointManifest(
      opts_.dir, &ck_seq, &ck_ts, &ck_redo, &ck_file, &merr);
  if (have_local_ckpt) {
    int64_t sz = FileSize(log_path);
    if (sz < static_cast<int64_t>(ck_redo)) {
      // Crash window from an earlier bootstrap: the checkpoint landed but
      // the sparse log did not. Heal it the same way it was meant to exist.
      if (!CreateSparseLog(log_path, ck_redo, err)) return false;
    }
  }
  uint64_t local_off =
      ScanValidLogEnd(log_path, have_local_ckpt ? ck_redo : 0);
  if (FileSize(log_path) > static_cast<int64_t>(local_off)) {
    if (::truncate(log_path.c_str(), static_cast<off_t>(local_off)) != 0) {
      if (err != nullptr) {
        *err = "truncate torn tail: " + std::string(::strerror(errno));
      }
      return false;
    }
  }

  net::Client c;
  if (!c.Connect(opts_.host, opts_.port, err)) return false;
  net::RequestHeader sub;
  sub.opcode = static_cast<uint8_t>(net::Op::kReplSubscribe);
  sub.params[0] = local_off;
  if (!c.Send(sub, {}, err)) return false;
  net::Client::Result res;
  if (!c.Recv(&res, err)) return false;
  net::ReplHelloWire hello;
  if (res.status != net::WireStatus::kOk || !DecodeHello(res.payload, &hello)) {
    if (err != nullptr) *err = "primary rejected subscription";
    return false;
  }

  if (hello.mode == net::kReplModeResume) {
    if (hello.start_off == local_off) return true;  // state already usable
    // The primary cannot serve our offset and has no checkpoint to reset us
    // with (it answered resume-from-0). Wipe and join its timeline from the
    // beginning of its log.
    ::unlink(log_path.c_str());
    if (have_local_ckpt) {
      ::unlink((opts_.dir + "/" + ck_file).c_str());
      ::unlink((opts_.dir + "/" +
                std::string(engine::Checkpointer::kManifestName))
                   .c_str());
    }
    return CreateSparseLog(log_path, hello.start_off, err);
  }

  // Snapshot bootstrap: download the checkpoint image.
  g_repl_bootstraps.Add();
  std::string image;
  image.reserve(hello.snapshot_bytes);
  while (image.size() < hello.snapshot_bytes) {
    net::RequestHeader fh;
    std::string chunk;
    if (!ReadStreamFrame(c.fd(), &fh, &chunk)) {
      if (err != nullptr) *err = "snapshot stream closed mid-transfer";
      return false;
    }
    if (static_cast<net::Op>(fh.opcode) != net::Op::kReplSnapshot ||
        fh.params[0] != image.size() ||
        fh.params[1] != hello.snapshot_bytes) {
      if (err != nullptr) *err = "snapshot stream out of order";
      return false;
    }
    image.append(chunk);
  }
  // The socket now carries kReplAppend frames we are not ready for (the
  // engine is not open yet); drop the connection, Start() resubscribes.
  c.Close();

  // Old redo bytes belong to whatever timeline the checkpoint replaces —
  // remove them before the new manifest can name an offset into them.
  ::unlink(log_path.c_str());
  uint64_t new_seq = 0, new_ts = 0, new_redo = 0;
  if (!engine::InstallCheckpointImage(opts_.dir, image, &new_seq, &new_ts,
                                      &new_redo, err)) {
    return false;
  }
  if (have_local_ckpt) {
    std::string old_path = opts_.dir + "/" + ck_file;
    if (ck_seq != new_seq) ::unlink(old_path.c_str());  // superseded image
  }
  return CreateSparseLog(log_path, hello.start_off, err);
}

void Replicator::Start(engine::Engine* engine) {
  if (thread_.joinable()) return;
  engine_ = engine;
  applier_ = std::make_unique<Applier>(engine);
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { RunApply(); });
}

void Replicator::Stop() {
  stopping_.store(true, std::memory_order_release);
  int fd = live_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
}

void Replicator::RunApply() {
  obs::RegisterThisThread("repl-apply");
  engine::LogManager& lm = engine_->log_manager();
  bool first_attempt = true;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      reconnects_.Add();
      for (int i = 0; i < 5 && !stopping_.load(std::memory_order_acquire);
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    first_attempt = false;

    net::Client c;
    std::string err;
    if (!c.Connect(opts_.host, opts_.port, &err)) continue;
    uint64_t local = lm.appended_bytes();
    net::RequestHeader sub;
    sub.opcode = static_cast<uint8_t>(net::Op::kReplSubscribe);
    sub.params[0] = local;
    sub.params[1] = applier_->applied_seq();
    net::Client::Result res;
    net::ReplHelloWire hello;
    if (!c.Send(sub, {}, &err) || !c.Recv(&res, &err)) continue;
    if (res.status != net::WireStatus::kOk ||
        !DecodeHello(res.payload, &hello)) {
      continue;
    }
    if (hello.mode != net::kReplModeResume || hello.start_off != local) {
      // The primary wants to reset us under a live engine — in-memory state
      // cannot be rolled back in place. Surface it and stop; a restart
      // re-runs Bootstrap, which installs the shipped checkpoint cleanly.
      rebuild_required_.store(true, std::memory_order_release);
      return;
    }
    primary_durable_seq_.store(hello.durable_seq, std::memory_order_relaxed);
    live_fd_.store(c.fd(), std::memory_order_release);
    connected_.store(true, std::memory_order_release);
    if (stopping_.load(std::memory_order_acquire)) {
      ::shutdown(c.fd(), SHUT_RDWR);
    }

    bool fatal = false;
    net::RequestHeader fh;
    std::string chunk;
    while (!stopping_.load(std::memory_order_acquire)) {
      if (!ReadStreamFrame(c.fd(), &fh, &chunk)) break;
      if (static_cast<net::Op>(fh.opcode) != net::Op::kReplAppend) continue;
      primary_durable_seq_.store(fh.params[1], std::memory_order_relaxed);
      if (PDB_UNLIKELY(fault::ShouldFire(fault::Point::kReplShip))) {
        uint64_t mode = fault::Param(fault::Point::kReplShip);
        if (mode == fault::kReplShipConnReset) break;
        if (mode == fault::kReplShipStall) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (mode == fault::kReplShipDrop) continue;  // → gap → resync
      }
      uint64_t off = fh.params[0];
      if (off + chunk.size() <= local) {
        g_repl_dup_chunks.Add();  // retransmit of bytes we already hold
      } else if (off != local) {
        g_repl_gap_resyncs.Add();  // lost chunk; resubscribe at our frontier
        break;
      } else {
        ChunkInfo info;
        if (!ValidateFrames(chunk.data(), chunk.size(), &info)) break;
        // Durability first, visibility second: a crash between the two
        // replays the chunk from the local log like any recovery.
        Rc rc = lm.AppendRaw(chunk.data(), chunk.size(), info.frames,
                             info.max_seq);
        if (rc != Rc::kOk) {
          fatal = true;  // local log unwritable; retrying cannot help
          break;
        }
        applier_->ApplyChunk(chunk.data(), chunk.size());
        local += chunk.size();
        g_repl_appends.Add();
      }
      net::RequestHeader ack;
      ack.opcode = static_cast<uint8_t>(net::Op::kReplAck);
      ack.params[0] = local;
      ack.params[1] = applier_->applied_seq();
      if (!c.Send(ack, {}, &err)) break;
    }
    connected_.store(false, std::memory_order_release);
    live_fd_.store(-1, std::memory_order_release);
    if (fatal) return;
  }
}

}  // namespace preemptdb::repl
