#include "repl/shipper.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "engine/checkpoint.h"
#include "engine/log.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace preemptdb::repl {

namespace {

obs::Counter g_ship_sessions("repl.ship.sessions");
obs::Counter g_ship_chunks("repl.ship.chunks");
obs::Counter g_ship_bytes("repl.ship.bytes");
obs::Counter g_ship_snapshots("repl.ship.snapshots");
obs::Counter g_ship_dropped("repl.ship.injected_drops");
obs::Counter g_ship_dups("repl.ship.injected_dups");
obs::Counter g_ship_resets("repl.ship.injected_resets");

bool ReadWholeFile(const std::string& path, std::string* out) {
  FILE* f = ::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  size_t got;
  while ((got = ::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, got);
  bool ok = ::ferror(f) == 0;
  ::fclose(f);
  return ok;
}

// Largest whole-frame prefix of [data, data+n). The range comes from below
// durable_bytes, so every frame is complete on disk — a cut can only happen
// because the read window ends mid-frame.
size_t WholeFramePrefix(const char* data, size_t n) {
  size_t pos = 0;
  while (pos + sizeof(engine::SegmentHeader) <= n) {
    engine::SegmentHeader sh;
    std::memcpy(&sh, data + pos, sizeof(sh));
    if (sh.magic != engine::kSegmentMagic) break;  // poisoned file; stop
    if (pos + sizeof(sh) + sh.length > n) break;
    pos += sizeof(sh) + sh.length;
  }
  return pos;
}

}  // namespace

Shipper::Shipper(engine::Engine* engine) : Shipper(engine, Options()) {}

Shipper::Shipper(engine::Engine* engine, Options opts)
    : engine_(engine), opts_(opts), sessions_started_(g_ship_sessions) {}

Shipper::~Shipper() {
  Stop();
  gauges_.Clear();
}

void Shipper::AddFollower(int fd, const net::RequestHeader& sub) {
  std::lock_guard<std::mutex> g(mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  for (uint32_t i = 0; i < kMaxFollowers; ++i) {
    Slot* s = &slots_[i];
    if (s->active.load(std::memory_order_acquire)) continue;
    if (s->thread.joinable()) s->thread.join();  // reap the finished session
    if (!s->ever_used.exchange(true, std::memory_order_acq_rel)) {
      const std::string p = "repl.follower" + std::to_string(i) + ".";
      gauges_.Add(p + "applied_seq", [s] {
        return static_cast<double>(
            s->applied_seq.load(std::memory_order_relaxed));
      });
      engine::Engine* eng = engine_;
      gauges_.Add(p + "lag_bytes", [s, eng] {
        if (!s->active.load(std::memory_order_acquire)) return 0.0;
        uint64_t durable = eng->log_manager().durable_bytes();
        uint64_t acked = s->acked.load(std::memory_order_relaxed);
        return durable > acked ? static_cast<double>(durable - acked) : 0.0;
      });
    }
    s->fd.store(fd, std::memory_order_release);
    s->active.store(true, std::memory_order_release);
    sessions_started_.Add();
    s->thread = std::thread([this, s, sub] { Run(s, sub); });
    return;
  }
  ::close(fd);  // every slot taken: the follower will retry
}

void Shipper::Stop() {
  stopping_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> g(mu_);
  for (Slot& s : slots_) {
    int fd = s.fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblock poll/send
  }
  for (Slot& s : slots_) {
    if (s.thread.joinable()) s.thread.join();
  }
}

std::vector<Shipper::FollowerView> Shipper::Followers() const {
  std::vector<FollowerView> out;
  uint64_t durable = engine_->log_manager().durable_bytes();
  for (uint32_t i = 0; i < kMaxFollowers; ++i) {
    const Slot& s = slots_[i];
    if (!s.ever_used.load(std::memory_order_acquire)) continue;
    FollowerView v;
    v.slot = i;
    v.connected = s.active.load(std::memory_order_acquire);
    v.shipped_bytes = s.shipped.load(std::memory_order_relaxed);
    v.acked_bytes = s.acked.load(std::memory_order_relaxed);
    v.applied_seq = s.applied_seq.load(std::memory_order_relaxed);
    v.lag_bytes = v.connected && durable > v.acked_bytes
                      ? durable - v.acked_bytes
                      : 0;
    out.push_back(v);
  }
  return out;
}

uint32_t Shipper::follower_count() const {
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    if (s.active.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

uint64_t Shipper::max_lag_bytes() const {
  uint64_t durable = engine_->log_manager().durable_bytes();
  uint64_t max = 0;
  for (const Slot& s : slots_) {
    if (!s.active.load(std::memory_order_acquire)) continue;
    uint64_t acked = s.acked.load(std::memory_order_relaxed);
    if (durable > acked && durable - acked > max) max = durable - acked;
  }
  return max;
}

bool Shipper::SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w;
    do {
      w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

bool Shipper::DrainAcks(Slot* slot, std::string* ackbuf, bool* dead) {
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(slot->fd.load(std::memory_order_relaxed), buf,
                       sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      ackbuf->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      *dead = true;  // orderly EOF: the follower went away
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    *dead = true;
    return true;
  }
  size_t pos = 0;
  while (ackbuf->size() - pos >= net::kRequestHeaderSize) {
    net::RequestHeader h;
    if (!net::DecodeRequestHeader(
            reinterpret_cast<const uint8_t*>(ackbuf->data() + pos), &h)) {
      *dead = true;  // framing lost; the follower will resubscribe
      return false;
    }
    if (ackbuf->size() - pos < net::kRequestHeaderSize + h.payload_len) break;
    pos += net::kRequestHeaderSize + h.payload_len;
    if (static_cast<net::Op>(h.opcode) != net::Op::kReplAck) continue;
    // Acked bytes only move forward (a reconnecting follower's first ack
    // can trail a previous session's frontier; lag must not jump negative).
    uint64_t prev = slot->acked.load(std::memory_order_relaxed);
    if (h.params[0] > prev) {
      slot->acked.store(h.params[0], std::memory_order_relaxed);
    }
    slot->applied_seq.store(h.params[1], std::memory_order_relaxed);
  }
  if (pos > 0) ackbuf->erase(0, pos);
  return true;
}

void Shipper::Run(Slot* slot, net::RequestHeader sub) {
  obs::RegisterThisThread("repl-ship");
  const int fd = slot->fd.load(std::memory_order_acquire);
  engine::LogManager& lm = engine_->log_manager();
  const std::string dir = engine_->log_dir();

  const uint64_t follower_off = sub.params[0];
  const uint64_t durable_at_hello = lm.durable_bytes();

  // Mode decision. A fresh follower (offset 0) bootstraps from the last
  // complete checkpoint when one exists — shipping the compacted image plus
  // the redo tail beats replaying the log from byte 0. An offset beyond our
  // durable frontier means the follower's history is not ours (or we lost a
  // log they kept); a checkpoint bootstrap resets them onto this timeline.
  uint64_t ckpt_seq = 0, ckpt_ts = 0, ckpt_redo = 0;
  std::string ckpt_file, merr, image;
  bool have_ckpt = engine::LoadCheckpointManifest(dir, &ckpt_seq, &ckpt_ts,
                                                  &ckpt_redo, &ckpt_file,
                                                  &merr);
  bool want_snapshot =
      have_ckpt && (follower_off == 0 || follower_off > durable_at_hello);
  if (want_snapshot && !ReadWholeFile(dir + "/" + ckpt_file, &image)) {
    want_snapshot = false;  // manifest names a file we cannot read; resume
    image.clear();
  }

  net::ReplHelloWire hello;
  if (want_snapshot) {
    hello.mode = net::kReplModeSnapshot;
    hello.ckpt_seq = ckpt_seq;
    hello.ckpt_ts = ckpt_ts;
    hello.snapshot_bytes = image.size();
    hello.start_off = ckpt_redo;
  } else {
    hello.mode = net::kReplModeResume;
    hello.start_off = follower_off <= durable_at_hello ? follower_off : 0;
  }
  hello.durable_seq = lm.durable_seq();

  net::ResponseHeader rh;
  rh.status = static_cast<uint8_t>(net::WireStatus::kOk);
  rh.rc = static_cast<uint8_t>(Rc::kOk);
  rh.request_id = sub.request_id;
  std::string frame;
  net::EncodeResponse(
      rh,
      std::string_view(reinterpret_cast<const char*>(&hello),
                       net::kReplHelloWireSize),
      &frame);
  bool alive = SendAll(fd, frame.data(), frame.size());

  if (alive && want_snapshot) {
    g_ship_snapshots.Add();
    for (uint64_t off = 0; alive && off < image.size();
         off += kChunkBudget) {
      size_t len = image.size() - off;
      if (len > kChunkBudget) len = kChunkBudget;
      net::RequestHeader ch;
      ch.opcode = static_cast<uint8_t>(net::Op::kReplSnapshot);
      ch.request_id = off / kChunkBudget;
      ch.params[0] = off;
      ch.params[1] = image.size();
      ch.params[2] = ckpt_seq;
      frame.clear();
      net::EncodeRequest(ch, std::string_view(image.data() + off, len),
                         &frame);
      alive = SendAll(fd, frame.data(), frame.size());
    }
  }

  uint64_t shipped = hello.start_off;
  slot->shipped.store(shipped, std::memory_order_relaxed);
  slot->acked.store(shipped, std::memory_order_relaxed);

  int lfd = ::open((dir + "/redo.log").c_str(), O_RDONLY | O_CLOEXEC);
  std::vector<char> buf(kChunkBudget);
  std::string ackbuf;
  bool dead = !alive || lfd < 0;
  while (!dead && !stopping_.load(std::memory_order_acquire)) {
    DrainAcks(slot, &ackbuf, &dead);
    if (dead) break;
    uint64_t durable = lm.durable_bytes();
    if (shipped >= durable) {
      // Caught up: wait for acks (or the peer hanging up) with a short cap
      // so new durable bytes ship promptly.
      pollfd p{fd, POLLIN, 0};
      ::poll(&p, 1, 20);
      continue;
    }
    size_t want = durable - shipped;
    if (want > buf.size()) want = buf.size();
    ssize_t n = ::pread(lfd, buf.data(), want, static_cast<off_t>(shipped));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // durable bytes unreadable: give up, follower resubscribes
    }
    size_t chunk = WholeFramePrefix(buf.data(), static_cast<size_t>(n));
    if (chunk == 0) break;  // should be impossible below durable_bytes

    if (PDB_UNLIKELY(fault::ShouldFire(fault::Point::kReplShip))) {
      uint64_t mode = fault::Param(fault::Point::kReplShip);
      if (mode == fault::kReplShipDrop) {
        // Skip the send but advance: the follower sees an offset gap and
        // recovers by resubscribing at its own frontier.
        g_ship_dropped.Add();
        shipped += chunk;
        slot->shipped.store(shipped, std::memory_order_relaxed);
        continue;
      }
      if (mode == fault::kReplShipConnReset) {
        g_ship_resets.Add();
        break;
      }
      if (mode == fault::kReplShipStall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      // kReplShipDup falls through: the chunk is sent twice below.
    }

    net::RequestHeader ah;
    ah.opcode = static_cast<uint8_t>(net::Op::kReplAppend);
    ah.request_id = shipped;  // offset doubles as a stable frame id
    ah.params[0] = shipped;
    ah.params[1] = lm.durable_seq();
    frame.clear();
    net::EncodeRequest(ah, std::string_view(buf.data(), chunk), &frame);
    if (!SendAll(fd, frame.data(), frame.size())) break;
    if (PDB_UNLIKELY(fault::Enabled()) &&
        fault::Param(fault::Point::kReplShip) == fault::kReplShipDup &&
        fault::ShouldFire(fault::Point::kReplShip)) {
      g_ship_dups.Add();
      if (!SendAll(fd, frame.data(), frame.size())) break;
    }
    shipped += chunk;
    slot->shipped.store(shipped, std::memory_order_relaxed);
    g_ship_chunks.Add();
    g_ship_bytes.Add(chunk);
    if (opts_.max_bytes_per_sec > 0) {
      // Token-bucket pacing (one-chunk burst): the chunk just sent must
      // drain at the configured rate before the next one may leave. Sliced
      // sleep so Stop() stays prompt even at very low rates.
      uint64_t until =
          MonoNanos() + chunk * 1'000'000'000ull / opts_.max_bytes_per_sec;
      while (!stopping_.load(std::memory_order_acquire)) {
        uint64_t now = MonoNanos();
        if (now >= until) break;
        uint64_t left = until - now;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            left < 10'000'000 ? left : 10'000'000));
      }
    }
  }

  if (lfd >= 0) ::close(lfd);
  ::close(fd);
  slot->fd.store(-1, std::memory_order_release);
  slot->active.store(false, std::memory_order_release);
}

}  // namespace preemptdb::repl
