#include "net/connection.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace preemptdb::net {

namespace {
// Big enough that a burst of point-op frames reads in one syscall; small
// enough that thousands of idle connections stay cheap.
constexpr size_t kReadChunk = 16 * 1024;
// Gather cap per writev (well under any realistic IOV_MAX).
constexpr size_t kMaxIov = 64;
// write() syscalls saved by gathering N queued responses into one writev
// (N-1 per gather). A pipelined/batched client sees its whole burst of
// responses leave in one syscall instead of one per frame.
obs::Counter g_writev_coalesced("net.writev_coalesced");
}  // namespace

Connection::Connection(int fd, uint64_t id, uint32_t shard_id)
    : fd_(fd), id_(id), shard_id_(shard_id) {}

Connection::~Connection() { MarkClosed(); }

Connection::IoResult Connection::ReadIntoBuffer() {
  if (closed()) return IoResult::kClosed;
  size_t old = rbuf_.size();
  rbuf_.resize(old + kReadChunk);
  size_t want = kReadChunk;
  if (fault::ShouldFire(fault::Point::kNetPartialRead)) want = 1;
  ssize_t n;
  do {
    n = ::read(fd_, rbuf_.data() + old, want);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    rbuf_.resize(old + static_cast<size_t>(n));
    return IoResult::kOk;
  }
  rbuf_.resize(old);
  if (n == 0) return IoResult::kClosed;  // orderly EOF
  if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
  return IoResult::kClosed;  // ECONNRESET and friends
}

bool Connection::DrainFrames(
    const std::function<bool(const RequestHeader&, std::string_view)>& cb) {
  while (rbuf_.size() - roff_ >= kRequestHeaderSize) {
    RequestHeader h;
    if (!DecodeRequestHeader(rbuf_.data() + roff_, &h)) return false;
    size_t frame = kRequestHeaderSize + h.payload_len;
    if (rbuf_.size() - roff_ < frame) break;  // partial frame: wait for more
    std::string_view payload(
        reinterpret_cast<const char*>(rbuf_.data() + roff_) +
            kRequestHeaderSize,
        h.payload_len);
    roff_ += frame;
    if (!cb(h, payload)) return false;
  }
  // Compact: drop consumed bytes so the buffer never grows with the
  // connection's lifetime, only with its largest in-flight frame.
  if (roff_ > 0) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<long>(roff_));
    roff_ = 0;
  }
  return true;
}

bool Connection::EnqueueResponse(std::string frame) {
  if (closed()) return false;
  outbox_.push_back(std::move(frame));
  return true;
}

Connection::IoResult Connection::Flush() {
  if (closed()) return IoResult::kClosed;
  for (;;) {
    // Drain the partial-write holdover first: the unwritten tail of a frame
    // a previous short write left behind (wbuf_ holds only such tails now —
    // whole responses go out straight from the outbox via writev below).
    if (woff_ < wbuf_.size()) {
      size_t len = wbuf_.size() - woff_;
      if (fault::ShouldFire(fault::Point::kNetPartialWrite)) len = 1;
      ssize_t n;
      do {
        n = ::send(fd_, wbuf_.data() + woff_, len, MSG_NOSIGNAL);
      } while (n < 0 && errno == EINTR);
      if (n > 0) {
        woff_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return IoResult::kWouldBlock;
      }
      return IoResult::kClosed;  // EPIPE/ECONNRESET: peer is gone
    }
    wbuf_.clear();
    woff_ = 0;
    if (outbox_.empty()) return IoResult::kOk;  // fully flushed

    // Gather the queued responses into one writev instead of one write per
    // frame — a batched request's N responses cost one syscall.
    struct iovec iov[kMaxIov];
    size_t cnt = outbox_.size() < kMaxIov ? outbox_.size() : kMaxIov;
    for (size_t i = 0; i < cnt; ++i) {
      iov[i].iov_base = outbox_[i].data();
      iov[i].iov_len = outbox_[i].size();
    }
    if (fault::ShouldFire(fault::Point::kNetPartialWrite)) {
      // Single-byte truncation, same as the send path above: the remainder
      // takes the holdover path and responses still arrive whole.
      cnt = 1;
      iov[0].iov_len = 1;
    }
    ssize_t n;
    do {
      n = ::writev(fd_, iov, static_cast<int>(cnt));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      if (cnt > 1) g_writev_coalesced.Add(cnt - 1);  // syscalls saved
      // Retire fully-written frames; stash a split frame's tail in wbuf_.
      size_t rem = static_cast<size_t>(n);
      size_t consumed = 0;
      while (consumed < cnt && rem >= outbox_[consumed].size()) {
        rem -= outbox_[consumed].size();
        ++consumed;
      }
      if (rem > 0) {
        wbuf_.assign(outbox_[consumed], rem, std::string::npos);
        ++consumed;
      }
      outbox_.erase(outbox_.begin(),
                    outbox_.begin() + static_cast<long>(consumed));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoResult::kWouldBlock;
    }
    return IoResult::kClosed;
  }
}

size_t Connection::MarkClosed() {
  bool was = closed_.exchange(true, std::memory_order_acq_rel);
  if (was) return 0;
  size_t dropped = outbox_.size();
  outbox_.clear();
  // A partially-written wbuf frame is also lost, but frame boundaries are
  // erased by concatenation — count at least one when unwritten bytes remain.
  if (woff_ < wbuf_.size()) ++dropped;
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  return dropped;
}

int Connection::DetachFd() {
  bool was = closed_.exchange(true, std::memory_order_acq_rel);
  if (was) return -1;  // already closed: the fd no longer exists
  outbox_.clear();
  wbuf_.clear();
  woff_ = 0;
  return fd_;
}

}  // namespace preemptdb::net
