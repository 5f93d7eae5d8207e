#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace preemptdb::net {

namespace {
void FillErr(std::string* err, const char* what) {
  if (err != nullptr) *err = std::string(what) + ": " + std::strerror(errno);
}
}  // namespace

bool Client::Connect(const std::string& host, uint16_t port, std::string* err,
                     int max_attempts) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    FillErr(err, "inet_pton");
    return false;
  }
  if (max_attempts < 1) max_attempts = 1;
  uint64_t backoff_us = 500;
  for (int attempt = 1;; ++attempt) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      FillErr(err, "socket");
      return false;
    }
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return true;
    }
    // Transient refusals — the listener is not up yet, or its backlog
    // momentarily overflowed — are worth retrying; anything else is a real
    // configuration/network error the caller should see at once. A fresh
    // socket per attempt: a failed connect() leaves the old one unusable.
    bool transient = errno == ECONNREFUSED || errno == ECONNABORTED ||
                     errno == EAGAIN;
    if (!transient || attempt >= max_attempts) {
      FillErr(err, "connect");
      Close();
      return false;
    }
    Close();
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min<uint64_t>(backoff_us * 2, 20'000);
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::WriteAll(const char* buf, size_t len, std::string* err) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd_, buf + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      FillErr(err, "send");
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Client::ReadAll(char* buf, size_t len, std::string* err) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::read(fd_, buf + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      FillErr(err, "read");
      return false;
    }
    if (n == 0) {
      if (err != nullptr) *err = "connection closed by server";
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Client::Send(RequestHeader h, std::string_view payload, std::string* err,
                  uint64_t* id_out) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  h.request_id = next_id_++;
  if (id_out != nullptr) *id_out = h.request_id;
  std::string frame;
  EncodeRequest(h, payload, &frame);
  return WriteAll(frame.data(), frame.size(), err);
}

bool Client::Recv(Result* out, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  uint8_t hdr[kResponseHeaderSize];
  if (!ReadAll(reinterpret_cast<char*>(hdr), sizeof(hdr), err)) return false;
  ResponseHeader rh;
  if (!DecodeResponseHeader(hdr, &rh)) {
    if (err != nullptr) *err = "malformed response header";
    return false;
  }
  out->request_id = rh.request_id;
  out->status = static_cast<WireStatus>(rh.status);
  out->rc = static_cast<Rc>(rh.rc);
  out->server_ns = rh.server_ns;
  out->version = rh.version;
  out->queue_hint = rh.reserved & 0xff;
  out->has_timeline = false;
  out->payload.resize(rh.payload_len);
  if (rh.payload_len > 0 &&
      !ReadAll(out->payload.data(), rh.payload_len, err)) {
    return false;
  }
  if ((rh.flags & kRespFlagTimeline) != 0) {
    // Timeline echo: strip the trailing 72 bytes out of the payload so
    // opcode-level consumers (Get values, ScanSum sums) see the same bytes
    // with or without the flag.
    if (!DecodeTimelineWire(out->payload, &out->timeline)) {
      if (err != nullptr) *err = "timeline flag set but payload too short";
      return false;
    }
    out->has_timeline = true;
    out->payload.resize(out->payload.size() - kTimelineWireSize);
  }
  return true;
}

bool Client::SendBatch(std::vector<BatchItem>* items, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  if (items == nullptr || items->empty() || items->size() > kMaxBatchCount) {
    if (err != nullptr) *err = "batch count must be in [1, kMaxBatchCount]";
    return false;
  }
  std::string inner;
  for (BatchItem& it : *items) {
    it.hdr.request_id = next_id_++;
    EncodeRequest(it.hdr, it.payload, &inner);
  }
  if (inner.size() > kMaxPayload) {
    if (err != nullptr) *err = "encoded batch exceeds kMaxPayload";
    return false;
  }
  RequestHeader env;  // opcode is ignored on an envelope; leave kPing
  env.flags = kReqFlagBatch;
  env.request_id = next_id_++;
  env.params[0] = items->size();
  std::string frame;
  EncodeRequest(env, inner, &frame);
  return WriteAll(frame.data(), frame.size(), err);
}

bool Client::Call(RequestHeader h, std::string_view payload, Result* out,
                  std::string* err) {
  uint64_t id = 0;
  if (!Send(h, payload, err, &id)) return false;
  // With no other outstanding requests the next response is ours; tolerate
  // (skip) strays so a Call() issued after pipelined traffic still matches.
  for (;;) {
    if (!Recv(out, err)) return false;
    if (out->request_id == id) return true;
  }
}

bool Client::Ping(Result* out, std::string* err) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kPing);
  h.prio_class = static_cast<uint8_t>(WireClass::kHigh);
  return Call(h, {}, out, err);
}

bool Client::Admin(Op op, Result* out, std::string* err) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(op);
  return Call(h, {}, out, err);
}

bool Client::SetConfig(std::string_view json, Result* out, std::string* err) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kSetConfig);
  return Call(h, json, out, err);
}

bool Client::Put(uint64_t key, std::string_view value, WireClass cls,
                 Result* out, std::string* err, uint32_t timeout_us) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kPut);
  h.prio_class = static_cast<uint8_t>(cls);
  h.timeout_us = timeout_us;
  h.params[0] = key;
  return Call(h, value, out, err);
}

bool Client::Get(uint64_t key, WireClass cls, Result* out, std::string* err,
                 uint32_t timeout_us) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kGet);
  h.prio_class = static_cast<uint8_t>(cls);
  h.timeout_us = timeout_us;
  h.params[0] = key;
  return Call(h, {}, out, err);
}

bool Client::ScanSum(uint64_t lo, uint64_t hi, WireClass cls, Result* out,
                     std::string* err, uint32_t timeout_us) {
  RequestHeader h;
  h.opcode = static_cast<uint8_t>(Op::kScanSum);
  h.prio_class = static_cast<uint8_t>(cls);
  h.timeout_us = timeout_us;
  h.params[0] = lo;
  h.params[1] = hi;
  return Call(h, {}, out, err);
}

}  // namespace preemptdb::net
