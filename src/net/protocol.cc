#include "net/protocol.h"

#include <cstring>

namespace preemptdb::net {

const char* WireStatusString(WireStatus s) {
  switch (s) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kNotFound:
      return "not_found";
    case WireStatus::kAborted:
      return "aborted";
    case WireStatus::kError:
      return "error";
    case WireStatus::kBusy:
      return "busy";
    case WireStatus::kTimeout:
      return "timeout";
    case WireStatus::kBadRequest:
      return "bad_request";
    case WireStatus::kShuttingDown:
      return "shutting_down";
    case WireStatus::kReadOnly:
      return "read_only";
  }
  return "?";
}

WireStatus StatusFromRc(Rc rc) {
  switch (rc) {
    case Rc::kOk:
      return WireStatus::kOk;
    case Rc::kNotFound:
      return WireStatus::kNotFound;
    case Rc::kAbortWriteConflict:
    case Rc::kAbortSerialization:
    case Rc::kAbortUser:
    case Rc::kKeyExists:
      return WireStatus::kAborted;
    case Rc::kTimeout:
      return WireStatus::kTimeout;
    case Rc::kError:
    case Rc::kIoError:
      return WireStatus::kError;
  }
  return WireStatus::kError;
}

void AppendTimelineWire(const TimelineWire& t, std::string* out) {
  out->append(reinterpret_cast<const char*>(&t), kTimelineWireSize);
}

bool DecodeTimelineWire(std::string_view payload, TimelineWire* out) {
  if (payload.size() < kTimelineWireSize) return false;
  std::memcpy(out, payload.data() + payload.size() - kTimelineWireSize,
              kTimelineWireSize);
  return true;
}

void EncodeRequest(const RequestHeader& h, std::string_view payload,
                   std::string* out) {
  RequestHeader copy = h;
  copy.magic = kRequestMagic;
  copy.version = kProtocolVersion;
  copy.payload_len = static_cast<uint32_t>(payload.size());
  out->reserve(out->size() + kRequestHeaderSize + payload.size());
  out->append(reinterpret_cast<const char*>(&copy), kRequestHeaderSize);
  if (!payload.empty()) out->append(payload.data(), payload.size());
}

void EncodeResponse(const ResponseHeader& h, std::string_view payload,
                    std::string* out) {
  ResponseHeader copy = h;
  copy.magic = kResponseMagic;
  copy.version = kProtocolVersion;
  copy.payload_len = static_cast<uint32_t>(payload.size());
  out->reserve(out->size() + kResponseHeaderSize + payload.size());
  out->append(reinterpret_cast<const char*>(&copy), kResponseHeaderSize);
  if (!payload.empty()) out->append(payload.data(), payload.size());
}

bool DecodeRequestHeader(const uint8_t* buf, RequestHeader* out) {
  // Version is intentionally NOT validated here: the frame layout is
  // version-stable, so the server can always frame the request and reply
  // kBadRequest to an unsupported version instead of poisoning the
  // connection (which would look like a hang to a naive client).
  std::memcpy(out, buf, kRequestHeaderSize);
  return out->magic == kRequestMagic && out->payload_len <= kMaxPayload;
}

bool DecodeResponseHeader(const uint8_t* buf, ResponseHeader* out) {
  std::memcpy(out, buf, kResponseHeaderSize);
  return out->magic == kResponseMagic && out->version == kProtocolVersion &&
         out->payload_len <= kMaxPayload;
}

}  // namespace preemptdb::net
