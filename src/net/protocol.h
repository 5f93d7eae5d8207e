// Compact binary wire protocol for the networked front-end.
//
// Framing is length-prefixed and fixed-layout (little-endian, the only byte
// order this codebase targets): a 48-byte request header optionally followed
// by `payload_len` opaque bytes, and a 32-byte response header likewise.
// Requests carry everything the admission path needs to classify and bound
// the work *before* touching the storage engine: a priority class (mapped to
// sched::Priority at the server), a transaction opcode, a relative deadline,
// and three inline u64 params (keys, ranges) so the common point ops never
// need a payload allocation.
//
// The response status is deliberately wider than Rc: backpressure
// (kQueueFull) and shutdown surface as explicit BUSY / SHUTTING_DOWN frames
// — the PR-2 contract "rejected means rejected, nothing queued silently"
// extended to the wire — while transaction-level outcomes keep the exact Rc
// in a detail byte next to the coarse status.
#ifndef PREEMPTDB_NET_PROTOCOL_H_
#define PREEMPTDB_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace preemptdb::net {

inline constexpr uint32_t kRequestMagic = 0x51424450;   // "PDBQ"
inline constexpr uint32_t kResponseMagic = 0x52424450;  // "PDBR"
// Versioning: headers carry the sender's version and the server speaks only
// kProtocolVersion. Any other version gets a well-formed kBadRequest reply —
// not a hang, not a dropped connection — because the 48-byte frame layout
// itself is version-stable.
inline constexpr uint8_t kProtocolVersion = 2;

// Request flags. WantTimeline asks the server to append the transaction's
// lifecycle timeline (TimelineWire) to the response, see kRespFlagTimeline.
inline constexpr uint8_t kReqFlagWantTimeline = 0x1;
// Batch frame: the payload holds params[0] complete inner request
// frames (header + payload each), submitted in order in one read syscall;
// the responses come back as ordinary frames, one per inner request (the
// connection coalesces them into one writev). Constraints enforced by the
// server, each answered with kBadRequest against the *outer* frame: the
// count must be in [1, kMaxBatchCount], inner frames must not themselves be
// batches or admin/repl opcodes, and the count must exactly tile the outer
// payload (a count/length mismatch poisons framing and closes the
// connection).
inline constexpr uint8_t kReqFlagBatch = 0x2;
inline constexpr uint32_t kMaxBatchCount = 256;
// Response flags: the last kTimelineWireSize bytes of the payload are
// an encoded TimelineWire (included in payload_len, so version-unaware
// framing still works).
inline constexpr uint8_t kRespFlagTimeline = 0x1;

// Transaction opcodes of the built-in KV service (Server::Options.handler
// replaces the dispatch entirely for custom workloads; opcodes are then
// interpreted by that handler). Admin opcodes (>= kMetrics) are served by
// the shard event loop itself — never submitted to the engine, never
// subject to admission control — so a wedged or draining server can still
// be inspected.
enum class Op : uint8_t {
  kPing = 0,     // no transaction; liveness + latency floor
  kGet = 1,      // params[0] = key; response payload = value
  kPut = 2,      // params[0] = key; request payload = value
  kDelete = 3,   // params[0] = key
  kScanSum = 4,  // params[0] = lo, params[1] = hi; payload = {count, bytes}
                 // — the long-running "analytics" op (Q2 analog) used as the
                 // low-priority stream by net_loadgen
  // --- Admin / introspection plane ---
  kMetrics = 16,        // payload = MetricsSnapshot JSON (counters, gauges,
                        // stage histograms, per-txn-type rows)
  kHealth = 17,         // payload = JSON: per-shard conn/inflight stats,
                        // per-worker queue depths + starvation + degradation,
                        // scheduler counters, lifecycle state
  kTraceSnapshot = 18,  // payload = Chrome trace-event JSON of the trace
                        // rings (truncated to the payload cap; consumed
                        // events are not re-exported)
  kGetConfig = 19,      // payload = JSON: structural config, tunable knob
                        // values + config version, controller state
  kSetConfig = 20,      // request payload = JSON changeset for the tunable
                        // knobs ({"starvation_threshold":0.4,...}); applied
                        // atomically and validated — any out-of-range or
                        // unknown key rejects the whole set with
                        // kBadRequest (error text in the response payload)
                        // and leaves the version unchanged. On success the
                        // response payload is the new config JSON.
  // --- Replication plane (src/repl/) ---
  //
  // A follower opens an ordinary connection and sends kReplSubscribe
  // (params[0] = its durable redo-log byte offset, params[1] = its applied
  // commit_seq). The serving shard detaches the socket from its event loop
  // and hands it to the primary's shipper thread, which answers with a
  // ResponseHeader whose payload is a ReplHelloWire, then streams
  // RequestHeader-framed kReplSnapshot / kReplAppend frames. The follower
  // sends RequestHeader-framed kReplAck frames back on the same socket.
  kReplSubscribe = 21,  // follower -> primary: start (or resume) shipping
  kReplSnapshot = 22,   // primary -> follower: checkpoint-file chunk;
                        // params[0] = chunk offset, params[1] = total bytes,
                        // params[2] = checkpoint seq
  kReplAppend = 23,     // primary -> follower: whole CRC-framed redo
                        // segments; params[0] = redo-log byte offset of the
                        // first payload byte, params[1] = primary durable_seq
  kReplAck = 24,        // follower -> primary: params[0] = follower durable
                        // redo offset, params[1] = applied commit_seq
};

// Priority class carried on the wire; admission maps it to sched::Priority.
enum class WireClass : uint8_t { kLow = 0, kHigh = 1 };

// Coarse request outcome. Anything >= kBusy never reached (or never
// finished inside) the engine.
enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,      // Rc::kNotFound from the transaction
  kAborted = 2,       // conflict/serialization/user abort (detail in rc)
  kError = 3,         // engine-internal or I/O error (detail in rc)
  kBusy = 4,          // submission queue full: NOT enqueued, retry or shed
  kTimeout = 5,       // deadline expired before/while queued; never executed
                      // after expiry (detail rc == Rc::kTimeout)
  kBadRequest = 6,    // malformed frame, unknown opcode, oversized payload
  kShuttingDown = 7,  // server/DB stopping; submission rejected
  kReadOnly = 8,      // write op on a read-only replica; the payload is the
                      // primary's address ("host:port") as a redirect hint
};

const char* WireStatusString(WireStatus s);

// Maps a transaction-terminal Rc to the coarse wire status (BUSY /
// BAD_REQUEST / SHUTTING_DOWN never come from an Rc).
WireStatus StatusFromRc(Rc rc);

// --- Request frame ---

struct RequestHeader {
  uint32_t magic = kRequestMagic;
  uint8_t version = kProtocolVersion;
  uint8_t opcode = 0;
  uint8_t prio_class = 0;  // WireClass
  uint8_t flags = 0;       // kReqFlag*
  uint64_t request_id = 0;
  uint32_t timeout_us = 0;  // relative deadline; 0 = none (see SubmitOptions)
  uint32_t payload_len = 0;
  uint64_t params[3] = {};
};

inline constexpr size_t kRequestHeaderSize = 48;
static_assert(sizeof(RequestHeader) == kRequestHeaderSize,
              "wire layout must be packed: 4+4+8+4+4+24");

// --- Response frame ---

struct ResponseHeader {
  uint32_t magic = kResponseMagic;
  uint8_t version = kProtocolVersion;
  uint8_t status = 0;  // WireStatus
  uint8_t rc = 0;      // underlying Rc detail (valid for kOk..kTimeout)
  uint8_t flags = 0;   // kRespFlag*
  uint64_t request_id = 0;
  uint64_t server_ns = 0;  // accept-to-completion latency measured serverside
  uint32_t payload_len = 0;
  // Low byte = flow-control hint — the serving shard's in-flight submission
  // depth at reply time, saturated at 255. Pipelined clients use it to back
  // off before hitting BUSY. Upper three bytes reserved, 0.
  uint32_t reserved = 0;
};

// Saturating encode of a shard queue depth into ResponseHeader::reserved.
inline uint32_t EncodeQueueHint(uint64_t depth) {
  return depth > 255 ? 255u : static_cast<uint32_t>(depth);
}

inline constexpr size_t kResponseHeaderSize = 32;
static_assert(sizeof(ResponseHeader) == kResponseHeaderSize,
              "wire layout must be packed: 4+4+8+8+4+4");

// Frames larger than this are rejected at parse time (kBadRequest) before
// any allocation proportional to the claimed length.
inline constexpr uint32_t kMaxPayload = 1u << 20;

// --- Timeline echo ---
//
// Fixed-layout wire form of obs::TxnTimeline, appended as the *last*
// kTimelineWireSize bytes of a response payload when kRespFlagTimeline is
// set. All timestamps are server-side MonoNanos — only the *deltas* are
// meaningful to a client.
struct TimelineWire {
  uint64_t arrival_ns = 0;
  uint64_t admit_ns = 0;
  uint64_t enqueue_ns = 0;
  uint64_t dispatch_ns = 0;
  uint64_t first_run_ns = 0;
  uint64_t done_ns = 0;
  uint64_t reply_ns = 0;
  uint64_t last_resume_ns = 0;
  uint32_t preempts = 0;
  uint32_t yields = 0;
};

inline constexpr size_t kTimelineWireSize = 72;
static_assert(sizeof(TimelineWire) == kTimelineWireSize,
              "wire layout must be packed: 8*8 + 2*4");

// Appends the 72-byte encoding to `out`.
void AppendTimelineWire(const TimelineWire& t, std::string* out);
// Decodes the trailing kTimelineWireSize bytes of `payload`; returns false
// if the payload is too short.
bool DecodeTimelineWire(std::string_view payload, TimelineWire* out);

// --- Replication hello ---
//
// Payload of the response to kReplSubscribe: tells the follower whether it
// can resume from its own offset or must bootstrap from a shipped
// checkpoint first, and where the redo stream will start. Offsets are
// absolute byte positions in the primary's redo log; the follower keeps its
// local log at the same offsets (sparse-extended after a snapshot
// bootstrap), so the two sides never translate.
inline constexpr uint32_t kReplModeResume = 0;    // stream from start_off
inline constexpr uint32_t kReplModeSnapshot = 1;  // ship ckpt, then stream

struct ReplHelloWire {
  uint32_t mode = kReplModeResume;  // kReplMode*
  uint32_t reserved = 0;
  uint64_t ckpt_seq = 0;        // checkpoint being shipped (mode snapshot)
  uint64_t ckpt_ts = 0;         // its snapshot timestamp
  uint64_t snapshot_bytes = 0;  // checkpoint-file bytes to follow (snapshot)
  uint64_t start_off = 0;       // redo offset kReplAppend streaming starts at
  uint64_t durable_seq = 0;     // primary durable commit frontier at hello
};

inline constexpr size_t kReplHelloWireSize = 48;
static_assert(sizeof(ReplHelloWire) == kReplHelloWireSize,
              "wire layout must be packed: 2*4 + 5*8");

// --- Encode / decode ---
//
// Encoders append header + payload to `out` (one buffer per frame keeps the
// write path a single copy) and always stamp kProtocolVersion. Decoders
// validate magic and length and return false on a malformed header — the
// connection is then poisoned and closed, since framing can no longer be
// trusted. An unsupported *version* is NOT a decode failure on the request
// path: the layout is version-stable, so the server decodes the frame and
// answers kBadRequest, keeping the connection alive.

void EncodeRequest(const RequestHeader& h, std::string_view payload,
                   std::string* out);
void EncodeResponse(const ResponseHeader& h, std::string_view payload,
                    std::string* out);

// `buf` must hold at least kRequestHeaderSize / kResponseHeaderSize bytes.
bool DecodeRequestHeader(const uint8_t* buf, RequestHeader* out);
bool DecodeResponseHeader(const uint8_t* buf, ResponseHeader* out);

}  // namespace preemptdb::net

#endif  // PREEMPTDB_NET_PROTOCOL_H_
