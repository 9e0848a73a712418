// RPC wire frames.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/status.h"
#include "obs/trace.h"
#include "serde/traits.h"

namespace proxy::rpc {

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
};

/// Request priority lattice, smallest value most important. The server's
/// admission queue dequeues kHigh before kNormal before kLow and, when
/// the queue overflows, evicts the lowest-priority waiter first — so
/// background traffic (kLow) is shed long before interactive traffic
/// (kHigh) feels overload. The default is the middle level: callers can
/// opt *up* (latency-critical control paths) or *down* (scans, repair,
/// analytics) relative to unannotated traffic.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline constexpr std::uint8_t kPriorityLevels = 3;

/// Stable names for logs/benches ("P0".."P2").
const char* PriorityName(Priority p) noexcept;

/// Globally unique call identity: the client instance's random nonce plus
/// a per-client sequence number. Retransmissions reuse the id, which is
/// what lets the server suppress duplicate executions (at-most-once).
struct CallId {
  std::uint64_t client_nonce = 0;
  std::uint64_t seq = 0;

  PROXY_SERDE_FIELDS(client_nonce, seq)

  friend bool operator==(const CallId& a, const CallId& b) noexcept {
    return a.client_nonce == b.client_nonce && a.seq == b.seq;
  }
};

/// One request on the wire. `args` is borrowed in both directions:
/// EncodeRequest copies it into the encoded frame, which the client keeps
/// for retransmission, and DecodeRequestView points it into the arrival
/// buffer. The server keeps that buffer alive as the request-scoped arena
/// for as long as the view is read, including across handler suspension.
struct RequestFrame {
  CallId call;
  ObjectId object;        // target object within the server context
  std::uint32_t method = 0;
  BytesView args;
  /// Absolute virtual time after which the caller no longer wants the
  /// result; 0 means no deadline. Carried on the wire so the server can
  /// skip dispatching work whose reply nobody will read.
  SimTime deadline = 0;
  /// Causal trace of the call; all-zero = untraced. The server hands it
  /// to the handler, which threads it through its own downstream calls —
  /// that is what stitches forwarding chains, re-resolution, and
  /// replication fan-out into one tree.
  obs::TraceContext trace;
  Priority priority = Priority::kNormal;
};

/// The old name of DecodeRequestView's result. The library no longer
/// uses it; hostbench/src/wraps.cpp does, so it goes when that file
/// next changes.
using RequestFrameView = RequestFrame;

/// One reply on the wire. `result` is borrowed like RequestFrame::args:
/// EncodeReply copies it into the encoded frame, which the server keeps
/// in its reply cache, and DecodeReply points it into the arrival buffer.
struct ReplyFrame {
  CallId call;
  StatusCode code = StatusCode::kOk;
  std::string error_message;  // empty when code == kOk
  /// Pushback hint, nanoseconds; nonzero only with kResourceExhausted.
  /// The client should not re-offer this work to the server before the
  /// hint elapses (the server scales it with queue pressure).
  SimDuration retry_after = 0;
  BytesView result;  // empty unless code == kOk or kObjectMoved
};

/// Outcome of one RPC as seen by the caller. `payload` is the reply body
/// when the status is OK, and the forwarding hint (an encoded new
/// binding) when the status is OBJECT_MOVED; empty otherwise. It is the
/// reply's arrival buffer narrowed to `result`, so the caller decodes
/// straight out of the datagram, and views into it live as long as the
/// RpcResult does.
struct RpcResult {
  Status status;
  OwnedBytes payload;
  /// Server pushback hint (RESOURCE_EXHAUSTED replies); 0 = none.
  SimDuration retry_after = 0;

  RpcResult() = default;
  RpcResult(Status s) : status(std::move(s)) {}  // NOLINT(implicit)
  RpcResult(Status s, OwnedBytes p)
      : status(std::move(s)), payload(std::move(p)) {}

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
};

/// Encodes a frame with its type tag into one buffer, copying `args` /
/// `result` into it once.
///
/// Every peer is built from this tree, so each frame has one fixed
/// layout and no version field:
///   request: tag, call, object, method, args, deadline,
///            trace_id, span_id, parent_span_id, priority
///   reply:   tag, call, code, error_message, retry_after, result
Bytes EncodeRequest(const RequestFrame& frame);
Bytes EncodeReply(const ReplyFrame& frame);

/// Borrowed decodes: `args` / `result` in the frame is a window of
/// `data`. The caller owns `data`'s backing buffer and must keep it
/// alive while the view is used (server dispatch holds the arrival
/// buffer as the request's arena; the client hands it to the caller in
/// RpcResult::payload).
Result<RequestFrame> DecodeRequestView(BytesView data);
Result<ReplyFrame> DecodeReply(BytesView data);

}  // namespace proxy::rpc
