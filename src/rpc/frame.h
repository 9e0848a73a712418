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

struct RequestFrame {
  CallId call;
  ObjectId object;        // target object within the server context
  std::uint32_t method = 0;
  Bytes args;
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

/// Borrowed decode of a request: identical fields to RequestFrame except
/// `args` is a window of the buffer handed to DecodeRequestView — no
/// copy. The borrower (server dispatch) keeps the arrival buffer alive
/// as the request-scoped arena for as long as the view is read,
/// including across handler suspension points.
struct RequestFrameView {
  CallId call;
  ObjectId object;
  std::uint32_t method = 0;
  BytesView args;
  SimTime deadline = 0;
  obs::TraceContext trace;
  Priority priority = Priority::kNormal;
};

struct ReplyFrame {
  CallId call;
  StatusCode code = StatusCode::kOk;
  std::string error_message;  // empty when code == kOk
  /// Pushback hint, nanoseconds; nonzero only with kResourceExhausted.
  /// The client should not re-offer this work to the server before the
  /// hint elapses (the server scales it with queue pressure).
  SimDuration retry_after = 0;
  Bytes result;  // empty unless code == kOk or kObjectMoved

  PROXY_SERDE_FIELDS(call, code, error_message, retry_after, result)
};

/// Outcome of one RPC as seen by the caller. `payload` is the reply body
/// when the status is OK, and the forwarding hint (an encoded new
/// binding) when the status is OBJECT_MOVED; empty otherwise.
struct RpcResult {
  Status status;
  Bytes payload;
  /// Server pushback hint (RESOURCE_EXHAUSTED replies); 0 = none.
  SimDuration retry_after = 0;

  RpcResult() = default;
  RpcResult(Status s) : status(std::move(s)) {}  // NOLINT(implicit)
  RpcResult(Status s, Bytes p) : status(std::move(s)), payload(std::move(p)) {}

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
};

/// Encodes a frame with its type tag, consuming it: `args` / `result`
/// are adopted into the encoder's buffer chain instead of copied.
///
/// Every peer is built from this tree, so the request frame has one
/// fixed layout and no version field:
///   tag, call, object, method, args, deadline,
///   trace_id, span_id, parent_span_id, priority
Bytes EncodeRequest(RequestFrame&& frame);
Bytes EncodeReply(ReplyFrame&& frame);

/// Decodes the type tag, then the matching frame.
Result<FrameType> PeekFrameType(BytesView data);
Result<ReplyFrame> DecodeReply(BytesView data);

/// Borrowed decode: `args` in the result is a window of `data`. The
/// caller owns `data`'s backing buffer and must keep it alive while the
/// view is used (server dispatch holds the arrival buffer as arena).
Result<RequestFrameView> DecodeRequestView(BytesView data);

}  // namespace proxy::rpc
