#include "rpc/frame.h"

#include "serde/reader.h"
#include "serde/writer.h"

namespace proxy::rpc {

namespace {

using serde::VarintSize;

std::size_t CallIdSize(const CallId& call) {
  return VarintSize(call.client_nonce) + VarintSize(call.seq);
}

/// A length-prefixed field of `n` bytes.
std::size_t LengthPrefixedSize(std::size_t n) { return VarintSize(n) + n; }

}  // namespace

// Both frames are allocated at their exact encoded size, summed field by
// field in wire order: the client keeps each encoded request until its
// reply, for retransmission, and the server keeps each encoded reply in
// its at-most-once cache, so any slack would be held for every call.
Bytes EncodeRequest(const RequestFrame& frame) {
  serde::Writer w(1 + CallIdSize(frame.call) +
                  2 * sizeof(std::uint64_t) +  // object: two fixed64 words
                  VarintSize(frame.method) +
                  LengthPrefixedSize(frame.args.size()) +
                  VarintSize(frame.deadline) +
                  VarintSize(frame.trace.trace_id) +
                  VarintSize(frame.trace.span_id) +
                  VarintSize(frame.trace.parent_span_id) +
                  VarintSize(static_cast<std::uint64_t>(frame.priority)));
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kRequest));
  serde::Serialize(w, frame.call);
  serde::Serialize(w, frame.object);
  serde::Serialize(w, frame.method);
  w.WriteBytes(frame.args);
  w.WriteVarint(frame.deadline);  // absolute expiry, 0 = none
  w.WriteVarint(frame.trace.trace_id);
  w.WriteVarint(frame.trace.span_id);
  w.WriteVarint(frame.trace.parent_span_id);
  w.WriteVarint(static_cast<std::uint64_t>(frame.priority));
  return w.Take();
}

Bytes EncodeReply(const ReplyFrame& frame) {
  serde::Writer w(1 + CallIdSize(frame.call) +
                  VarintSize(static_cast<std::uint64_t>(frame.code)) +
                  LengthPrefixedSize(frame.error_message.size()) +
                  VarintSize(frame.retry_after) +
                  LengthPrefixedSize(frame.result.size()));
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kReply));
  serde::Serialize(w, frame.call);
  serde::Serialize(w, frame.code);
  serde::Serialize(w, frame.error_message);
  serde::Serialize(w, frame.retry_after);
  w.WriteBytes(frame.result);
  return w.Take();
}

Result<RequestFrame> DecodeRequestView(BytesView data) {
  serde::Reader r(data);
  std::uint8_t tag = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(tag));
  if (tag != static_cast<std::uint8_t>(FrameType::kRequest)) {
    return CorruptError("unexpected frame type");
  }
  RequestFrame frame;
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.call));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.object));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.method));
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(frame.args));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(frame.deadline));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(frame.trace.trace_id));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(frame.trace.span_id));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(frame.trace.parent_span_id));
  std::uint64_t level = 0;
  PROXY_RETURN_IF_ERROR(r.ReadVarint(level));
  if (level >= kPriorityLevels) {
    return CorruptError("priority level out of range");
  }
  frame.priority = static_cast<Priority>(level);
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

const char* PriorityName(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh:
      return "P0";
    case Priority::kNormal:
      return "P1";
    case Priority::kLow:
      return "P2";
  }
  return "P?";
}

Result<ReplyFrame> DecodeReply(BytesView data) {
  serde::Reader r(data);
  std::uint8_t tag = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(tag));
  if (tag != static_cast<std::uint8_t>(FrameType::kReply)) {
    return CorruptError("unexpected frame type");
  }
  ReplyFrame frame;
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.call));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.code));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.error_message));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.retry_after));
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(frame.result));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

}  // namespace proxy::rpc
