#include "rpc/frame.h"

#include "serde/reader.h"
#include "serde/writer.h"

namespace proxy::rpc {

Bytes EncodeRequest(RequestFrame&& frame) {
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kRequest));
  serde::Serialize(w, frame.call);
  serde::Serialize(w, frame.object);
  serde::Serialize(w, frame.method);
  w.WriteBytes(std::move(frame.args));  // adopt, don't re-copy
  w.WriteVarint(frame.deadline);        // absolute expiry, 0 = none
  w.WriteVarint(frame.trace.trace_id);
  w.WriteVarint(frame.trace.span_id);
  w.WriteVarint(frame.trace.parent_span_id);
  w.WriteVarint(static_cast<std::uint64_t>(frame.priority));
  return w.Take();
}

Bytes EncodeReply(ReplyFrame&& frame) {
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kReply));
  serde::Serialize(w, frame.call);
  serde::Serialize(w, frame.code);
  serde::Serialize(w, frame.error_message);
  serde::Serialize(w, frame.retry_after);
  w.WriteBytes(std::move(frame.result));  // adopt, don't re-copy
  return w.Take();
}

Result<FrameType> PeekFrameType(BytesView data) {
  if (data.empty()) return CorruptError("empty frame");
  const auto tag = data[0];
  if (tag != static_cast<std::uint8_t>(FrameType::kRequest) &&
      tag != static_cast<std::uint8_t>(FrameType::kReply)) {
    return CorruptError("unknown frame type");
  }
  return static_cast<FrameType>(tag);
}

Result<RequestFrameView> DecodeRequestView(BytesView data) {
  serde::Reader r(data);
  std::uint8_t tag = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(tag));
  if (tag != static_cast<std::uint8_t>(FrameType::kRequest)) {
    return CorruptError("unexpected frame type");
  }
  RequestFrameView frame;
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
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

}  // namespace proxy::rpc
