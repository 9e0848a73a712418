// Rule L7 (negative): a faithful encoder/decoder pair in the shape of
// the request frame's fixed layout — same op kinds, same order, same
// field names. Must produce zero findings. Not compiled — exercised by
// proxy_lint_test.
#include "serde/reader.h"
#include "serde/writer.h"

namespace rpc {

struct ProbeFrame {
  std::uint8_t kind;
  std::string method;
  BytesView args;
  std::uint64_t deadline;
  std::uint64_t attempt;
  std::uint64_t priority;
};

void EncodeProbe(serde::Writer& w, const ProbeFrame& f) {
  w.WriteU8(f.kind);
  Serialize(w, f.method);
  w.WriteBytes(f.args);
  w.WriteVarint(f.deadline);
  w.WriteVarint(f.attempt);
  w.WriteVarint(f.priority);
}

Status DecodeProbe(serde::Reader& r, ProbeFrame& f) {
  PROXY_RETURN_IF_ERROR(r.ReadU8(f.kind));
  PROXY_RETURN_IF_ERROR(Deserialize(r, f.method));
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(f.args));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.deadline));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.attempt));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.priority));
  return OkStatus();
}

}  // namespace rpc
