// Rule L7 (positive): a broken encoder/decoder pair. The decoder reads
// the args bytes before the method field, a one-field order drift in an
// otherwise faithful copy of the request frame's fixed layout. Reported
// at the first diverging decoder op.
//
// Not compiled — exercised by proxy_lint_test.
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
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(f.args));  // MARK:l7-drift
  PROXY_RETURN_IF_ERROR(Deserialize(r, f.method));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.deadline));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.attempt));
  PROXY_RETURN_IF_ERROR(r.ReadVarint(f.priority));
  return OkStatus();
}

}  // namespace rpc
