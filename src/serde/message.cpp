#include "serde/message.h"

#include "serde/reader.h"
#include "serde/wire.h"
#include "serde/writer.h"

namespace proxy::serde {

Bytes WrapEnvelope(Writer&& payload) {
  const std::size_t n = payload.size();
  // Checksum the chain in place, then gather it once, straight into the
  // framed buffer: the send path's single counted bulk copy.
  std::uint32_t crc = kCrc32cInit;
  payload.ForEachChunk(
      [&crc](BytesView v) { crc = Crc32cExtend(crc, v); });
  Bytes out;
  out.reserve(n + EnvelopeOverhead(n));
  PutFixed16(out, kEnvelopeMagic);
  out.push_back(kEnvelopeVersion);
  PutFixed32(out, Crc32cFinish(crc));
  PutVarint(out, n);
  payload.ForEachChunk([&out](BytesView v) {
    out.insert(out.end(), v.begin(), v.end());
  });
  CountWireCopy(n);
  return out;
}

Result<BytesView> UnwrapEnvelopeView(BytesView framed) {
  Reader r(framed);
  std::uint16_t magic = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU16(magic));
  if (magic != kEnvelopeMagic) return CorruptError("bad envelope magic");
  std::uint8_t version = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(version));
  if (version != kEnvelopeVersion) {
    return CorruptError("unsupported envelope version");
  }
  std::uint32_t crc = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU32(crc));
  BytesView payload;
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(payload));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  if (Crc32c(payload) != crc) {
    return CorruptError("envelope checksum mismatch");
  }
  return payload;
}

std::size_t EnvelopeOverhead(std::size_t payload_size) {
  // magic + version + crc + varint length prefix.
  std::size_t varint = 1;
  for (std::size_t v = payload_size; v >= 0x80; v >>= 7) ++varint;
  return 2 + 1 + 4 + varint;
}

}  // namespace proxy::serde
