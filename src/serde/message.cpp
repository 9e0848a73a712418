#include "serde/message.h"

#include "serde/reader.h"
#include "serde/wire.h"

namespace proxy::serde {

Bytes WrapEnvelope(BytesView header, BytesView body) {
  const std::size_t n = header.size() + body.size();
  const std::uint32_t crc =
      Crc32cFinish(Crc32cExtend(Crc32cExtend(kCrc32cInit, header), body));
  Bytes out;
  out.reserve(n + EnvelopeOverhead(n));
  PutFixed16(out, kEnvelopeMagic);
  out.push_back(kEnvelopeVersion);
  PutFixed32(out, crc);
  PutVarint(out, n);
  // An empty span's data() may be null, which memmove must not see.
  if (!header.empty()) out.insert(out.end(), header.begin(), header.end());
  if (!body.empty()) out.insert(out.end(), body.begin(), body.end());
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
