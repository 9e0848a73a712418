// Message envelope.
//
// Every datagram the runtime puts on the (simulated) wire is wrapped in
// an envelope carrying a magic number, a format version and a CRC, so a
// receiver can reject foreign, stale, or corrupted traffic before
// interpreting a single payload byte. Corruption injection in tests
// exercises this path.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace proxy::serde {

inline constexpr std::uint16_t kEnvelopeMagic = 0x5053;  // "PS"
inline constexpr std::uint8_t kEnvelopeVersion = 1;

/// Wraps `header` followed by `body` in an envelope:
/// magic(2) version(1) crc(4) len payload, where payload is the two
/// spans back to back. Checksums both spans where they lie and copies
/// them straight into the framed output: the datagram copy, counted
/// once. The caller keeps its buffers.
Bytes WrapEnvelope(BytesView header, BytesView body);

/// Validates and strips the envelope. The returned payload is a window
/// of `framed`, valid only while the caller's buffer lives. No copy —
/// the receive path narrows its arrival buffer instead of duplicating it.
Result<BytesView> UnwrapEnvelopeView(BytesView framed);

/// Size overhead added by WrapEnvelope for a payload of `n` bytes.
std::size_t EnvelopeOverhead(std::size_t payload_size);

}  // namespace proxy::serde
