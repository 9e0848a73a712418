// Wire-format primitives.
//
// The format is explicitly little-endian with LEB128 varints, so encoded
// bytes mean the same thing on every (simulated) node regardless of host
// architecture — the marshalling concern the RPC literature calls
// "ensuring addresses and representations have a valid interpretation at
// the remote site".
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace proxy::serde {

/// Appends a fixed-width little-endian integer.
void PutFixed16(Bytes& out, std::uint16_t v);
void PutFixed32(Bytes& out, std::uint32_t v);
void PutFixed64(Bytes& out, std::uint64_t v);

/// Reads a fixed-width little-endian integer at `pos`; caller checks
/// bounds beforehand.
std::uint16_t GetFixed16(BytesView in, std::size_t pos) noexcept;
std::uint32_t GetFixed32(BytesView in, std::size_t pos) noexcept;
std::uint64_t GetFixed64(BytesView in, std::size_t pos) noexcept;

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Length of `v`'s LEB128 encoding (1..kMaxVarintBytes).
constexpr std::size_t VarintSize(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Writes `v` as an LEB128 unsigned varint at `out`, which has room for
/// kMaxVarintBytes; returns the encoding's length.
std::size_t EncodeVarint(std::uint64_t v, std::uint8_t* out) noexcept;

/// Appends `v` as a varint.
void PutVarint(Bytes& out, std::uint64_t v);

/// Decodes a varint at `pos`; on success advances `pos` and returns true.
bool GetVarint(BytesView in, std::size_t& pos, std::uint64_t& out) noexcept;

/// ZigZag mapping for signed values.
constexpr std::uint64_t ZigZagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t ZigZagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32 (Castagnoli polynomial), used by the frame layer to detect
/// corruption injected by tests.
///
/// On x86-64 CPUs with SSE4.2 (checked once, at first use) the checksum
/// runs the `crc32` instruction over three interleaved 8-byte streams
/// per 4080-byte stripe and folds them with a zero-shift table: 16-20
/// GiB/s on 64 KiB buffers (BM_Crc32c, 4-core Xeon, -O2). Other CPUs run
/// the portable byte-table loop, ~300 MiB/s on the same machine. Both
/// give identical checksums.
std::uint32_t Crc32c(BytesView data) noexcept;

/// Incremental CRC-32C: extends a running checksum with another span, so
/// the framing layer can checksum a header and a body where they lie,
/// without joining them first.
/// Start from kCrc32cInit and finish with Crc32cFinish.
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;
std::uint32_t Crc32cExtend(std::uint32_t state, BytesView data) noexcept;
constexpr std::uint32_t Crc32cFinish(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

namespace detail {

/// Bytes the hardware CRC path consumes per pass of its three streams;
/// shorter spans, and what a span leaves past its last full stripe, run
/// through a single stream.
inline constexpr std::size_t kCrc32cStripeBytes = 3 * 1360;

/// The portable byte-table CRC-32C loop: Crc32cExtend's path on CPUs
/// without SSE4.2, and the reference the tests check the fast path
/// against.
std::uint32_t Crc32cExtendTable(std::uint32_t state, BytesView data) noexcept;

}  // namespace detail

/// Process-global tally of payload bytes memcpy'd through the
/// marshalling -> framing -> transport path (bulk copies only: field
/// encoding into a writer's slab is serialization, not a copy, and a
/// view handed down a layer copies nothing). The wire benches
/// report deltas of this counter as bytes-copied-per-op, the number the
/// perf trajectory in BENCH_wire.json tracks. Deliberately NOT attached
/// to any per-Runtime MetricsRegistry: it is per-process and monotonic,
/// which would break the byte-identical replay gates.
obs::Counter& WireCopyCounter() noexcept;

inline void CountWireCopy(std::size_t n) noexcept { WireCopyCounter().Inc(n); }

}  // namespace proxy::serde
