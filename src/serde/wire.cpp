#include "serde/wire.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace proxy::serde {

void PutFixed16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutFixed32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutFixed64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t GetFixed16(BytesView in, std::size_t pos) noexcept {
  return static_cast<std::uint16_t>(in[pos]) |
         static_cast<std::uint16_t>(in[pos + 1]) << 8;
}

std::uint32_t GetFixed32(BytesView in, std::size_t pos) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[pos + i]) << (8 * i);
  }
  return v;
}

std::uint64_t GetFixed64(BytesView in, std::size_t pos) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
  }
  return v;
}

std::size_t EncodeVarint(std::uint64_t v, std::uint8_t* out) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

void PutVarint(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, buf + EncodeVarint(v, buf));
}

bool GetVarint(BytesView in, std::size_t& pos, std::uint64_t& out) noexcept {
  std::uint64_t result = 0;
  int shift = 0;
  std::size_t p = pos;
  while (p < in.size() && shift < 64) {
    const std::uint8_t byte = in[p++];
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical 10th-byte overflow.
      if (shift == 63 && byte > 1) return false;
      pos = p;
      out = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or too long
}

namespace {

std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82f63b78;  // reversed Castagnoli
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)

// The SSE4.2 `crc32` instruction has a latency of three cycles but
// issues one per cycle, so three independent streams keep it busy. Each
// pass checksums three adjacent blocks of kBlockBytes separately, then
// folds them: the update is linear, so
//   crc(s, A B C) = shift(shift(crc(s, A)) ^ crc(0, B)) ^ crc(0, C)
// where shift(c) advances c over kBlockBytes zero bytes.
constexpr std::size_t kBlockBytes = detail::kCrc32cStripeBytes / 3;
static_assert(kBlockBytes * 3 == detail::kCrc32cStripeBytes &&
              kBlockBytes % 8 == 0);

// Envelope windows and the spans a sender checksums start at any offset.
std::uint64_t Load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// shift() is linear in the 32-bit state, so it is the XOR of the images
// of the state's set bits: table[i][b] is the image of byte value b at
// byte position i.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

__attribute__((target("sse4.2"))) ShiftTable MakeShiftTable() {
  std::array<std::uint32_t, 32> basis{};
  for (int bit = 0; bit < 32; ++bit) {
    std::uint64_t crc = std::uint64_t{1} << bit;
    for (std::size_t i = 0; i < kBlockBytes; i += 8) {
      crc = _mm_crc32_u64(crc, 0);
    }
    basis[bit] = static_cast<std::uint32_t>(crc);
  }
  ShiftTable table{};
  for (int i = 0; i < 4; ++i) {
    for (unsigned b = 1; b < 256; ++b) {
      // b without its lowest set bit, plus that bit's image.
      table[i][b] = table[i][b & (b - 1)] ^ basis[8 * i + __builtin_ctz(b)];
    }
  }
  return table;
}

std::uint32_t Shift(const ShiftTable& t, std::uint64_t crc) noexcept {
  return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
         t[2][(crc >> 16) & 0xff] ^ t[3][(crc >> 24) & 0xff];
}

__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t state, BytesView data) noexcept {
  static const ShiftTable kShift = MakeShiftTable();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc0 = state;
  for (; n >= detail::kCrc32cStripeBytes;
       n -= detail::kCrc32cStripeBytes, p += detail::kCrc32cStripeBytes) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlockBytes; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kBlockBytes + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlockBytes + i));
    }
    crc0 = Shift(kShift, Shift(kShift, crc0) ^ crc1) ^ crc2;
  }
  for (; n >= 8; n -= 8, p += 8) crc0 = _mm_crc32_u64(crc0, Load64(p));
  auto crc = static_cast<std::uint32_t>(crc0);
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t Crc32c(BytesView data) noexcept {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data));
}

std::uint32_t Crc32cExtend(std::uint32_t state, BytesView data) noexcept {
#if defined(__x86_64__)
  static const bool kHardware = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (kHardware) return Crc32cExtendSse42(state, data);
#endif
  return detail::Crc32cExtendTable(state, data);
}

std::uint32_t detail::Crc32cExtendTable(std::uint32_t state,
                                        BytesView data) noexcept {
  static const auto kTable = MakeCrcTable();
  for (const std::uint8_t b : data) {
    state = (state >> 8) ^ kTable[(state ^ b) & 0xff];
  }
  return state;
}

obs::Counter& WireCopyCounter() noexcept {
  static obs::Counter counter;
  return counter;
}

}  // namespace proxy::serde
