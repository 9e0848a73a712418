// Serializing archive over one contiguous buffer.
//
// The encoder sizes its buffer for the common case and grows it at most
// once per bulk field. A writer starts with one kSlab-byte slab, which
// holds a message's header and its small fields; field encodes never
// regrow it from a single byte. A bulk copy that does not fit grows the
// buffer once, to what is already written plus the copy plus another
// slab of room for the fields that follow it (or to twice its capacity,
// if that is more). A message that knows its exact encoded size up front
// (an RPC frame) is allocated at that size instead: no slack, no growth.
// Take() moves the buffer out, so an encoded message copies each bulk
// field exactly once and never re-gathers what it holds. Those bulk
// copies are what tick serde::WireCopyCounter; field encodes are
// serialization, not copies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "serde/wire.h"

namespace proxy::serde {

/// Append-only encoder. Methods never fail; size limits are enforced at
/// the framing/transport boundary.
class Writer {
 public:
  /// The first allocation of a writer that does not know its message's
  /// size, and the room a bulk copy leaves behind it: enough for a
  /// header and its small fields. A 4 KiB slab would multiply the bytes
  /// a small call allocates; a smaller one regrows on most messages.
  static constexpr std::size_t kSlab = 64;

  /// Reserves one slab, or exactly `capacity` bytes for a message that
  /// knows its encoded size up front.
  explicit Writer(std::size_t capacity = kSlab) { buf_.reserve(capacity); }

  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v) { PutFixed16(buf_, v); }
  void WriteU32(std::uint32_t v) { PutFixed32(buf_, v); }
  void WriteU64(std::uint64_t v) { PutFixed64(buf_, v); }
  void WriteVarint(std::uint64_t v) { PutVarint(buf_, v); }
  void WriteSigned(std::int64_t v) { PutVarint(buf_, ZigZagEncode(v)); }
  void WriteBool(bool v) { buf_.push_back(v ? 1 : 0); }

  void WriteDouble(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    PutFixed64(buf_, bits);
  }

  /// Length-prefixed byte string.
  void WriteBytes(BytesView v) {
    PutVarint(buf_, v.size());
    AppendCopy(v);
  }

  void WriteString(std::string_view v) {
    PutVarint(buf_, v.size());
    AppendCopy(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()),
                         v.size()));
  }

  /// Moves the encoded bytes out, without a copy; the writer is empty
  /// afterwards.
  [[nodiscard]] Bytes Take() noexcept {
    Bytes out = std::move(buf_);
    buf_.clear();
    return out;
  }

 private:
  /// The counted bulk copy. Grows the buffer at most once per call, and
  /// at least geometrically, so a message of many bulk fields (a batch,
  /// a snapshot) still appends in amortized constant time.
  void AppendCopy(BytesView v) {
    if (v.empty()) return;
    CountWireCopy(v.size());
    if (buf_.capacity() - buf_.size() < v.size()) {
      buf_.reserve(
          std::max(buf_.size() + v.size() + kSlab, 2 * buf_.capacity()));
    }
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  Bytes buf_;
};

}  // namespace proxy::serde
