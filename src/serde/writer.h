// Serializing archive over a buffer chain.
//
// The encoder appends into a chain of slab chunks instead of one flat
// vector: field encodes land in the current tail slab, large payloads
// are *adopted* as their own chunk (ownership moves, no copy). The bytes
// are gathered into one contiguous buffer exactly once, at the network
// boundary (Take() or the envelope layer's chunk walk) — the
// rethinkdb-style gather-on-send shape. Only that gather and explicit
// view copies tick serde::WireCopyCounter.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "serde/wire.h"

namespace proxy::serde {

/// Append-only encoder. Methods never fail; size limits are enforced at
/// the framing/transport boundary.
class Writer {
 public:
  /// Target slab size: a tail chunk that grows past this is sealed and a
  /// fresh slab started, so field encodes stay cache-friendly without
  /// ever re-copying what previous slabs hold.
  static constexpr std::size_t kChunkSize = 4096;

  /// Buffers below this are cheaper to copy into the tail slab than to
  /// carry as their own chunk (header + gather bookkeeping).
  static constexpr std::size_t kAdoptThreshold = 32;

  Writer() = default;
  explicit Writer(std::size_t reserve) { tail_.reserve(reserve); }

  void WriteU8(std::uint8_t v) { Tail().push_back(v); }
  void WriteU16(std::uint16_t v) { PutFixed16(Tail(), v); }
  void WriteU32(std::uint32_t v) { PutFixed32(Tail(), v); }
  void WriteU64(std::uint64_t v) { PutFixed64(Tail(), v); }
  void WriteVarint(std::uint64_t v) { PutVarint(Tail(), v); }
  void WriteSigned(std::int64_t v) { PutVarint(Tail(), ZigZagEncode(v)); }
  void WriteBool(bool v) { Tail().push_back(v ? 1 : 0); }

  void WriteDouble(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    PutFixed64(Tail(), bits);
  }

  /// Length-prefixed byte string (copying: the caller keeps `v`).
  void WriteBytes(BytesView v) {
    PutVarint(Tail(), v.size());
    AppendCopy(v);
  }

  /// Length-prefixed byte string, adopting the buffer: no copy, the
  /// chain takes ownership and the gather step emits it in place.
  void WriteBytes(Bytes&& v) {
    PutVarint(Tail(), v.size());
    AppendOwned(std::move(v));
  }

  void WriteString(std::string_view v) {
    PutVarint(Tail(), v.size());
    AppendCopy(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()),
                         v.size()));
  }

  /// Raw append without a length prefix (for already-framed payloads).
  void WriteRaw(BytesView v) { AppendCopy(v); }
  void WriteRaw(Bytes&& v) { AppendOwned(std::move(v)); }

  [[nodiscard]] std::size_t size() const noexcept {
    return sealed_size_ + tail_.size();
  }

  /// Walks the chain in wire order without flattening (incremental CRC,
  /// scatter-gather send).
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (const Bytes& chunk : chunks_) fn(View(chunk));
    if (!tail_.empty()) fn(View(tail_));
  }

  /// Gathers the chain into one contiguous buffer; the writer is empty
  /// afterwards. A single-chunk chain moves out copy-free; otherwise
  /// this is the one bulk copy of the send path and is counted.
  [[nodiscard]] Bytes Take() noexcept {
    if (chunks_.empty()) {
      sealed_size_ = 0;
      return std::move(tail_);
    }
    if (tail_.empty() && chunks_.size() == 1) {
      Bytes out = std::move(chunks_.front());
      chunks_.clear();
      sealed_size_ = 0;
      return out;
    }
    Bytes out;
    out.reserve(size());
    ForEachChunk([&out](BytesView v) {
      out.insert(out.end(), v.begin(), v.end());
    });
    CountWireCopy(out.size());
    chunks_.clear();
    tail_.clear();
    sealed_size_ = 0;
    return out;
  }

 private:
  /// The slab the next field encode appends to.
  Bytes& Tail() {
    if (tail_.size() >= kChunkSize) {
      SealTail();
      tail_.reserve(kChunkSize);
    }
    return tail_;
  }

  void SealTail() {
    if (tail_.empty()) return;
    sealed_size_ += tail_.size();
    chunks_.push_back(std::move(tail_));
    tail_.clear();
  }

  void AppendCopy(BytesView v) {
    if (v.empty()) return;
    CountWireCopy(v.size());
    Bytes& t = Tail();
    t.insert(t.end(), v.begin(), v.end());
  }

  void AppendOwned(Bytes&& v) {
    if (v.size() < kAdoptThreshold) {
      AppendCopy(View(v));
      return;
    }
    SealTail();
    sealed_size_ += v.size();
    chunks_.push_back(std::move(v));
  }

  std::vector<Bytes> chunks_;  // sealed slabs, in wire order
  Bytes tail_;                 // active slab
  std::size_t sealed_size_ = 0;
};

}  // namespace proxy::serde
