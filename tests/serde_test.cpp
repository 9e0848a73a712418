// Unit + property tests for the wire format and archives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/address.h"
#include "serde/message.h"
#include "serde/reader.h"
#include "serde/traits.h"
#include "serde/wire.h"
#include "serde/writer.h"

namespace proxy::serde {
namespace {

TEST(Wire, FixedWidthRoundTrip) {
  Bytes buf;
  PutFixed16(buf, 0xBEEF);
  PutFixed32(buf, 0xDEADBEEF);
  PutFixed64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf.size(), 14u);
  EXPECT_EQ(GetFixed16(View(buf), 0), 0xBEEF);
  EXPECT_EQ(GetFixed32(View(buf), 2), 0xDEADBEEF);
  EXPECT_EQ(GetFixed64(View(buf), 6), 0x0123456789ABCDEFULL);
  // Explicit little-endian layout.
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
}

TEST(Wire, VarintRoundTripEdgeValues) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 300, 16383, 16384,
      0xffffffffULL, 0xffffffffffffffffULL};
  for (const auto v : cases) {
    Bytes buf;
    PutVarint(buf, v);
    std::size_t pos = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(GetVarint(View(buf), pos, out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(VarintSize(v), buf.size()) << v;
  }
}

TEST(Wire, VarintSizes) {
  Bytes one, two, ten;
  PutVarint(one, 127);
  PutVarint(two, 128);
  PutVarint(ten, 0xffffffffffffffffULL);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(ten.size(), 10u);
}

TEST(Wire, TruncatedVarintRejected) {
  Bytes buf;
  PutVarint(buf, 1ULL << 40);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(GetVarint(View(buf), pos, out));
}

TEST(Wire, OverlongVarintRejected) {
  // Ten bytes of continuation with high garbage in byte 10.
  Bytes buf(9, 0x80);
  buf.push_back(0x7f);  // would need > 64 bits
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(GetVarint(View(buf), pos, out));
}

TEST(Wire, ZigZag) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  const std::int64_t cases[] = {0, 1, -1, 42, -42,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const auto v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
}

TEST(Wire, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value).
  const Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32c(View(data)), 0xE3069283u);
  EXPECT_EQ(Crc32c(BytesView{}), 0u);

  // RFC 3720 §B.4.
  Bytes ascending(32);
  Bytes descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::pair<Bytes, std::uint32_t> vectors[] = {
      {Bytes(32, 0x00), 0x8A9136AAu},
      {Bytes(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const auto& [bytes, expected] : vectors) {
    EXPECT_EQ(Crc32c(View(bytes)), expected);
    EXPECT_EQ(Crc32cFinish(detail::Crc32cExtendTable(kCrc32cInit, View(bytes))),
              expected);
  }
}

// Sender and receiver call the same CRC function, so a checksum that is
// wrong the same way on both sides still round-trips. These tests compare
// the dispatched Crc32cExtend with the byte-table reference instead.

Bytes RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (std::uint8_t& byte : b) byte = static_cast<std::uint8_t>(rng.NextU64());
  return b;
}

TEST(Wire, Crc32cMatchesReferenceAtShortLengthsAndOffsets) {
  const Bytes buf = RandomBytes(300 + 7, 1);
  for (const std::uint32_t state : {kCrc32cInit, 0x9E3779B9u}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 300; ++len) {
        const BytesView span(buf.data() + offset, len);
        ASSERT_EQ(Crc32cExtend(state, span),
                  detail::Crc32cExtendTable(state, span))
            << "offset " << offset << ", length " << len;
      }
    }
  }
}

TEST(Wire, Crc32cMatchesReferenceAroundStripeBoundaries) {
  constexpr std::size_t kStripe = detail::kCrc32cStripeBytes;
  const Bytes buf = RandomBytes(3 * kStripe + 16, 2);
  for (std::size_t stripes = 1; stripes <= 3; ++stripes) {
    for (std::size_t len = stripes * kStripe - 16;
         len <= stripes * kStripe + 16; ++len) {
      const BytesView span(buf.data(), len);
      ASSERT_EQ(Crc32cExtend(kCrc32cInit, span),
                detail::Crc32cExtendTable(kCrc32cInit, span))
          << "length " << len;
    }
  }
}

TEST(Wire, Crc32cMatchesReferenceAcrossRandomSplits) {
  constexpr std::size_t kStripe = detail::kCrc32cStripeBytes;
  const Bytes buf = RandomBytes(64 * 1024, 3);
  const std::uint32_t whole = detail::Crc32cExtendTable(kCrc32cInit, View(buf));
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    // One cut strictly inside a stripe, then up to 15 anywhere.
    std::vector<std::size_t> cuts{
        0, buf.size(),
        kStripe * rng.UniformU64(buf.size() / kStripe) + 1 +
            rng.UniformU64(kStripe - 1)};
    for (auto extra = rng.UniformU64(16); extra > 0; --extra) {
      cuts.push_back(rng.UniformU64(buf.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t state = kCrc32cInit;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      state = Crc32cExtend(
          state, BytesView(buf.data() + cuts[i - 1], cuts[i] - cuts[i - 1]));
    }
    ASSERT_EQ(state, whole) << "trial " << trial;
  }
}

template <typename T>
T RoundTrip(const T& value) {
  const Bytes encoded = EncodeToBytes(value);
  auto decoded = DecodeFromBytes<T>(View(encoded));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

TEST(Traits, PrimitivesRoundTrip) {
  EXPECT_EQ(RoundTrip<std::uint8_t>(200), 200);
  EXPECT_EQ(RoundTrip<std::uint16_t>(0xBEEF), 0xBEEF);
  EXPECT_EQ(RoundTrip<std::uint32_t>(0xDEADBEEF), 0xDEADBEEFu);
  EXPECT_EQ(RoundTrip<std::uint64_t>(1ULL << 60), 1ULL << 60);
  EXPECT_EQ(RoundTrip<std::int32_t>(-12345), -12345);
  EXPECT_EQ(RoundTrip<std::int64_t>(-(1LL << 50)), -(1LL << 50));
  EXPECT_EQ(RoundTrip<bool>(true), true);
  EXPECT_EQ(RoundTrip<bool>(false), false);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(3.14159), 3.14159);
  EXPECT_EQ(RoundTrip<std::string>("hello"), "hello");
  EXPECT_EQ(RoundTrip<std::string>(""), "");
}

TEST(Traits, ContainersRoundTrip) {
  EXPECT_EQ(RoundTrip(std::vector<std::uint32_t>{1, 2, 3}),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(RoundTrip(std::vector<std::string>{"a", "bb", ""}),
            (std::vector<std::string>{"a", "bb", ""}));
  EXPECT_EQ(RoundTrip(std::optional<std::string>{}), std::nullopt);
  EXPECT_EQ(RoundTrip(std::optional<std::string>{"x"}),
            std::optional<std::string>{"x"});
  const std::map<std::string, std::uint64_t> m{{"a", 1}, {"b", 2}};
  EXPECT_EQ(RoundTrip(m), m);
  const std::pair<std::string, bool> p{"k", true};
  EXPECT_EQ(RoundTrip(p), p);
  EXPECT_EQ(RoundTrip(Bytes{1, 2, 3}), (Bytes{1, 2, 3}));
}

TEST(Traits, NestedContainersRoundTrip) {
  const std::vector<std::vector<std::string>> nested{{"a"}, {}, {"b", "c"}};
  EXPECT_EQ(RoundTrip(nested), nested);
  const std::vector<std::pair<std::string, std::optional<std::uint32_t>>>
      complex_value{{"x", 1u}, {"y", std::nullopt}};
  EXPECT_EQ(RoundTrip(complex_value), complex_value);
}

struct Inner {
  std::uint32_t a = 0;
  std::string b;
  PROXY_SERDE_FIELDS(a, b)
  friend bool operator==(const Inner&, const Inner&) = default;
};

struct Outer {
  Inner inner;
  std::vector<Inner> list;
  std::optional<Inner> maybe;
  bool flag = false;
  PROXY_SERDE_FIELDS(inner, list, maybe, flag)
  friend bool operator==(const Outer&, const Outer&) = default;
};

TEST(Traits, WireStructsNestRoundTrip) {
  Outer o;
  o.inner = Inner{7, "seven"};
  o.list = {Inner{1, "one"}, Inner{2, "two"}};
  o.maybe = Inner{3, "three"};
  o.flag = true;
  EXPECT_EQ(RoundTrip(o), o);
}

TEST(Traits, IdsRoundTrip) {
  EXPECT_EQ(RoundTrip(NodeId(5)), NodeId(5));
  EXPECT_EQ(RoundTrip(PortId(0xffffffff)), PortId(0xffffffff));
  EXPECT_EQ(RoundTrip(InterfaceIdOf("foo")), InterfaceIdOf("foo"));
  const ObjectId id{0x1111, 0x2222};
  EXPECT_EQ(RoundTrip(id), id);
  const net::Address addr{NodeId(3), PortId(9)};
  EXPECT_EQ(RoundTrip(addr), addr);
}

enum class Color : std::uint8_t { kRed = 1, kBlue = 2 };

TEST(Traits, EnumsRoundTrip) {
  EXPECT_EQ(RoundTrip(Color::kBlue), Color::kBlue);
}

TEST(Traits, TrailingGarbageRejected) {
  Bytes encoded = EncodeToBytes(std::string("hi"));
  encoded.push_back(0x00);
  const auto decoded = DecodeFromBytes<std::string>(View(encoded));
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorrupt);
}

TEST(Traits, TruncationRejectedEverywhere) {
  Outer o;
  o.inner = Inner{7, "seven"};
  o.list = {Inner{1, "one"}};
  const Bytes full = EncodeToBytes(o);
  // Every strict prefix must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const BytesView prefix(full.data(), cut);
    const auto decoded = DecodeFromBytes<Outer>(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix length " << cut;
  }
}

TEST(Traits, HostileLengthDoesNotAllocate) {
  // A vector claiming 2^60 elements but providing none.
  Bytes evil;
  PutVarint(evil, 1ULL << 60);
  const auto decoded = DecodeFromBytes<std::vector<std::string>>(View(evil));
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorrupt);
}

TEST(Traits, RandomBitFlipsNeverCrash) {
  Outer o;
  o.inner = Inner{42, "the answer"};
  o.list = {Inner{1, "one"}, Inner{2, "two"}, Inner{3, "three"}};
  o.maybe = Inner{9, "nine"};
  const Bytes good = EncodeToBytes(o);

  Rng rng(1234);
  int decode_failures = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Bytes bad = good;
    const auto byte_idx = rng.UniformU64(bad.size());
    bad[byte_idx] ^= static_cast<std::uint8_t>(1u << rng.UniformU64(8));
    const auto decoded = DecodeFromBytes<Outer>(View(bad));
    if (!decoded.ok()) ++decode_failures;
    // OK results are acceptable (the flip may hit a value byte) — the
    // invariant is "no crash, no UB", enforced by running at all.
  }
  EXPECT_GT(decode_failures, 0);
}

Bytes Wrap(const Bytes& payload) { return WrapEnvelope({}, View(payload)); }

TEST(Envelope, RoundTrip) {
  const Bytes payload = ToBytes("payload bytes");
  const Bytes framed = Wrap(payload);
  EXPECT_EQ(framed.size(), payload.size() + EnvelopeOverhead(payload.size()));
  const auto unwrapped = UnwrapEnvelopeView(View(framed));
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(Bytes(unwrapped->begin(), unwrapped->end()), payload);
}

TEST(Envelope, DetectsCorruption) {
  const Bytes payload = ToBytes("payload bytes");
  Bytes framed = Wrap(payload);
  // Flip a payload bit: CRC must catch it.
  framed[framed.size() - 1] ^= 0x01;
  EXPECT_EQ(UnwrapEnvelopeView(View(framed)).status().code(),
            StatusCode::kCorrupt);
}

TEST(Envelope, RejectsBadMagicAndVersion) {
  Bytes framed = Wrap(ToBytes("x"));
  Bytes bad_magic = framed;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(UnwrapEnvelopeView(View(bad_magic)).ok());
  Bytes bad_version = framed;
  bad_version[2] = 99;
  EXPECT_FALSE(UnwrapEnvelopeView(View(bad_version)).ok());
  EXPECT_FALSE(UnwrapEnvelopeView(BytesView{}).ok());
}

TEST(Envelope, LargeChainRoundTripsAndEveryBlockIsChecked) {
  // The sender checksums its header and body where they lie, as two
  // spans. Neither length is a multiple of 8, so the sender's stripes
  // straddle the boundary between them.
  const Bytes payload = RandomBytes(64 * 1024, 5);
  constexpr std::size_t kHeaderEnd = 1001;
  const Bytes framed =
      WrapEnvelope(BytesView(payload.data(), kHeaderEnd),
                   BytesView(payload.data() + kHeaderEnd,
                             payload.size() - kHeaderEnd));
  const auto unwrapped = UnwrapEnvelopeView(View(framed));
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(Bytes(unwrapped->begin(), unwrapped->end()), payload);

  // The receiver checksums the payload as one span: 16 full stripes,
  // then a single-stream tail. Flip a bit in each block of stripe 8 and
  // one in the tail.
  constexpr std::size_t kStripe = detail::kCrc32cStripeBytes;
  constexpr std::size_t kBlock = kStripe / 3;
  constexpr std::size_t kMiddle = 8 * kStripe;
  const std::size_t tail_byte = payload.size() - 3;
  ASSERT_GE(tail_byte, payload.size() / kStripe * kStripe);
  const std::size_t start = framed.size() - payload.size();
  for (const std::size_t at : {kMiddle + 5, kMiddle + kBlock + 700,
                               kMiddle + 3 * kBlock - 1, tail_byte}) {
    Bytes bad = framed;
    bad[start + at] ^= 0x10;
    EXPECT_EQ(UnwrapEnvelopeView(View(bad)).status().code(),
              StatusCode::kCorrupt)
        << "bit flip at payload byte " << at;
  }
}

// Property sweep: random nested values round-trip across seeds.
class SerdePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdePropertyTest, RandomOuterRoundTrips) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Outer o;
    o.inner.a = static_cast<std::uint32_t>(rng.NextU64());
    o.inner.b = std::string(rng.UniformU64(64), 'x');
    const auto n = rng.UniformU64(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      o.list.push_back(Inner{static_cast<std::uint32_t>(rng.NextU64()),
                             std::string(rng.UniformU64(32), 'y')});
    }
    if (rng.Chance(0.5)) o.maybe = Inner{1, "m"};
    o.flag = rng.Chance(0.5);
    EXPECT_EQ(RoundTrip(o), o);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Reader, ReadRawAndPosition) {
  Bytes buf = ToBytes("abcdef");
  Reader r(View(buf));
  BytesView head;
  ASSERT_TRUE(r.ReadRaw(2, head).ok());
  EXPECT_EQ(ToString(head), "ab");
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.remaining(), 4u);
  BytesView rest;
  ASSERT_TRUE(r.ReadRaw(r.remaining(), rest).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_FALSE(r.ReadRaw(1, head).ok());
}

TEST(Reader, BoolByteRangeChecked) {
  Bytes buf{2};
  Reader r(View(buf));
  bool b = false;
  EXPECT_EQ(r.ReadBool(b).code(), StatusCode::kCorrupt);
}

TEST(Writer, TakeResetsBuffer) {
  Writer w;
  w.WriteU32(7);
  const Bytes first = w.Take();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(w.Take().empty());
}

// --- writer sizing -------------------------------------------------------

Bytes BigPayload(std::size_t n, std::uint8_t seed = 7) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i);
  }
  return b;
}

TEST(Writer, SmallFieldsStayInTheFirstSlab) {
  // A header's worth of field encodes lands in the first slab: no
  // regrowth from one byte, and Take() hands that slab out.
  Writer w;
  w.WriteU8(0x01);
  w.WriteVarint(~0ULL);  // a ten-byte nonce
  w.WriteVarint(42);
  w.WriteU64(0x0102030405060708ULL);
  w.WriteU64(0x1112131415161718ULL);
  w.WriteString("small");
  w.WriteBool(true);
  const Bytes out = w.Take();
  EXPECT_EQ(out.size(), 1u + 10 + 1 + 8 + 8 + 6 + 1);
  EXPECT_EQ(out.capacity(), Writer::kSlab);
}

TEST(WriterChain, SmallOwnedBufferFoldsIntoTail) {
  // A bulk field smaller than the room left is copied (and counted) into
  // the writer's one buffer, without a new allocation.
  const Bytes tiny = BigPayload(31);
  Writer w;
  const auto before = WireCopyCounter().value();
  w.WriteBytes(tiny);
  EXPECT_EQ(WireCopyCounter().value(), before + 31);
  EXPECT_EQ(w.Take().capacity(), Writer::kSlab);
}

struct BulkThenSmall {
  std::string bulk;
  std::uint64_t tag = 0;
  PROXY_SERDE_FIELDS(bulk, tag)
};

TEST(Writer, EncodeToBytesCopiesALargeFieldOnce) {
  // The string does not fit the first slab, so the writer grows once:
  // to its length prefix, the string, and one slab of room for the field
  // after it. Nothing is gathered or copied again.
  BulkThenSmall v;
  v.bulk = ToString(View(BigPayload(64 * 1024)));
  v.tag = 0x2A;
  const auto before = WireCopyCounter().value();
  const Bytes out = EncodeToBytes(v);
  EXPECT_EQ(WireCopyCounter().value(), before + v.bulk.size());
  constexpr std::size_t kPrefix = 3;  // varint of 65536
  EXPECT_EQ(out.size(), kPrefix + v.bulk.size() + 1);
  EXPECT_EQ(out.capacity(), kPrefix + v.bulk.size() + Writer::kSlab);
  const auto decoded = DecodeFromBytes<BulkThenSmall>(View(out));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->bulk, v.bulk);
  EXPECT_EQ(decoded->tag, v.tag);
}

TEST(Writer, GrowthKeepsTheWireBytes) {
  // Growing mid-message keeps what was written and appends in order: the
  // bytes are the ones a hand-built flat encoding gives.
  const Bytes payload = BigPayload(Writer::kSlab * 40 + 17);
  Writer w;
  w.WriteU8(0xAB);
  w.WriteBytes(View(payload));
  w.WriteVarint(99);
  Bytes flat{0xAB};
  PutVarint(flat, payload.size());
  flat.insert(flat.end(), payload.begin(), payload.end());
  PutVarint(flat, 99);
  EXPECT_EQ(w.Take(), flat);
}

TEST(WriterChain, SingleChunkTakeMovesOutWithoutCopy) {
  // The writer is one buffer: Take() moves it out and copies nothing.
  Writer w;
  w.WriteBytes(View(BigPayload(Writer::kSlab * 3)));
  const auto before = WireCopyCounter().value();
  const Bytes out = w.Take();
  EXPECT_EQ(WireCopyCounter().value(), before);
  EXPECT_EQ(out.size(), 2 + Writer::kSlab * 3);  // varint prefix, bytes
}

TEST(Envelope, TwoSpansChecksumAsOne) {
  // The datagram header and the frame are checksummed where they lie;
  // the envelope is the one a single span of both would get, and the
  // copy into it is counted once.
  const Bytes header = BigPayload(3, 1);
  const Bytes body = BigPayload(5000, 2);
  Bytes joined = header;
  joined.insert(joined.end(), body.begin(), body.end());
  const auto before = WireCopyCounter().value();
  const Bytes framed = WrapEnvelope(View(header), View(body));
  EXPECT_EQ(WireCopyCounter().value(), before + joined.size());
  EXPECT_EQ(framed, WrapEnvelope({}, View(joined)));
}

// --- zero-length reads (UBSan regression) ------------------------------
//
// A zero-length string/bytes field whose varint is the last byte of the
// buffer used to form `data + pos` pointer arithmetic on a possibly-null
// base; under UBSan that aborts. The decode must stay a no-op.

TEST(Reader, ZeroLengthStringAtBufferEndDecodesEmpty) {
  Bytes buf;
  PutVarint(buf, 0);  // empty string, nothing after it
  Reader r(View(buf));
  std::string out = "stale";
  ASSERT_TRUE(r.ReadString(out).ok());
  EXPECT_TRUE(out.empty()) << "previous contents must be cleared";
  EXPECT_TRUE(r.AtEnd());
}

TEST(Reader, ZeroLengthBytesFromEmptyBufferDecodesEmpty) {
  // Reading a zero-length payload whose varint ends the buffer must not
  // form one-past-one-past-the-end pointers.
  Bytes buf;
  PutVarint(buf, 0);
  Reader r(BytesView(buf.data(), buf.size()));
  Bytes out{1, 2, 3};
  ASSERT_TRUE(r.ReadBytes(out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(Reader, ReadBytesViewBorrowsWithoutCopy) {
  Writer w;
  const Bytes payload = BigPayload(512);
  w.WriteBytes(View(payload));
  const Bytes encoded = w.Take();
  Reader r(View(encoded));
  BytesView borrowed;
  const auto before = WireCopyCounter().value();
  ASSERT_TRUE(r.ReadBytesView(borrowed).ok());
  EXPECT_EQ(WireCopyCounter().value(), before);
  ASSERT_EQ(borrowed.size(), payload.size());
  EXPECT_GE(borrowed.data(), encoded.data());
  EXPECT_LE(borrowed.data() + borrowed.size(),
            encoded.data() + encoded.size())
      << "the view must alias the encoded buffer, not a copy";
  EXPECT_EQ(Bytes(borrowed.begin(), borrowed.end()), payload);
}

}  // namespace
}  // namespace proxy::serde
