// Wire coverage for the RPC frames. The request frame has one fixed
// layout (rpc/frame.h), pinned byte for byte below; the other tests
// check that every field round-trips and that a truncated, over-long or
// out-of-range frame fails cleanly — never crashes, never hangs, never
// decodes as something else.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>

#include "common/rng.h"
#include "rpc/frame.h"
#include "serde/traits.h"
#include "services/shard_map.h"

namespace proxy::rpc {
namespace {

/// A frame borrows its args; the samples borrow these.
const Bytes kSampleArgs = {1, 2, 3, 4, 5};

RequestFrame SampleRequest() {
  RequestFrame frame;
  frame.call = CallId{0xABCDEF0123456789ULL, 42};
  frame.object = ObjectId{7, 0x1122334455667788ULL};
  frame.method = 3;
  frame.args = View(kSampleArgs);
  frame.deadline = Milliseconds(250);
  return frame;
}

RequestFrame SampleTracedRequest() {
  RequestFrame frame = SampleRequest();
  frame.trace.trace_id = 0x1111222233334444ULL;
  frame.trace.span_id = 0x5555666677778888ULL;
  frame.trace.parent_span_id = 0x9999AAAABBBBCCCCULL;
  return frame;
}

void ExpectFieldsMatch(const RequestFrame& got, const RequestFrame& want) {
  EXPECT_EQ(got.call, want.call);
  EXPECT_EQ(got.object, want.object);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(Bytes(got.args.begin(), got.args.end()),
            Bytes(want.args.begin(), want.args.end()));
  EXPECT_EQ(got.deadline, want.deadline);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.priority, want.priority);
}

TEST(FrameRoundtrip, RequestLayoutIsPinned) {
  // No version number guards the layout, so an accidental change to it
  // must fail here. Small field values keep every byte legible.
  RequestFrame frame;
  frame.call = CallId{7, 42};
  frame.object = ObjectId{1, 2};
  frame.method = 3;
  const Bytes args = {0xA1, 0xA2, 0xA3};
  frame.args = View(args);
  frame.deadline = 300;
  frame.trace = {0x11, 0x22, 0x33};
  frame.priority = Priority::kLow;
  const Bytes wire = EncodeRequest(frame);
  const Bytes golden = {
      0x01,                    // tag: request
      0x07, 0x2A,              // call: client nonce, seq (varints)
      0x01, 0, 0, 0, 0, 0, 0, 0,  // object.hi (fixed64, little-endian)
      0x02, 0, 0, 0, 0, 0, 0, 0,  // object.lo
      0x03,                    // method
      0x03, 0xA1, 0xA2, 0xA3,  // args: length, bytes
      0xAC, 0x02,              // deadline: 300 as a varint
      0x11, 0x22, 0x33,        // trace_id, span_id, parent_span_id
      0x02,                    // priority: kLow
  };
  EXPECT_EQ(wire, golden);

  // The pinned bytes decode back to the frame, with `args` borrowed as
  // a window of the buffer, not copied.
  const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectFieldsMatch(*decoded, frame);
  EXPECT_EQ(decoded->args.data(), wire.data() + 21);
}

TEST(FrameRoundtrip, RoundTripsDeadline) {
  const RequestFrame frame = SampleRequest();
  const Bytes wire = EncodeRequest(frame);
  const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectFieldsMatch(*decoded, frame);
}

TEST(FrameRoundtrip, ZeroDeadlineMeansNone) {
  RequestFrame frame = SampleRequest();
  frame.deadline = 0;
  const Bytes wire = EncodeRequest(frame);
  const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline, 0u);
}

TEST(FrameRoundtrip, RoundTripsTraceContext) {
  const RequestFrame frame = SampleTracedRequest();
  const Bytes wire = EncodeRequest(frame);
  const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectFieldsMatch(*decoded, frame);
  EXPECT_TRUE(decoded->trace.active());
}

TEST(FrameRoundtrip, UntracedFrameDecodesInactive) {
  const Bytes wire = EncodeRequest(SampleRequest());  // trace all-zero
  const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace.active());
}

TEST(FrameRoundtrip, RoundTripsEveryPriority) {
  for (const Priority p :
       {Priority::kHigh, Priority::kNormal, Priority::kLow}) {
    RequestFrame frame = SampleTracedRequest();
    frame.priority = p;
    const Bytes wire = EncodeRequest(frame);
    const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->priority, p) << PriorityName(p);
    EXPECT_EQ(decoded->trace, frame.trace)
        << "priority must not disturb the fields before it";
  }
}

TEST(FrameRoundtrip, OutOfRangePriorityIsCorrupt) {
  // The priority lattice has exactly kPriorityLevels values; a frame
  // claiming a level beyond it is corruption, not an extension. The
  // priority is the frame's last byte.
  Bytes wire = EncodeRequest(SampleRequest());
  ASSERT_EQ(wire.back(), static_cast<std::uint8_t>(Priority::kNormal));
  wire.back() = kPriorityLevels;  // first invalid level
  EXPECT_FALSE(DecodeRequestView(View(wire)).ok());
}

TEST(FrameRoundtrip, TruncatedPriorityRequestNeverDecodesAsValid) {
  // The priority byte is the very last byte of the frame; every
  // truncation point — including just that byte — must fail the whole
  // decode (a frame with its priority sheared off is corrupt, not
  // "normal priority").
  RequestFrame frame = SampleTracedRequest();
  frame.priority = Priority::kLow;
  const Bytes full = EncodeRequest(frame);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeRequestView(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
  const Result<RequestFrameView> whole = DecodeRequestView(View(full));
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->priority, Priority::kLow);
}

TEST(FrameRoundtrip, ReplyFrameRoundTripsRetryAfter) {
  // The pushback hint must survive the wire exactly: the client's
  // backoff is seeded from it.
  ReplyFrame reply;
  reply.call = CallId{0xD00F, 3};
  reply.code = StatusCode::kResourceExhausted;
  reply.error_message = "admission queue full";
  reply.retry_after = Milliseconds(15);
  const Bytes wire = EncodeReply(reply);
  const Result<ReplyFrame> decoded = DecodeReply(View(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->retry_after, Milliseconds(15));
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

TEST(FrameRoundtrip, TruncatedTracedRequestNeverDecodesAsValid) {
  // The trace triple sits just before the priority; every truncation
  // point inside it must fail the whole decode (a frame with half a
  // trace is a corrupt frame, not an untraced one).
  const Bytes full = EncodeRequest(SampleTracedRequest());
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeRequestView(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequestView(View(full)).ok());
}

TEST(FrameRoundtrip, ReplyFrameRoundTrips) {
  ReplyFrame reply;
  reply.call = CallId{99, 7};
  reply.code = StatusCode::kFailedPrecondition;
  reply.error_message = "held elsewhere";
  const Bytes wire = EncodeReply(reply);
  const Result<ReplyFrame> decoded = DecodeReply(View(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->call, reply.call);
  EXPECT_EQ(decoded->code, reply.code);
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

TEST(FrameRoundtrip, TruncatedRequestNeverDecodesAsValid) {
  const Bytes full = EncodeRequest(SampleRequest());
  // Every strict prefix must be rejected: a truncated frame that decoded
  // "successfully" would be silent wire corruption.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Result<RequestFrameView> decoded =
        DecodeRequestView(BytesView(full.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequestView(View(full)).ok());
}

TEST(FrameRoundtrip, TruncatedReplyNeverDecodesAsValid) {
  ReplyFrame reply;
  reply.call = CallId{0x1234, 56};
  const Bytes result = {9, 8, 7, 6};
  reply.result = View(result);
  const Bytes full = EncodeReply(reply);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeReply(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
}

TEST(FrameRoundtrip, RandomCorruptionFuzzNeverCrashes) {
  Rng rng(2026);
  const Bytes base = EncodeRequest(SampleRequest());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformU64(255));
    }
    // Must terminate with ok-or-error; the decoded value (if any) need
    // not match, corruption rejection end-to-end is the CRC envelope's
    // job one transport layer below.
    (void)DecodeRequestView(View(mutated));
    (void)DecodeReply(View(mutated));
  }
}

TEST(FrameRoundtrip, BorrowedDecodeRejectsEveryTruncation) {
  // Byte-boundary fuzz of the zero-copy decode path over a frame whose
  // args need a two-byte length prefix: every strict prefix must fail
  // cleanly (no crash, no stale view). Run under ASan/UBSan in the
  // sanitizer preset, this is the regression net for the borrowed
  // reader's bounds handling.
  RequestFrame frame = SampleTracedRequest();
  const Bytes args(200, 0x5A);
  frame.args = View(args);
  const Bytes full = EncodeRequest(frame);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Result<RequestFrameView> decoded =
        DecodeRequestView(BytesView(full.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequestView(View(full)).ok());
}

TEST(FrameRoundtrip, TrailingBytesAreCorrupt) {
  // Every field of the layout is mandatory and nothing may follow the
  // last one: a byte after the priority is corruption.
  Bytes wire = EncodeRequest(SampleRequest());
  wire.push_back(0x00);
  EXPECT_FALSE(DecodeRequestView(View(wire)).ok());
}

TEST(FrameRoundtrip, RandomFramesRoundTripUnderRandomDeadlines) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    RequestFrame frame;
    frame.call = CallId{rng.UniformU64(~0ULL), rng.UniformU64(1 << 20)};
    frame.object = ObjectId{static_cast<std::uint32_t>(rng.UniformU64(100)),
                            rng.UniformU64(~0ULL)};
    frame.method = static_cast<std::uint32_t>(rng.UniformU64(16));
    Bytes args(rng.UniformU64(64));
    for (auto& b : args) b = static_cast<std::uint8_t>(rng.UniformU64(256));
    frame.args = View(args);
    frame.deadline = rng.UniformU64(Seconds(10));
    frame.trace.trace_id = rng.UniformU64(~0ULL);
    frame.trace.span_id = rng.UniformU64(~0ULL);
    frame.trace.parent_span_id = rng.UniformU64(~0ULL);
    frame.priority = static_cast<Priority>(rng.UniformU64(kPriorityLevels));
    const Bytes wire = EncodeRequest(frame);
    const Result<RequestFrameView> decoded = DecodeRequestView(View(wire));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectFieldsMatch(*decoded, frame);
  }
}

TEST(FrameRoundtrip, EncodedFramesCarryNoSlack) {
  // Both frames are allocated at their exact encoded size: the client
  // keeps each request until its reply and the server keeps each reply
  // in its reply cache, so slack would be held for every call. Field
  // values span every varint length, and one bulk field is 70,000 bytes.
  Rng rng(91);
  auto any = [&rng] { return rng.UniformU64(~0ULL) >> rng.UniformU64(64); };
  const StatusCode codes[] = {StatusCode::kOk, StatusCode::kObjectMoved,
                              StatusCode::kResourceExhausted,
                              StatusCode::kTimeout};
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes bulk(trial == 0 ? 70000 : rng.UniformU64(300), 0x5A);
    RequestFrame request;
    request.call = CallId{any(), any()};
    request.object = ObjectId{any(), any()};
    request.method = static_cast<std::uint32_t>(any());
    request.args = View(bulk);
    request.deadline = any();
    request.trace = {any(), any(), any()};
    request.priority = static_cast<Priority>(rng.UniformU64(kPriorityLevels));
    const Bytes encoded_request = EncodeRequest(request);
    EXPECT_EQ(encoded_request.capacity(), encoded_request.size()) << trial;

    ReplyFrame reply;
    reply.call = request.call;
    reply.code = codes[rng.UniformU64(std::size(codes))];
    reply.error_message.assign(rng.UniformU64(200), 'e');
    reply.retry_after = any();
    reply.result = View(bulk);
    const Bytes encoded_reply = EncodeReply(reply);
    EXPECT_EQ(encoded_reply.capacity(), encoded_reply.size()) << trial;
  }
}

TEST(FrameRoundtrip, ReplyFrameRoundTripsWrongShard) {
  // WRONG_SHARD is a routing signal, not a failure detail: the router's
  // refresh-and-retry keys off the exact code surviving the wire.
  ReplyFrame reply;
  reply.call = CallId{0xBEEF, 21};
  reply.code = StatusCode::kWrongShard;
  reply.error_message = "shard 3 not owned here";
  const Bytes wire = EncodeReply(reply);
  const Result<ReplyFrame> decoded = DecodeReply(View(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kWrongShard);
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

// --- shard-map payloads: the routing metadata's own wire contract ------

services::shardwire::ShardMap SampleShardMap() {
  return services::MakeInitialShardMap(8, {"app/kv/g0", "app/kv/g1"});
}

TEST(FrameRoundtrip, ShardMapRoundTripsAndValidates) {
  services::shardwire::ShardMap map = SampleShardMap();
  map.version = 7;
  map.owner[3] = 1;
  map.shard_epoch[3] = 4;
  const Result<services::shardwire::ShardMap> decoded =
      serde::DecodeFromBytes<services::shardwire::ShardMap>(
          View(serde::EncodeToBytes(map)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Valid());
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->num_shards, 8u);
  EXPECT_EQ(decoded->groups, map.groups);
  EXPECT_EQ(decoded->owner, map.owner);
  EXPECT_EQ(decoded->shard_epoch, map.shard_epoch);
}

TEST(FrameRoundtrip, TruncatedShardPayloadsNeverDecodeAsValid) {
  // Every strict prefix of each shard wire payload must fail cleanly: a
  // router that adopted a half-decoded map would route every key wrong
  // with full confidence.
  const Bytes map_bytes = serde::EncodeToBytes(SampleShardMap());
  for (std::size_t len = 0; len < map_bytes.size(); ++len) {
    EXPECT_FALSE(serde::DecodeFromBytes<services::shardwire::ShardMap>(
                     BytesView(map_bytes.data(), len))
                     .ok())
        << "map prefix of length " << len << " decoded";
  }

  services::ShardConfig config;
  config.num_shards = 8;
  config.Adopt(2, 3);
  config.Adopt(5, 1);
  config.Freeze(2);
  const Bytes config_bytes = serde::EncodeToBytes(config);
  for (std::size_t len = 0; len < config_bytes.size(); ++len) {
    EXPECT_FALSE(serde::DecodeFromBytes<services::ShardConfig>(
                     BytesView(config_bytes.data(), len))
                     .ok())
        << "config prefix of length " << len << " decoded";
  }
  const Result<services::ShardConfig> whole =
      serde::DecodeFromBytes<services::ShardConfig>(View(config_bytes));
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->Owns(2));
  EXPECT_TRUE(whole->Frozen(2));
  EXPECT_EQ(whole->EpochOf(5), 1u);

  services::shardwire::CommitMoveRequest commit;
  commit.shard = 3;
  commit.to_group = 1;
  commit.expect_version = 7;
  commit.new_shard_epoch = 4;
  const Bytes commit_bytes = serde::EncodeToBytes(commit);
  for (std::size_t len = 0; len < commit_bytes.size(); ++len) {
    EXPECT_FALSE(
        serde::DecodeFromBytes<services::shardwire::CommitMoveRequest>(
            BytesView(commit_bytes.data(), len))
            .ok())
        << "commit prefix of length " << len << " decoded";
  }
}

TEST(FrameRoundtrip, CorruptedShardMapEitherFailsOrStaysStructural) {
  // Bit-flip fuzz over the encoded map: the decoder must terminate with
  // ok-or-error every time, and anything it does accept must be
  // structurally coherent after Valid() — the router's adoption gate.
  Rng rng(4242);
  const Bytes base = serde::EncodeToBytes(SampleShardMap());
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformU64(255));
    }
    const Result<services::shardwire::ShardMap> decoded =
        serde::DecodeFromBytes<services::shardwire::ShardMap>(View(mutated));
    if (decoded.ok() && decoded->Valid()) accepted++;
  }
  // Some mutations decode (varint payloads are dense); that is fine —
  // corruption *rejection* is the CRC envelope's job a layer below. The
  // decoder just must never crash, hang, or index out of bounds.
  (void)accepted;
}

}  // namespace
}  // namespace proxy::rpc
