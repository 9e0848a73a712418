// Adversarial-input sweeps: every trust boundary must turn arbitrary
// bytes into a clean error (or a valid value), never UB. These tests are
// deterministic "fuzzing" — seeded random buffers through every decoder.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "naming/protocol.h"
#include "net/endpoint.h"
#include "rpc/frame.h"
#include "serde/message.h"
#include "serde/traits.h"
#include "services/file.h"
#include "services/kv.h"
#include "sim/network.h"

namespace proxy {
namespace {

Bytes RandomBuffer(Rng& rng, std::size_t max_len) {
  Bytes b(rng.UniformU64(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.NextU64());
  return b;
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, RandomBytesThroughEveryDecoder) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes junk = RandomBuffer(rng, 256);
    // None of these may crash; results are unconstrained otherwise.
    (void)serde::UnwrapEnvelopeView(View(junk));
    (void)rpc::DecodeRequestView(View(junk));
    (void)rpc::DecodeReply(View(junk));
    (void)serde::DecodeFromBytes<naming::NameRecord>(View(junk));
    (void)serde::DecodeFromBytes<
        std::vector<std::pair<std::string, naming::NameRecord>>>(View(junk));
    (void)serde::DecodeFromBytes<services::kvwire::BatchPutRequest>(
        View(junk));
    (void)serde::DecodeFromBytes<services::filewire::WriteVecRequest>(
        View(junk));
    (void)serde::DecodeFromBytes<std::map<std::string, std::string>>(
        View(junk));
    (void)serde::DecodeFromBytes<std::vector<std::optional<std::string>>>(
        View(junk));
  }
}

TEST_P(FuzzSeed, RandomDatagramsIntoALiveStack) {
  // Junk straight off the wire into a node stack with a bound endpoint:
  // must be rejected at the envelope, everything stays alive.
  sim::Scheduler sched;
  sim::Network net(sched, GetParam());
  const NodeId a = net.AddNode("attacker");
  const NodeId v = net.AddNode("victim");
  net::NodeStack stack(net, v);
  net::Endpoint* ep = stack.OpenEndpoint(PortId(1));
  int delivered = 0;
  ep->SetHandler([&](const net::Address&, OwnedBytes) { ++delivered; });

  Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 200; ++i) {
    (void)net.Send(a, v, PortId(1), RandomBuffer(rng, 128));
  }
  sched.Run();
  EXPECT_EQ(delivered, 0);  // nothing random passes the CRC envelope
  EXPECT_EQ(stack.rejected_datagrams(), 200u);
}

TEST_P(FuzzSeed, TruncatedValidFramesRejectedCleanly) {
  Rng rng(GetParam());
  rpc::RequestFrame frame;
  frame.call = rpc::CallId{rng.NextU64(), rng.NextU64()};
  frame.object = ObjectId{rng.NextU64(), rng.NextU64()};
  frame.method = static_cast<std::uint32_t>(rng.NextU64());
  const Bytes args = RandomBuffer(rng, 64);
  frame.args = View(args);
  const Bytes good = rpc::EncodeRequest(frame);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(rpc::DecodeRequestView(BytesView(good.data(), cut)).ok());
  }
  // And the unmutated frame still decodes (the encoder is sane).
  EXPECT_TRUE(rpc::DecodeRequestView(View(good)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(0xA, 0xB, 0xC, 0xD, 0xE, 0xF));

}  // namespace
}  // namespace proxy
