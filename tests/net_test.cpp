// Unit tests for the transport layer: endpoints, demultiplexing, and
// envelope validation at the trust boundary.
#include <gtest/gtest.h>

#include <memory>

#include "net/endpoint.h"
#include "sim/network.h"

namespace proxy::net {
namespace {

struct NetFixture : public ::testing::Test {
  NetFixture() : net(sched, 7), stack_a(nullptr), stack_b(nullptr) {
    node_a = net.AddNode("a");
    node_b = net.AddNode("b");
    stack_a = std::make_unique<NodeStack>(net, node_a);
    stack_b = std::make_unique<NodeStack>(net, node_b);
  }

  sim::Scheduler sched;
  sim::Network net;
  NodeId node_a, node_b;
  std::unique_ptr<NodeStack> stack_a, stack_b;
};

TEST_F(NetFixture, DatagramCarriesSourceAddress) {
  Endpoint* sender = stack_a->OpenEndpoint(PortId(10));
  Endpoint* receiver = stack_b->OpenEndpoint(PortId(20));
  ASSERT_NE(sender, nullptr);
  ASSERT_NE(receiver, nullptr);

  Address seen_from{};
  Bytes seen_payload;
  receiver->SetHandler([&](const Address& from, OwnedBytes payload) {
    seen_from = from;
    seen_payload = payload.ToBytes();
  });

  ASSERT_TRUE(sender->Send(receiver->address(), ToBytes("ping")).ok());
  sched.Run();

  EXPECT_EQ(seen_from, sender->address());
  EXPECT_EQ(ToString(View(seen_payload)), "ping");
}

TEST_F(NetFixture, ReplyPathWorks) {
  Endpoint* a = stack_a->OpenEndpoint(PortId(1));
  Endpoint* b = stack_b->OpenEndpoint(PortId(2));
  std::string got;
  b->SetHandler([&](const Address& from, OwnedBytes) {
    (void)b->Send(from, ToBytes("pong"));
  });
  a->SetHandler([&](const Address&, OwnedBytes payload) {
    got = ToString(payload.view());
  });
  ASSERT_TRUE(a->Send(b->address(), ToBytes("ping")).ok());
  sched.Run();
  EXPECT_EQ(got, "pong");
}

TEST_F(NetFixture, PortCollisionAndEphemeralAllocation) {
  EXPECT_NE(stack_a->OpenEndpoint(PortId(5)), nullptr);
  EXPECT_EQ(stack_a->OpenEndpoint(PortId(5)), nullptr);  // taken
  Endpoint* e1 = stack_a->OpenEphemeral();
  Endpoint* e2 = stack_a->OpenEphemeral();
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  EXPECT_NE(e1->address().port, e2->address().port);
}

TEST_F(NetFixture, CloseStopsDelivery) {
  Endpoint* a = stack_a->OpenEndpoint(PortId(1));
  Endpoint* b = stack_b->OpenEndpoint(PortId(2));
  int received = 0;
  b->SetHandler([&](const Address&, OwnedBytes) { ++received; });
  const Address b_addr = b->address();
  ASSERT_TRUE(a->Send(b_addr, ToBytes("one")).ok());
  sched.Run();
  stack_b->CloseEndpoint(PortId(2));
  ASSERT_TRUE(a->Send(b_addr, ToBytes("two")).ok());
  sched.Run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, CorruptedDatagramRejectedAtBoundary) {
  Endpoint* a = stack_a->OpenEndpoint(PortId(1));
  Endpoint* b = stack_b->OpenEndpoint(PortId(2));
  int received = 0;
  b->SetHandler([&](const Address&, OwnedBytes) { ++received; });

  // Bypass the endpoint framing: inject garbage directly at L1.
  ASSERT_TRUE(net.Send(node_a, node_b, b->address().port,
                       ToBytes("not an envelope")).ok());
  // And a valid send for contrast.
  ASSERT_TRUE(a->Send(b->address(), ToBytes("good")).ok());
  sched.Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(stack_b->rejected_datagrams(), 1u);
}

TEST_F(NetFixture, OversizedPayloadRefusedLocally) {
  Endpoint* a = stack_a->OpenEndpoint(PortId(1));
  const Status st =
      a->Send(Address{node_b, PortId(2)}, Bytes(Endpoint::kMaxPayload + 1, 0));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST_F(NetFixture, MessageToUnboundPortIsDropped) {
  Endpoint* a = stack_a->OpenEndpoint(PortId(1));
  ASSERT_TRUE(a->Send(Address{node_b, PortId(777)}, ToBytes("void")).ok());
  sched.Run();  // must not crash; silently dropped
  EXPECT_EQ(net.stats().messages_delivered, 1u);  // delivered to stack, no ep
}

}  // namespace
}  // namespace proxy::net
