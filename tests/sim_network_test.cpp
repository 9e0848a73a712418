// Unit tests for the simulated network: delay math, loss, partitions,
// paused and crashed nodes, loopback, store-and-forward serialization.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/network.h"

namespace proxy::sim {
namespace {

struct NetFixture : public ::testing::Test {
  NetFixture() : net(sched, /*seed=*/7) {
    a = net.AddNode("a");
    b = net.AddNode("b");
    net.AttachReceiver(b, [this](NodeId from, PortId port, Bytes payload) {
      deliveries.push_back({from, port, std::move(payload), sched.now()});
    });
    net.AttachReceiver(a, [this](NodeId from, PortId port, Bytes payload) {
      deliveries.push_back({from, port, std::move(payload), sched.now()});
    });
  }

  struct Delivery {
    NodeId from;
    PortId port;
    Bytes payload;
    SimTime at;
  };

  Scheduler sched;
  Network net;
  NodeId a, b;
  std::vector<Delivery> deliveries;
};

TEST_F(NetFixture, DeliversWithLatencyPlusTransmitTime) {
  LinkParams link;
  link.latency = Microseconds(100);
  link.bandwidth_bps = 8e6;  // 1 byte per microsecond
  net.SetLink(a, b, link);

  ASSERT_TRUE(net.Send(a, b, PortId(5), Bytes(50, 0xaa)).ok());
  sched.Run();

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].from, a);
  EXPECT_EQ(deliveries[0].port, PortId(5));
  EXPECT_EQ(deliveries[0].payload.size(), 50u);
  // 50 B at 1 B/us = 50us transmit + 100us latency.
  EXPECT_EQ(deliveries[0].at, Microseconds(150));
}

TEST_F(NetFixture, StoreAndForwardSerializesBackToBackSends) {
  LinkParams link;
  link.latency = Microseconds(10);
  link.bandwidth_bps = 8e6;  // 1 byte/us
  net.SetLink(a, b, link);

  // Two 100-byte messages sent at t=0: the second waits for the first
  // to finish transmitting.
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes(100, 1)).ok());
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes(100, 2)).ok());
  sched.Run();

  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].at, Microseconds(110));  // 100us tx + 10us prop
  EXPECT_EQ(deliveries[1].at, Microseconds(210));  // queued behind first
}

TEST_F(NetFixture, LossDropsDeterministically) {
  LinkParams link;
  link.loss = 0.5;
  net.SetLink(a, b, link);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  }
  sched.Run();
  const auto& stats = net.stats();
  EXPECT_EQ(stats.messages_sent, 200u);
  EXPECT_EQ(stats.messages_delivered + stats.messages_dropped, 200u);
  EXPECT_NEAR(static_cast<double>(stats.messages_dropped), 100.0, 25.0);
  EXPECT_EQ(deliveries.size(), stats.messages_delivered);
}

TEST(NetworkDeterminism, SameSeedSameDrops) {
  for (int round = 0; round < 2; ++round) {
    static std::vector<std::uint64_t> first_run;
    Scheduler sched;
    Network net(sched, 99);
    const NodeId a = net.AddNode("a");
    const NodeId b = net.AddNode("b");
    LinkParams link;
    link.loss = 0.3;
    net.SetLink(a, b, link);
    std::vector<std::uint64_t> delivered_ids;
    net.AttachReceiver(b, [&](NodeId, PortId, Bytes payload) {
      delivered_ids.push_back(payload[0]);
    });
    for (std::uint8_t i = 0; i < 100; ++i) {
      (void)net.Send(a, b, PortId(1), Bytes{i});
    }
    sched.Run();
    if (round == 0) {
      first_run = delivered_ids;
    } else {
      EXPECT_EQ(delivered_ids, first_run);
    }
  }
}

TEST_F(NetFixture, PartitionDropsSilently) {
  net.SetPartitioned(a, b, true);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());  // no sender error
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);

  net.SetPartitioned(a, b, false);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{2}).ok());
  sched.Run();
  EXPECT_EQ(deliveries.size(), 1u);
}

TEST_F(NetFixture, PartitionRaisedMidFlightEatsMessage) {
  LinkParams link;
  link.latency = Milliseconds(10);
  net.SetLink(a, b, link);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  // Cut the link while the message is in flight.
  sched.PostAt(Milliseconds(1), [this] { net.SetPartitioned(a, b, true); })
      .Detach();
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
}

TEST_F(NetFixture, UnpausingReleasesHeldMessagesInArrivalOrder) {
  net.SetNodePaused(b, true);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{2}).ok());
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_held, 2u);
  net.SetNodePaused(b, false);
  const std::uint64_t events_before = sched.events_run();
  sched.Run();
  EXPECT_EQ(sched.events_run() - events_before, 2u);  // one per message
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].payload, Bytes{1});
  EXPECT_EQ(deliveries[1].payload, Bytes{2});
}

// A held message was addressed to the incarnation that was paused. A
// crash at the unpause instant, before the release runs, kills that
// incarnation, so the release must drop the message like any arrival.
TEST_F(NetFixture, AHeldMessageDiesWithACrashAtTheUnpauseInstant) {
  net.SetNodePaused(b, true);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  sched.Run();
  ASSERT_EQ(net.stats().messages_held, 1u);
  net.SetNodePaused(b, false);
  net.SetNodeCrashed(b, true);
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetFixture, AHeldMessageNeverReachesTheNextIncarnation) {
  net.SetNodePaused(b, true);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  sched.Run();
  ASSERT_EQ(net.stats().messages_held, 1u);
  net.SetNodePaused(b, false);
  net.SetNodeCrashed(b, true);
  net.SetNodeCrashed(b, false);  // restarted in the same instant
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

// Crash-stop loses the mail addressed to the dead incarnation, not the
// mail that incarnation already put on the wire: an a->b datagram on a
// 10 ms link outlives a crash of its sender, as on a real link.
TEST_F(NetFixture, ADatagramOutlivesACrashOfItsSender) {
  LinkParams link;
  link.latency = Milliseconds(10);
  net.SetLink(a, b, link);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  sched.RunFor(Milliseconds(1));
  net.SetNodeCrashed(a, true);
  sched.Run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].from, a);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

TEST_F(NetFixture, ADatagramDiesWithACrashOfItsReceiver) {
  LinkParams link;
  link.latency = Milliseconds(10);
  net.SetLink(a, b, link);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  sched.RunFor(Milliseconds(1));
  net.SetNodeCrashed(b, true);
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetFixture, ADatagramNeverReachesItsReceiversNextIncarnation) {
  LinkParams link;
  link.latency = Milliseconds(10);
  net.SetLink(a, b, link);
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  sched.RunFor(Milliseconds(1));
  net.SetNodeCrashed(b, true);
  sched.RunFor(Milliseconds(1));
  net.SetNodeCrashed(b, false);  // restarted before the arrival
  sched.Run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetFixture, LoopbackIsCheapAndCounted) {
  ASSERT_TRUE(net.Send(a, a, PortId(3), Bytes(2048, 7)).ok());
  sched.Run();
  ASSERT_EQ(deliveries.size(), 1u);
  // Default loopback: 5us fixed + 1us per KiB => 7us for 2 KiB.
  EXPECT_EQ(deliveries[0].at, Microseconds(7));
  EXPECT_EQ(net.stats().loopback_messages, 1u);
}

// Each datagram is a scheduler event of its own, so arrivals at one node
// in one instant keep the scheduler's (time, send) order with every other
// event: one posted for that instant between two sends runs between the
// two deliveries.
TEST_F(NetFixture, SameInstantArrivalsRunAsSeparateEventsInSendOrder) {
  std::vector<std::string> order;
  net.AttachReceiver(a, [&order](NodeId, PortId, Bytes payload) {
    order.push_back(payload == Bytes{1} ? "m1" : "m2");
  });
  ASSERT_TRUE(net.Send(a, a, PortId(1), Bytes{1}).ok());
  sched.PostAt(Network::kLoopbackFixed, [&order] { order.push_back("x"); })
      .Detach();
  ASSERT_TRUE(net.Send(a, a, PortId(1), Bytes{2}).ok());
  sched.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"m1", "x", "m2"}));
  EXPECT_EQ(sched.events_run(), 3u);
  EXPECT_EQ(sched.now(), Network::kLoopbackFixed);
}

TEST_F(NetFixture, UnknownNodeIsAnError) {
  EXPECT_FALSE(net.Send(a, NodeId(42), PortId(1), Bytes{1}).ok());
  EXPECT_FALSE(net.Send(NodeId(42), a, PortId(1), Bytes{1}).ok());
}

TEST_F(NetFixture, JitterVariesDelivery) {
  LinkParams link;
  link.latency = Microseconds(100);
  link.jitter = Microseconds(50);
  net.SetLink(a, b, link);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes{1}).ok());
  }
  sched.Run();
  ASSERT_EQ(deliveries.size(), 20u);
  SimTime min_at = UINT64_MAX, max_at = 0;
  for (const auto& d : deliveries) {
    min_at = std::min(min_at, d.at);
    max_at = std::max(max_at, d.at);
  }
  EXPECT_LT(min_at, max_at);  // jitter actually spread arrivals
}

TEST_F(NetFixture, StatsTrackBytes) {
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes(10, 1)).ok());
  ASSERT_TRUE(net.Send(a, b, PortId(1), Bytes(20, 2)).ok());
  sched.Run();
  EXPECT_EQ(net.stats().bytes_sent, 30u);
  EXPECT_EQ(net.stats().bytes_delivered, 30u);
}

TEST_F(NetFixture, NodeNamesAreKept) {
  EXPECT_EQ(net.node_name(a), "a");
  EXPECT_EQ(net.node_name(b), "b");
  EXPECT_EQ(net.node_count(), 2u);
}

}  // namespace
}  // namespace proxy::sim
