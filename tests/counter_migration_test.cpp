// Counter service + object migration: push, pull, forwarding chains,
// DSM-style migrate-on-use proxies, and failure rollback.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/migration.h"
#include "services/counter.h"
#include "services/kv.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;

std::shared_ptr<ICounter> BindCounter(TestWorld& w, core::Context& ctx,
                                      const std::string& name,
                                      std::uint32_t protocol = 0) {
  std::shared_ptr<ICounter> out;
  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.protocol_override = protocol;
    opts.allow_direct = false;  // always exercise the proxy path
    Result<std::shared_ptr<ICounter>> c =
        co_await Acquire<ICounter>(ctx, name, opts);
    CO_ASSERT_OK(c);
    out = *c;
  };
  w.Run(body);
  return out;
}

TEST(CounterTest, IncrementAndRead) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 100);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);
  auto ctr = BindCounter(w, *w.client_ctx, "ctr");

  auto body = [&]() -> sim::Co<void> {
    Result<std::int64_t> v = co_await ctr->Increment(5);
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 105);
    Result<std::int64_t> v2 = co_await ctr->Increment(-10);
    CO_ASSERT_OK(v2);
    EXPECT_EQ(*v2, 95);
    Result<std::int64_t> r = co_await ctr->Read();
    CO_ASSERT_OK(r);
    EXPECT_EQ(*r, 95);
  };
  w.Run(body);
}

TEST(CounterTest, SnapshotRestoreRoundTrip) {
  CounterService a(42);
  const Bytes state = a.SnapshotState();
  CounterService b;
  ASSERT_TRUE(b.RestoreState(View(state)).ok());
  const Bytes state2 = b.SnapshotState();
  EXPECT_EQ(state, state2);
  EXPECT_FALSE(b.RestoreState(View(ToBytes("garbage"))).ok());
}

TEST(MigrationTest, PushMovesObjectAndValue) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 7);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  core::Context& target = w.rt->CreateContext(w.client_node, "target");
  target.migration();

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  target.server_address());
    CO_ASSERT_OK(moved);
    EXPECT_EQ(moved->object, exported->binding.object);  // stable id
    EXPECT_EQ(moved->server, target.server_address());

    // The object is gone from the source and present at the target.
    EXPECT_EQ(w.server_ctx->FindLocal(exported->binding.object), nullptr);
    EXPECT_NE(target.FindLocal(exported->binding.object), nullptr);
  };
  w.Run(body);
  EXPECT_EQ(w.server_ctx->migration().stats().pushed, 1u);
  EXPECT_EQ(target.migration().stats().accepted, 1u);
}

TEST(MigrationTest, ProxyFollowsForwardingTransparently) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);
  auto ctr = BindCounter(w, *w.client_ctx, "ctr");

  core::Context& target = w.rt->CreateContext(w.client_node, "target");
  target.migration();

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await ctr->Increment(1));
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  target.server_address());
    CO_ASSERT_OK(moved);
    // Client keeps calling; never sees the move.
    Result<std::int64_t> v = co_await ctr->Increment(1);
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 2);
  };
  w.Run(body);
}

TEST(MigrationTest, ForwardingChainAcrossTwoMoves) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);
  auto ctr = BindCounter(w, *w.client_ctx, "ctr");

  const NodeId third = w.rt->AddNode("third");
  core::Context& hop1 = w.rt->CreateContext(w.client_node, "hop1");
  core::Context& hop2 = w.rt->CreateContext(third, "hop2");
  hop1.migration();
  hop2.migration();

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await ctr->Increment(10));
    Result<core::ServiceBinding> m1 =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  hop1.server_address());
    CO_ASSERT_OK(m1);
    Result<core::ServiceBinding> m2 = co_await hop1.migration().PushTo(
        exported->binding.object, hop2.server_address());
    CO_ASSERT_OK(m2);
    // The proxy's stale binding points at the original server; the call
    // follows server->hop1->hop2.
    Result<std::int64_t> v = co_await ctr->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 10);
  };
  w.Run(body);

  auto* proxy = dynamic_cast<CounterStub*>(ctr.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_EQ(proxy->proxy_stats().rebinds, 2u);
}

TEST(MigrationTest, PullBringsObjectHere) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 3);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> pulled =
        co_await w.client_ctx->migration().Pull(exported->binding);
    CO_ASSERT_OK(pulled);
    EXPECT_EQ(pulled->server, w.client_ctx->server_address());
    EXPECT_NE(w.client_ctx->FindLocal(exported->binding.object), nullptr);
  };
  w.Run(body);
  EXPECT_EQ(w.client_ctx->migration().stats().pulled, 1u);
  EXPECT_EQ(w.server_ctx->migration().stats().released, 1u);
}

TEST(MigrationTest, PullOfNonMigratableObjectFails) {
  TestWorld w;
  // Lock-style export without a migratable hook: counter exported with
  // null migratable via the low-level API.
  auto impl = std::make_shared<CounterService>(1);
  auto dispatch = MakeCounterDispatch(impl);
  auto exported = core::ServiceExport<ICounter>::Create(
      *w.server_ctx, impl, dispatch, 1, /*migratable=*/nullptr);
  ASSERT_OK(exported);

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> pulled =
        co_await w.client_ctx->migration().Pull(exported->binding());
    EXPECT_EQ(pulled.status().code(), StatusCode::kFailedPrecondition);
  };
  w.Run(body);
}

TEST(MigrationTest, PushToUnreachableTargetRollsBack) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 5);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);
  auto ctr = BindCounter(w, *w.client_ctx, "ctr");

  const NodeId dead = w.rt->AddNode("dead");
  core::Context& dead_ctx = w.rt->CreateContext(dead, "dead-ctx");
  dead_ctx.migration();
  w.rt->network().SetPartitioned(w.server_node, dead, true);

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  dead_ctx.server_address());
    EXPECT_EQ(moved.status().code(), StatusCode::kTimeout);
    // Rolled back: the object answers at its original home, same value.
    Result<std::int64_t> v = co_await ctr->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 5);
  };
  w.Run(body);
}

TEST(DsmProxyTest, FirstUsePullsThenRunsLocally) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 2, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);
  w.client_ctx->migration();

  auto ctr = BindCounter(w, *w.client_ctx, "ctr", 2);
  auto* dsm = dynamic_cast<CounterDsmProxy*>(ctr.get());
  ASSERT_NE(dsm, nullptr);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await ctr->Increment(1));
    EXPECT_EQ(dsm->pulls(), 1u);
    const auto msgs = w.rt->network().stats().messages_sent;
    // Subsequent calls are local: no network traffic at all.
    for (int i = 0; i < 10; ++i) {
      CO_ASSERT_OK(co_await ctr->Increment(1));
    }
    EXPECT_EQ(w.rt->network().stats().messages_sent, msgs);
    EXPECT_EQ(dsm->pulls(), 1u);
    Result<std::int64_t> v = co_await ctr->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 11);
  };
  w.Run(body);
}

TEST(DsmProxyTest, TwoDsmClientsPingPongTheObject) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 2, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  const NodeId node_c = w.rt->AddNode("node-c");
  core::Context& ctx_c = w.rt->CreateContext(node_c, "client-c");
  w.client_ctx->migration();
  ctx_c.migration();

  auto ctr_b = BindCounter(w, *w.client_ctx, "ctr", 2);
  auto ctr_c = BindCounter(w, ctx_c, "ctr", 2);

  auto body = [&]() -> sim::Co<void> {
    // Alternate: the object must migrate back and forth, never losing
    // increments.
    for (int round = 0; round < 5; ++round) {
      CO_ASSERT_OK(co_await ctr_b->Increment(1));
      CO_ASSERT_OK(co_await ctr_c->Increment(1));
    }
    Result<std::int64_t> v = co_await ctr_b->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 10);
  };
  w.Run(body);

  auto* dsm_b = dynamic_cast<CounterDsmProxy*>(ctr_b.get());
  auto* dsm_c = dynamic_cast<CounterDsmProxy*>(ctr_c.get());
  EXPECT_GE(dsm_b->pulls() + dsm_c->pulls(), 10u);
}

TEST(MigrationTest, NameServiceRebindAfterMove) {
  // After migration, re-publishing the new binding lets *new* clients
  // bind directly to the new home (no forwarding hop).
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  core::Context& target = w.rt->CreateContext(w.client_node, "target");
  target.migration();

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  target.server_address());
    CO_ASSERT_OK(moved);
    CO_ASSERT_OK(co_await target.names().RegisterService("ctr", *moved));

    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<ICounter>> fresh =
        co_await Acquire<ICounter>(*w.client_ctx, "ctr", opts);
    CO_ASSERT_OK(fresh);
    CO_ASSERT_OK(co_await (*fresh)->Increment(1));
    auto* stub = dynamic_cast<CounterStub*>(fresh->get());
    EXPECT_EQ(stub->proxy_stats().rebinds, 0u);  // bound straight to target
  };
  w.Run(body);
}

TEST(MigrationTest, PushKeepsTheAdvertisedProtocol) {
  // A protocol-2 object stays protocol 2 in its new home: the binding
  // the push returns, once published, gives new clients the caching
  // proxy the service advertised, not the protocol-1 stub.
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  core::Context& target = w.rt->CreateContext(w.client_node, "target");
  target.migration();
  core::Context& fresh = w.rt->CreateContext(w.client_node, "fresh");

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  target.server_address());
    CO_ASSERT_OK(moved);
    EXPECT_EQ(moved->protocol, 2u);
    CO_ASSERT_OK(co_await target.names().RegisterService("kv", *moved));

    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(fresh, "kv");
    CO_ASSERT_OK(kv);
    EXPECT_NE(dynamic_cast<KvCachingProxy*>(kv->get()), nullptr);
  };
  w.Run(body);
}

}  // namespace
}  // namespace proxy::services
