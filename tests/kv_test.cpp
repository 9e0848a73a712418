// Key-value service tests: stub, caching proxy with server-driven
// invalidation, write-back proxy, and KV migration.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/migration.h"
#include "services/kv.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;

std::shared_ptr<IKeyValue> BindKv(TestWorld& w, const std::string& name,
                                  std::uint32_t protocol = 0) {
  std::shared_ptr<IKeyValue> out;
  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.protocol_override = protocol;
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(*w.client_ctx, name, opts);
    CO_ASSERT_OK(kv);
    out = *kv;
  };
  w.Run(body);
  return out;
}

TEST(KvStubTest, PutGetDelSize) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");
  ASSERT_NE(kv, nullptr);

  auto body = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> missing = co_await kv->Get("nope");
    CO_ASSERT_OK(missing);
    EXPECT_FALSE(missing->has_value());

    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");

    Result<std::uint64_t> size = co_await kv->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 2u);

    Result<bool> deleted = co_await kv->Del("k1");
    CO_ASSERT_OK(deleted);
    EXPECT_TRUE(*deleted);
    Result<bool> again = co_await kv->Del("k1");
    CO_ASSERT_OK(again);
    EXPECT_FALSE(*again);
  };
  w.Run(body);
}

TEST(KvCachingTest, RepeatReadsServedLocally) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("hot", "data"));
    CO_ASSERT_OK(co_await kv->Get("hot"));  // may fill cache
    const auto msgs = w.rt->network().stats().messages_sent;
    for (int i = 0; i < 10; ++i) {
      Result<std::optional<std::string>> got = co_await kv->Get("hot");
      CO_ASSERT_OK(got);
      EXPECT_EQ(got->value(), "data");
    }
    EXPECT_EQ(w.rt->network().stats().messages_sent, msgs);
  };
  w.Run(body);
  auto* proxy = dynamic_cast<KvCachingProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_GE(proxy->cache_stats().hits, 10u);
}

TEST(KvCachingTest, NegativeResultsCached) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Get("ghost"));
    const auto msgs = w.rt->network().stats().messages_sent;
    Result<std::optional<std::string>> got = co_await kv->Get("ghost");
    CO_ASSERT_OK(got);
    EXPECT_FALSE(got->has_value());
    EXPECT_EQ(w.rt->network().stats().messages_sent, msgs);
  };
  w.Run(body);
}

TEST(KvCachingTest, InvalidationKeepsSecondClientFresh) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);

  // Two independent caching clients on different contexts.
  core::Context& other_ctx = w.rt->CreateContext(w.client_node, "client2");
  std::shared_ptr<IKeyValue> kv1 = BindKv(w, "kv");
  std::shared_ptr<IKeyValue> kv2;
  auto bind2 = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(other_ctx, "kv");
    CO_ASSERT_OK(kv);
    kv2 = *kv;
  };
  w.Run(bind2);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv1->Put("shared", "one"));
    // Client 2 reads and caches.
    Result<std::optional<std::string>> seen = co_await kv2->Get("shared");
    CO_ASSERT_OK(seen);
    EXPECT_EQ(seen->value(), "one");

    // Client 1 overwrites; the server invalidates client 2's cache.
    CO_ASSERT_OK(co_await kv1->Put("shared", "two"));
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(5));

    Result<std::optional<std::string>> fresh = co_await kv2->Get("shared");
    CO_ASSERT_OK(fresh);
    EXPECT_EQ(fresh->value(), "two");
  };
  w.Run(body);
  EXPECT_GT(exported->impl->invalidations_sent(), 0u);
}

TEST(KvCachingTest, DeleteInvalidatesCache) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("temp", "val"));
    CO_ASSERT_OK(co_await kv->Get("temp"));
    Result<bool> deleted = co_await kv->Del("temp");
    CO_ASSERT_OK(deleted);
    Result<std::optional<std::string>> gone = co_await kv->Get("temp");
    CO_ASSERT_OK(gone);
    EXPECT_FALSE(gone->has_value());
  };
  w.Run(body);
}

TEST(KvWriteBackTest, ReadYourOwnWrites) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("wb", "buffered"));
    // Immediately readable, even though the write has not flushed yet.
    Result<std::optional<std::string>> got = co_await kv->Get("wb");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "buffered");
  };
  w.Run(body);
}

TEST(KvWriteBackTest, WritesCoalesceIntoBatches) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    for (int i = 0; i < 16; ++i) {  // == max_batch: one size-flush
      std::string key = "k";
      key += std::to_string(i);
      CO_ASSERT_OK(co_await kv->Put(std::move(key), "v"));
    }
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(20));
    // The server saw the data.
    Result<std::uint64_t> size = co_await kv->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 16u);
  };
  w.Run(body);
  auto* proxy = dynamic_cast<KvWriteBackProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_LE(proxy->batch_stats().batches, 3u);  // far fewer than 16 RPCs
  EXPECT_EQ(proxy->batch_stats().items, 16u);
}

TEST(KvWriteBackTest, WindowFlushShipsSmallBatches) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("lonely", "write"));
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(50));
    // Verify server-side via an uncached second client.
    AcquireOptions opts;
    opts.protocol_override = 1;
    Result<std::shared_ptr<IKeyValue>> stub =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv", opts);
    CO_ASSERT_OK(stub);
    Result<std::optional<std::string>> got = co_await (*stub)->Get("lonely");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "write");
  };
  w.Run(body);
}

TEST(KvWriteBackTest, DelFlushesFirst) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("doomed", "x"));
    // Del must observe the buffered put (flush-before-delete ordering).
    Result<bool> deleted = co_await kv->Del("doomed");
    CO_ASSERT_OK(deleted);
    EXPECT_TRUE(*deleted);
    Result<std::optional<std::string>> gone = co_await kv->Get("doomed");
    CO_ASSERT_OK(gone);
    EXPECT_FALSE(gone->has_value());
  };
  w.Run(body);
}

TEST(KvWriteBackTest, LastWriteWinsWithinBuffer) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k", "first"));
    CO_ASSERT_OK(co_await kv->Put("k", "second"));
    CO_ASSERT_OK(co_await kv->Put("k", "third"));
    auto* proxy = dynamic_cast<KvWriteBackProxy*>(kv.get());
    const Status flushed = co_await proxy->FlushWrites();
    CO_ASSERT_OK(flushed);
    // Server-side value is the freshest one.
    AcquireOptions opts;
    opts.protocol_override = 1;
    Result<std::shared_ptr<IKeyValue>> stub =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv", opts);
    CO_ASSERT_OK(stub);
    Result<std::optional<std::string>> got = co_await (*stub)->Get("k");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "third");
  };
  w.Run(body);
}

TEST(KvWriteBackTest, SizeCountsBufferedWrites) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k", "buffered"));
    // At once, with the write still in the buffer: Size counts it.
    Result<std::uint64_t> size = co_await kv->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 1u);
  };
  w.Run(body);
}

TEST(KvWriteBackTest, FlushWritesReportsABatchLostInFlight) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");
  auto* proxy = dynamic_cast<KvWriteBackProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  w.rt->network().SetPartitioned(w.client_node, w.server_node, true);

  auto body = [&]() -> sim::Co<void> {
    for (std::size_t i = 0; i < KvWriteBackProxy::kMaxBatch; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      CO_ASSERT_OK(co_await kv->Put(std::move(key), "v"));
    }
    // The last Put shipped the batch: nothing is buffered, but the batch
    // is on the wire and cannot land.
    const Status flushed = co_await proxy->FlushWrites();
    EXPECT_FALSE(flushed.ok());
  };
  w.Run(body);
  EXPECT_EQ(exported->impl->key_count(), 0u);
}

TEST(KvWriteBackTest, AFailedBatchIsNotServedAfterTheHeal) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");
  auto* proxy = dynamic_cast<KvWriteBackProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  w.rt->network().SetPartitioned(w.client_node, w.server_node, true);

  auto lose = [&]() -> sim::Co<void> {
    for (std::size_t i = 0; i < KvWriteBackProxy::kMaxBatch; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      CO_ASSERT_OK(co_await kv->Put(std::move(key), "v"));
    }
    const Status flushed = co_await proxy->FlushWrites();
    EXPECT_FALSE(flushed.ok());
  };
  w.Run(lose);
  w.rt->network().SetPartitioned(w.client_node, w.server_node, false);
  w.rt->scheduler().RunFor(Seconds(5));  // the circuit closes again

  // The server never stored the batch, so the proxy must not serve it.
  auto read = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> got = co_await kv->Get("k0");
    CO_ASSERT_OK(got);
    EXPECT_EQ(*got, std::nullopt);
    // The failure was reported once, by the FlushWrites above.
    const Status again = co_await proxy->FlushWrites();
    EXPECT_TRUE(again.ok());
  };
  w.Run(read);
  EXPECT_EQ(exported->impl->key_count(), 0u);
}

TEST(KvMigrationTest, StateAndSubscribersSurviveMigration) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);
  auto kv = BindKv(w, "kv");

  core::Context& new_home = w.rt->CreateContext(w.client_node, "new-home");
  new_home.migration();  // export the acceptor

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("persist", "me"));

    // Push the KV service to the other node.
    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(
            exported->binding.object, new_home.server_address());
    CO_ASSERT_OK(moved);
    EXPECT_EQ(moved->server, new_home.server_address());

    // The old proxy still works: it follows the forwarding hint.
    Result<std::optional<std::string>> got = co_await kv->Get("persist");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "me");
    CO_ASSERT_OK(co_await kv->Put("after", "move"));
    Result<std::uint64_t> size = co_await kv->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 2u);
  };
  w.Run(body);

  // The proxy rebound itself exactly once.
  auto* proxy = dynamic_cast<KvStub*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_EQ(proxy->proxy_stats().rebinds, 1u);
  EXPECT_EQ(proxy->binding().server, new_home.server_address());
}

}  // namespace
}  // namespace proxy::services
