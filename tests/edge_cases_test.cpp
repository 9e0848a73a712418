// Edge cases across layers that the per-module suites don't reach:
// cross-client reply-cache isolation, service migration of rich state,
// rebinding under name-cache staleness, endpoint lifecycle races,
// and proxy behaviour on half-broken topologies.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/migration.h"
#include "services/counter.h"
#include "services/file.h"
#include "services/kv.h"
#include "test_util.h"

namespace proxy {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;
using namespace proxy::services;  // NOLINT

TEST(EdgeCases, ReplyCachesAreIsolatedPerClient) {
  // Two clients using the same call sequence numbers must not receive
  // each other's cached replies (the cache keys on the client nonce).
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);

  core::Context& other = w.rt->CreateContext(w.client_node, "other");
  std::shared_ptr<IKeyValue> kv1, kv2;
  auto bind = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> a =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv", opts);
    Result<std::shared_ptr<IKeyValue>> b =
        co_await Acquire<IKeyValue>(other, "kv", opts);
    CO_ASSERT_OK(a);
    CO_ASSERT_OK(b);
    kv1 = *a;
    kv2 = *b;
  };
  w.Run(bind);

  auto body = [&]() -> sim::Co<void> {
    // Interleave identical-looking operations from both clients.
    for (int i = 0; i < 10; ++i) {
      CO_ASSERT_OK(co_await kv1->Put("k", "from-1-" + std::to_string(i)));
      CO_ASSERT_OK(co_await kv2->Put("k", "from-2-" + std::to_string(i)));
      Result<std::optional<std::string>> got = co_await kv1->Get("k");
      CO_ASSERT_OK(got);
      EXPECT_EQ(got->value(), "from-2-" + std::to_string(i));
    }
  };
  w.Run(body);
}

TEST(EdgeCases, FileServiceMigratesWithContentAndSubscribers) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->FillPattern(8 * 1024);
  w.Publish("file", exported->binding);

  std::shared_ptr<IFile> file;
  auto bind = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IFile>> f =
        co_await Acquire<IFile>(*w.client_ctx, "file", opts);
    CO_ASSERT_OK(f);
    file = *f;
  };
  w.Run(bind);

  core::Context& new_home = w.rt->CreateContext(w.client_node, "new-home");
  new_home.migration();

  auto body = [&]() -> sim::Co<void> {
    Result<Bytes> before = co_await file->Read(0, 64);  // subscribes + caches
    CO_ASSERT_OK(before);

    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  new_home.server_address());
    CO_ASSERT_OK(moved);

    // Content survived the move; the proxy rebinds transparently.
    CO_ASSERT_OK(co_await file->Write(0, ToBytes("MOVED")));
    Result<Bytes> after = co_await file->Read(0, 5);
    CO_ASSERT_OK(after);
    EXPECT_EQ(ToString(View(*after)), "MOVED");
    Result<std::uint64_t> size = co_await file->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 8u * 1024);
  };
  w.Run(body);
}

TEST(EdgeCases, StaleNameCacheRecoversViaForwarding) {
  // A client binds through the caching name client; the object then
  // migrates. The cached (stale) binding still works because the old
  // home forwards — the name cache need not be eagerly invalidated.
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 5);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  core::Context& target = w.rt->CreateContext(w.client_node, "target");
  target.migration();

  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<ICounter>> first =
        co_await Acquire<ICounter>(*w.client_ctx, "ctr", opts);
    CO_ASSERT_OK(first);
    CO_ASSERT_OK(co_await (*first)->Read());

    Result<core::ServiceBinding> moved =
        co_await w.server_ctx->migration().PushTo(exported->binding.object,
                                                  target.server_address());
    CO_ASSERT_OK(moved);

    // A *new* bind resolves from the (stale) name cache, yet works.
    Result<std::shared_ptr<ICounter>> second =
        co_await Acquire<ICounter>(*w.client_ctx, "ctr", opts);
    CO_ASSERT_OK(second);
    Result<std::int64_t> v = co_await (*second)->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 5);
  };
  w.Run(body);
}

TEST(EdgeCases, BindingWithWrongProtocolNumberFailsCleanly) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  // A service advertising a protocol nobody registered a factory for.
  core::ServiceBinding bogus = exported->binding;
  bogus.protocol = 77;
  w.Publish("bogus", bogus);

  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(*w.client_ctx, "bogus");
    EXPECT_EQ(kv.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

TEST(EdgeCases, DsmPullRefusesWhenNoAcceptorAtSource) {
  // Pulling from a context that never enabled migration yields a clean
  // NOT_FOUND (the control object does not exist there), not a hang.
  TestWorld w;
  core::ServiceBinding fake;
  fake.server = w.server_ctx->server_address();
  fake.object = ObjectId{1, 1};
  fake.interface = InterfaceIdOf(ICounter::kInterfaceName);

  // Fresh context with no exports (so no migration manager on it)...
  core::Context& lonely = w.rt->CreateContext(w.server_node, "lonely");
  fake.server = lonely.server_address();

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> pulled =
        co_await w.client_ctx->migration().Pull(fake);
    EXPECT_EQ(pulled.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

TEST(EdgeCases, ZeroByteValuesAndOddKeysRoundTrip) {
  TestWorld w;
  auto exported = ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv");
    CO_ASSERT_OK(kv);
    // Empty value, empty-ish keys, embedded NULs and slashes.
    const std::string weird_key = std::string("a\0b/c\xff", 6);
    CO_ASSERT_OK(co_await (*kv)->Put(weird_key, ""));
    Result<std::optional<std::string>> got = co_await (*kv)->Get(weird_key);
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(got->value(), "");
    // Cached read of it too.
    Result<std::optional<std::string>> again = co_await (*kv)->Get(weird_key);
    CO_ASSERT_OK(again);
    CO_ASSERT_TRUE(again->has_value());
  };
  w.Run(body);
}

TEST(EdgeCases, LargePayloadCrossesTheWire) {
  TestWorld w;
  auto exported = ExportFileService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("file", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IFile>> file =
        co_await Acquire<IFile>(*w.client_ctx, "file", opts);
    CO_ASSERT_OK(file);
    // 512 KiB takes ~420ms to transmit at 10 Mb/s — far beyond the
    // default retry budget. A bulk-transfer client must be patient.
    rpc::CallOptions patient;
    patient.retry_interval = Seconds(2);
    patient.max_retries = 2;
    dynamic_cast<FileStub*>(file->get())->set_call_options(patient);
    // 512 KiB write: under the 1 MiB datagram cap with headers, and big
    // enough to exercise bandwidth-dominated delivery.
    Bytes big(512 * 1024);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 31);
    }
    CO_ASSERT_OK(co_await (*file)->Write(0, big));
    Result<Bytes> back = co_await (*file)->Read(0, 512 * 1024);
    CO_ASSERT_OK(back);
    EXPECT_EQ(*back, big);
  };
  w.Run(body);
}

TEST(EdgeCases, ManyConcurrentClientsOneServer) {
  TestWorld w;
  auto exported = ExportCounterService(*w.server_ctx, 1, 0);
  ASSERT_OK(exported);
  w.Publish("ctr", exported->binding);

  constexpr int kClients = 24;
  constexpr int kOpsEach = 20;
  int done = 0;

  std::vector<core::Context*> ctxs;
  for (int i = 0; i < kClients; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    const NodeId n = w.rt->AddNode(name);
    ctxs.push_back(&w.rt->CreateContext(n, "cc" + std::to_string(i)));
  }

  auto client = [&](core::Context& ctx) -> sim::Co<void> {
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<ICounter>> ctr =
        co_await Acquire<ICounter>(ctx, "ctr", opts);
    CO_ASSERT_OK(ctr);
    for (int i = 0; i < kOpsEach; ++i) {
      CO_ASSERT_OK(co_await (*ctr)->Increment(1));
    }
    ++done;
  };

  for (auto* ctx : ctxs) {
    (void)sim::Spawn(w.rt->scheduler(), client(*ctx));
  }
  w.rt->scheduler().Run();
  ASSERT_EQ(done, kClients);

  auto verify = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> ctr =
        co_await Acquire<ICounter>(*w.server_ctx, "ctr");
    CO_ASSERT_OK(ctr);
    Result<std::int64_t> v = co_await (*ctr)->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, kClients * kOpsEach);
  };
  w.Run(verify);
}

TEST(EdgeCases, WithdrawnNameYieldsCleanBindFailure) {
  TestWorld w;
  auto body = [&]() -> sim::Co<void> {
    auto exported = ExportKvService(*w.server_ctx, 1);
    CO_ASSERT_OK(exported);
    CO_ASSERT_OK(co_await w.server_ctx->names().RegisterService(
        "ephemeral", exported->binding));
    CO_ASSERT_OK(co_await w.server_ctx->names().Unregister("ephemeral"));
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(*w.client_ctx, "ephemeral");
    EXPECT_EQ(kv.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

}  // namespace
}  // namespace proxy
