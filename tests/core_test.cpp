// Tests for the core runtime: contexts, unforgeable references, binding
// (direct vs proxy), factories, export/publish/revoke.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <typeinfo>

#include "core/export.h"
#include "core/factory.h"
#include "core/runtime.h"
#include "services/counter.h"
#include "services/file.h"
#include "services/kv.h"
#include "services/lock.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"
#include "services/spooler.h"
#include "test_util.h"

namespace proxy::core {
namespace {

using services::CounterService;
using services::ICounter;
using services::IKeyValue;
using proxy::testing::TestWorld;

TEST(Runtime, ContextsGetDistinctEndpoints) {
  Runtime rt;
  const NodeId n = rt.AddNode("n");
  rt.StartNameService(n);
  Context& c1 = rt.CreateContext(n, "c1");
  Context& c2 = rt.CreateContext(n, "c2");
  EXPECT_NE(c1.server_address(), c2.server_address());
  EXPECT_NE(c1.id(), c2.id());
  EXPECT_EQ(c1.node(), c2.node());
}

TEST(Runtime, MintedObjectIdsAreUniqueAndNonNil) {
  Runtime rt;
  const NodeId n = rt.AddNode("n");
  Context& ctx = rt.CreateContext(n, "c");
  std::set<ObjectId> seen;
  for (int i = 0; i < 1000; ++i) {
    const ObjectId id = ctx.MintObjectId();
    EXPECT_FALSE(id.IsNil());
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(Runtime, SameSeedSameIds) {
  auto mint = [](std::uint64_t seed) {
    Runtime::Params p;
    p.seed = seed;
    Runtime rt(p);
    Context& ctx = rt.CreateContext(rt.AddNode("n"), "c");
    return ctx.MintObjectId();
  };
  EXPECT_EQ(mint(1), mint(1));
  EXPECT_NE(mint(1), mint(2));
}

TEST(Context, LocalRegistryBasics) {
  Runtime rt;
  Context& ctx = rt.CreateContext(rt.AddNode("n"), "c");
  auto impl = std::make_shared<CounterService>(5);
  const ObjectId id = ctx.MintObjectId();
  const InterfaceId iface = InterfaceIdOf(ICounter::kInterfaceName);

  ASSERT_TRUE(ctx.RegisterLocal(id, iface, 2, impl).ok());
  EXPECT_EQ(ctx.RegisterLocal(id, iface, 2, impl).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(ctx.RegisterLocal(ObjectId{}, iface, 2, impl).ok());
  EXPECT_FALSE(ctx.RegisterLocal(ctx.MintObjectId(), iface, 2, nullptr).ok());

  const auto* entry = ctx.FindLocal(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->iface, iface);
  EXPECT_EQ(entry->protocol, 2u);
  EXPECT_EQ(ctx.local_object_count(), 1u);

  ctx.UnregisterLocal(id);
  EXPECT_EQ(ctx.FindLocal(id), nullptr);
}

TEST(Runtime, FindObjectOnNodeSearchesAllContexts) {
  Runtime rt;
  const NodeId n = rt.AddNode("n");
  const NodeId other = rt.AddNode("other");
  Context& c1 = rt.CreateContext(n, "c1");
  Context& c2 = rt.CreateContext(n, "c2");
  (void)c1;
  auto impl = std::make_shared<CounterService>();
  const ObjectId id = c2.MintObjectId();
  ASSERT_TRUE(c2.RegisterLocal(id, InterfaceIdOf(ICounter::kInterfaceName), 1,
                               impl).ok());
  auto hit = rt.FindObjectOnNode(n, id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->context, &c2);
  EXPECT_FALSE(rt.FindObjectOnNode(other, id).has_value());
  EXPECT_FALSE(rt.FindObjectOnNode(n, ObjectId{9, 9}).has_value());
}

TEST(Runtime, APendingCallLeavesNoPooledObjectAtTeardown) {
  std::size_t frames_left = 99;
  std::size_t objects_left = 99;
  {
    TestWorld w;
    Result<services::CounterExport> exported =
        services::ExportCounterService(*w.server_ctx);
    ASSERT_OK(exported);
    services::CounterStub stub(*w.client_ctx, exported->binding);
    w.rt->network().SetPartitioned(w.client_node, w.server_node, true);
    sim::Scheduler& sched = w.rt->scheduler();
    sim::Detach(sched, stub.Increment(1));
    sched.RunFor(Milliseconds(1));  // the request is lost to the partition
    // Still pending, its retry timer armed: the pending-call node and
    // the promise state are live in the scheduler's object pool.
    ASSERT_EQ(w.client_ctx->client().stats().calls_started, 1u);
    ASSERT_EQ(w.rt->network().stats().messages_dropped, 1u);
    ASSERT_GT(sched.live_objects(), 0u);
    ASSERT_GT(sched.pending(), 0u);
    sched.SetTeardownHook(
        [&sched, &frames_left, &objects_left](std::size_t live_frames) {
          frames_left = live_frames;
          objects_left = sched.live_objects();
        });
  }  // the stub dies, then the runtime with the call still pending
  EXPECT_EQ(frames_left, 0u);
  EXPECT_EQ(objects_left, 0u);
}

TEST(FactoryRegistry, RegisterAndCreate) {
  services::RegisterAllServices();
  auto& registry = ProxyFactoryRegistry::Instance();
  const InterfaceId kv = InterfaceIdOf(IKeyValue::kInterfaceName);
  EXPECT_TRUE(registry.Has(kv, 1));
  EXPECT_TRUE(registry.Has(kv, 2));
  EXPECT_TRUE(registry.Has(kv, 3));
  EXPECT_FALSE(registry.Has(kv, 99));
  EXPECT_FALSE(registry.Has(InterfaceIdOf("no.such.Interface"), 1));

  // Re-registration of a taken slot is refused.
  const Status dup = registry.Register(
      kv, 1, [](Context&, const ServiceBinding&) { return nullptr; });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(registry.Register(kv, 98, nullptr).ok());
}

/// Creates the (I, protocol) proxy through the registry and checks that
/// it is exactly a P.
template <typename I, typename P>
void ExpectInstalls(Context& ctx, std::uint32_t protocol) {
  ServiceBinding b;
  b.server = ctx.server_address();
  b.object = ObjectId{0x51, protocol};
  b.interface = InterfaceIdOf(I::kInterfaceName);
  b.protocol = protocol;
  Result<std::shared_ptr<void>> created =
      ProxyFactoryRegistry::Instance().Create(ctx, b);
  ASSERT_TRUE(created.ok()) << I::kInterfaceName << " protocol " << protocol
                            << ": " << created.status().ToString();
  const std::shared_ptr<I> proxy = std::static_pointer_cast<I>(*created);
  EXPECT_TRUE(typeid(*proxy) == typeid(P))
      << I::kInterfaceName << " protocol " << protocol << " installed "
      << typeid(*proxy).name();
}

TEST(FactoryRegistry, EveryAdvertisedProtocolInstalls) {
  // Registration happens once per process; calling again changes nothing.
  services::RegisterAllServices();
  services::RegisterAllServices();
  Runtime rt;
  Context& ctx = rt.CreateContext(rt.AddNode("n"), "c");
  ExpectInstalls<IKeyValue, services::KvStub>(ctx, 1);
  ExpectInstalls<IKeyValue, services::KvCachingProxy>(ctx, 2);
  ExpectInstalls<IKeyValue, services::KvWriteBackProxy>(ctx, 3);
  ExpectInstalls<IKeyValue, services::KvFailoverProxy>(ctx, 4);
  ExpectInstalls<IKeyValue, services::KvShardRouterProxy>(ctx, 5);
  ExpectInstalls<services::IFile, services::FileStub>(ctx, 1);
  ExpectInstalls<services::IFile, services::FileCachingProxy>(ctx, 2);
  ExpectInstalls<services::IFile, services::FileBatchProxy>(ctx, 3);
  ExpectInstalls<ICounter, services::CounterStub>(ctx, 1);
  ExpectInstalls<ICounter, services::CounterDsmProxy>(ctx, 2);
  ExpectInstalls<services::ISpooler, services::SpoolerStub>(ctx, 1);
  ExpectInstalls<services::ISpooler, services::SpoolerBatchProxy>(ctx, 2);
  ExpectInstalls<services::ILockService, services::LockStub>(ctx, 1);

  const auto& servers = ServerObjectFactoryRegistry::Instance();
  EXPECT_TRUE(servers.Has(InterfaceIdOf(IKeyValue::kInterfaceName)));
  EXPECT_TRUE(servers.Has(InterfaceIdOf(services::IFile::kInterfaceName)));
  EXPECT_TRUE(servers.Has(InterfaceIdOf(ICounter::kInterfaceName)));
}

TEST(FactoryRegistry, CreateUnknownProtocolFails) {
  services::RegisterAllServices();
  Runtime rt;
  Context& ctx = rt.CreateContext(rt.AddNode("n"), "c");
  ServiceBinding b;
  b.interface = InterfaceIdOf(IKeyValue::kInterfaceName);
  b.protocol = 42;
  const auto created = ProxyFactoryRegistry::Instance().Create(ctx, b);
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
}

TEST(Bind, DirectWhenObjectIsLocal) {
  TestWorld w;
  auto exported = services::ExportCounterService(*w.server_ctx, 1, 10);
  ASSERT_OK(exported);
  w.Publish("counter", exported->binding);

  // Binding from the hosting context returns the implementation itself.
  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> bound =
        co_await Acquire<ICounter>(*w.server_ctx, "counter");
    CO_ASSERT_OK(bound);
    EXPECT_EQ(bound->get(),
              static_cast<ICounter*>(exported->impl.get()));
  };
  w.Run(body);
}

TEST(Bind, ProxyWhenRemoteAndDirectWhenDisallowed) {
  TestWorld w;
  auto exported = services::ExportCounterService(*w.server_ctx, 1, 10);
  ASSERT_OK(exported);
  w.Publish("counter", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    // Remote client: must get a proxy, and it must work.
    Result<std::shared_ptr<ICounter>> remote =
        co_await Acquire<ICounter>(*w.client_ctx, "counter");
    CO_ASSERT_OK(remote);
    EXPECT_NE(remote->get(), static_cast<ICounter*>(exported->impl.get()));
    Result<std::int64_t> v = co_await (*remote)->Increment(5);
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 15);

    // Even locally, allow_direct=false forces a proxy.
    AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<ICounter>> forced =
        co_await Acquire<ICounter>(*w.server_ctx, "counter", opts);
    CO_ASSERT_OK(forced);
    EXPECT_NE(forced->get(), static_cast<ICounter*>(exported->impl.get()));
    Result<std::int64_t> v2 = co_await (*forced)->Read();
    CO_ASSERT_OK(v2);
    EXPECT_EQ(*v2, 15);
  };
  w.Run(body);
}

TEST(Bind, InterfaceMismatchRefused) {
  TestWorld w;
  auto exported = services::ExportCounterService(*w.server_ctx, 1);
  ASSERT_OK(exported);
  w.Publish("counter", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<IKeyValue>> wrong =
        co_await Acquire<IKeyValue>(*w.client_ctx, "counter");
    EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  };
  w.Run(body);
}

TEST(Bind, UnboundNameFails) {
  TestWorld w;
  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> missing =
        co_await Acquire<ICounter>(*w.client_ctx, "nothing/here");
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

TEST(Bind, ProtocolOverrideSelectsDifferentProxy) {
  TestWorld w;
  auto exported = services::ExportKvService(*w.server_ctx, /*protocol=*/1);
  ASSERT_OK(exported);
  w.Publish("kv", exported->binding);

  auto body = [&]() -> sim::Co<void> {
    AcquireOptions opts;
    opts.protocol_override = 2;  // caching proxy instead of stub
    Result<std::shared_ptr<IKeyValue>> kv =
        co_await Acquire<IKeyValue>(*w.client_ctx, "kv", opts);
    CO_ASSERT_OK(kv);
    // A caching proxy serves the second read locally: message count stays
    // flat between the two reads.
    CO_ASSERT_OK(co_await (*kv)->Put("k", "v"));
    CO_ASSERT_OK(co_await (*kv)->Get("k"));
    const auto msgs_before = w.rt->network().stats().messages_sent;
    CO_ASSERT_OK(co_await (*kv)->Get("k"));
    EXPECT_EQ(w.rt->network().stats().messages_sent, msgs_before);
  };
  w.Run(body);
}

TEST(ServiceExport, RevokeCutsEveryProxyOff) {
  TestWorld w;
  auto impl = std::make_shared<CounterService>(1);
  auto dispatch = services::MakeCounterDispatch(impl);
  auto exported = ServiceExport<ICounter>::Create(*w.server_ctx, impl,
                                                  dispatch, 1, impl);
  ASSERT_OK(exported);
  w.Publish("rev", exported->binding());

  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> bound =
        co_await Acquire<ICounter>(*w.client_ctx, "rev");
    CO_ASSERT_OK(bound);
    CO_ASSERT_OK(co_await (*bound)->Read());
    exported->Revoke();
    Result<std::int64_t> denied = co_await (*bound)->Read();
    EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  };
  w.Run(body);
}

TEST(ServiceExport, WithdrawMakesNotFoundNotDenied) {
  TestWorld w;
  auto impl = std::make_shared<CounterService>(1);
  auto dispatch = services::MakeCounterDispatch(impl);
  auto exported = ServiceExport<ICounter>::Create(*w.server_ctx, impl,
                                                  dispatch, 1, impl);
  ASSERT_OK(exported);
  w.Publish("wd", exported->binding());

  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<ICounter>> bound =
        co_await Acquire<ICounter>(*w.client_ctx, "wd");
    CO_ASSERT_OK(bound);
    exported->Withdraw();
    Result<std::int64_t> gone = co_await (*bound)->Read();
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

TEST(ServiceExport, PublishThenAcquireByName) {
  TestWorld w;
  auto impl = std::make_shared<CounterService>(3);
  auto dispatch = services::MakeCounterDispatch(impl);
  auto exported = ServiceExport<ICounter>::Create(*w.server_ctx, impl,
                                                  dispatch, 1, impl);
  ASSERT_OK(exported);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await exported->Publish("pub/counter"));
    Result<std::shared_ptr<ICounter>> bound =
        co_await Acquire<ICounter>(*w.client_ctx, "pub/counter");
    CO_ASSERT_OK(bound);
    Result<std::int64_t> v = co_await (*bound)->Read();
    CO_ASSERT_OK(v);
    EXPECT_EQ(*v, 3);
  };
  w.Run(body);
}

// --- invalidation-callback coherence: the wire bytes are pinned ---

std::string Hex(BytesView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// A dispatch that records the argument bytes of every call to `method`
/// and answers with rpc::Void.
std::shared_ptr<rpc::Dispatch> Recorder(std::uint32_t method,
                                        std::vector<Bytes>* log) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  dispatch->Register(
      method,
      [log](BytesView args,
            const obs::TraceContext&) -> sim::Co<Result<Bytes>> {
        log->emplace_back(args.begin(), args.end());
        co_return serde::EncodeToBytes(rpc::Void{});
      });
  return dispatch;
}

constexpr std::uint32_t kSubscribeMethod = 5;   // KV and File alike
constexpr std::uint32_t kInvalidateMethod = 1;  // on the sink

TEST(Coherence, SubscribeRequestBytesArePinned) {
  TestWorld w;
  // A stand-in server that answers only the subscribe call: the caching
  // proxies' first read subscribes, then fails at the stand-in.
  std::vector<Bytes> subscribes;
  const ObjectId fake{0x0102030405060708ULL, 0x1112131415161718ULL};
  ASSERT_OK(w.server_ctx->server().ExportObject(
      fake, Recorder(kSubscribeMethod, &subscribes)));
  ServiceBinding kv_binding;
  kv_binding.server = w.server_ctx->server_address();
  kv_binding.object = fake;
  kv_binding.interface = InterfaceIdOf(IKeyValue::kInterfaceName);
  kv_binding.protocol = 2;
  ServiceBinding file_binding = kv_binding;
  file_binding.interface = InterfaceIdOf(services::IFile::kInterfaceName);
  {
    services::KvCachingProxy kv(*w.client_ctx, kv_binding);
    services::FileCachingProxy file(*w.client_ctx, file_binding);
    auto body = [&]() -> sim::Co<void> {
      std::string key = "k";
      (void)co_await kv.Get(std::move(key));
      (void)co_await file.Read(0, 16);
    };
    w.Run(body);
  }
  ASSERT_EQ(subscribes.size(), 2u);
  // (sink_server, sink_object): the client context's server address and
  // the sink id each proxy minted at construction.
  EXPECT_EQ(Hex(View(subscribes[0])),
            "018080021fd209f8a1408532d458b175e63e274e");
  EXPECT_EQ(Hex(View(subscribes[1])),
            "0180800214f6c666488c88006909df258309b20b");
}

TEST(Coherence, InvalidationAndSnapshotBytesArePinned) {
  TestWorld w;
  auto kv = services::ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(kv);
  auto file = services::ExportFileService(*w.server_ctx, 2);
  ASSERT_OK(file);
  // One recording sink per service, at fixed ids, subscribed over the
  // wire exactly as a caching proxy's sink would be.
  std::vector<Bytes> kv_msgs;
  std::vector<Bytes> file_msgs;
  const ObjectId kv_sink{0xa1, 0xa2};
  const ObjectId file_sink{0xb1, 0xb2};
  ASSERT_OK(w.client_ctx->server().ExportObject(
      kv_sink, Recorder(kInvalidateMethod, &kv_msgs)));
  ASSERT_OK(w.client_ctx->server().ExportObject(
      file_sink, Recorder(kInvalidateMethod, &file_msgs)));
  auto subscribe = [&](const ServiceBinding& target, ObjectId sink) {
    serde::Writer req;
    serde::Serialize(req, w.client_ctx->server_address());
    serde::Serialize(req, sink);
    rpc::RpcResult r = w.rt->Await(w.client_ctx->client().Call(
        target.server, target.object, kSubscribeMethod, req.Take()));
    EXPECT_TRUE(r.ok()) << r.status.ToString();
  };
  subscribe(kv->binding, kv_sink);
  subscribe(file->binding, file_sink);

  ASSERT_OK(w.rt->Run(kv->impl->Put("k", "v")));
  ASSERT_OK(w.rt->Run(file->impl->Write(3, Bytes{1, 2, 3})));
  w.rt->scheduler().RunFor(Milliseconds(10));  // deliver the notifications

  ASSERT_EQ(kv_msgs.size(), 1u);
  EXPECT_EQ(Hex(View(kv_msgs[0])), "01016b");  // keys ["k"]
  ASSERT_EQ(file_msgs.size(), 1u);
  EXPECT_EQ(Hex(View(file_msgs[0])), "0303");  // offset 3, length 3
  // data {"k": "v"}, then the subscriber list [(client server, kv_sink)].
  EXPECT_EQ(Hex(View(kv->impl->SnapshotState())),
            "01016b01760101808002a100000000000000a200000000000000");
  // content 00 00 00 01 02 03, then [(client server, file_sink)].
  EXPECT_EQ(Hex(View(file->impl->SnapshotState())),
            "060000000102030101808002b100000000000000b200000000000000");
}

// --- one-value replies: each method's reply bytes are pinned ---

TEST(ReplyWire, OneValueReplyBytesArePinned) {
  TestWorld w;
  Result<services::KvExport> kv = services::ExportKvService(*w.server_ctx);
  Result<services::FileExport> file =
      services::ExportFileService(*w.server_ctx);
  Result<services::CounterExport> counter =
      services::ExportCounterService(*w.server_ctx, 1, 5);
  Result<services::LockExport> lock =
      services::ExportLockService(*w.server_ctx);
  Result<services::SpoolerExport> spool =
      services::ExportSpoolerService(*w.server_ctx);
  ASSERT_OK(kv);
  ASSERT_OK(file);
  ASSERT_OK(counter);
  ASSERT_OK(lock);
  ASSERT_OK(spool);
  kv->impl->Store("a", "v");
  kv->impl->Store("b", "w");
  file->impl->FillPattern(3);
  ServiceBinding names;
  names.server = w.server_ctx->names().server();
  names.object = naming::kNameServiceObject;
  ServiceBinding map;
  map.server = w.server_ctx->server_address();
  map.object = ObjectId{0x5a, 0x5b};
  ASSERT_OK(w.server_ctx->server().ExportObject(
      map.object, services::MakeShardMapDispatch(
                      std::make_shared<services::ShardMapService>(
                          *w.server_ctx,
                          services::MakeInitialShardMap(2, {"g0", "g1"})))));
  // The reply payload of one raw call, in hex.
  auto reply = [&](const ServiceBinding& target, auto method,
                   const auto& req) {
    const Bytes args = serde::EncodeToBytes(req);
    rpc::RpcResult r = w.rt->Await(w.client_ctx->client().Call(
        target.server, target.object, method.id, View(args)));
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return Hex(r.payload.view());
  };
  const rpc::Void none;

  namespace kvw = services::kvwire;
  EXPECT_EQ(reply(kv->binding, kvw::kGet, kvw::GetRequest{"a"}), "010176");
  EXPECT_EQ(reply(kv->binding, kvw::kGet, kvw::GetRequest{"z"}), "00");
  EXPECT_EQ(reply(kv->binding, kvw::kSize, none), "02");
  EXPECT_EQ(reply(kv->binding, kvw::kList, kvw::ListRequest{""}),
            "0201610162");
  EXPECT_EQ(reply(kv->binding, kvw::kDel, kvw::DelRequest{"b", ObjectId{}}),
            "01");
  EXPECT_EQ(reply(kv->binding, kvw::kDel, kvw::DelRequest{"b", ObjectId{}}),
            "00");

  namespace fw = services::filewire;
  EXPECT_EQ(reply(file->binding, fw::kRead, fw::ReadRequest{0, 8}),
            "0307e027");
  EXPECT_EQ(reply(file->binding, fw::kSize, none), "03");

  namespace cw = services::counterwire;
  // Signed values are zigzag varints: 5 - 7 = -2 is 03.
  EXPECT_EQ(reply(counter->binding, cw::kIncrement, cw::IncrementRequest{-7}),
            "03");
  EXPECT_EQ(reply(counter->binding, cw::kRead, none), "03");

  namespace lw = services::lockwire;
  EXPECT_EQ(reply(lock->binding, lw::kTryAcquire, lw::LockRequest{"m", 9}),
            "01");
  EXPECT_EQ(reply(lock->binding, lw::kTryAcquire, lw::LockRequest{"m", 4}),
            "00");
  EXPECT_EQ(reply(lock->binding, lw::kHolder, lw::HolderRequest{"m"}), "0109");
  EXPECT_EQ(reply(lock->binding, lw::kHolder, lw::HolderRequest{"free"}),
            "00");

  namespace sw = services::spoolwire;
  const services::SpoolJob job{"j", Bytes{}};
  EXPECT_EQ(reply(spool->binding, sw::kSubmit, sw::SubmitRequest{job}), "00");
  EXPECT_EQ(reply(spool->binding, sw::kSubmitMany,
                  sw::SubmitManyRequest{{job, job}}),
            "01");
  w.rt->scheduler().RunFor(Milliseconds(10));  // the device runs all three
  EXPECT_EQ(reply(spool->binding, sw::kCompleted, none), "03");

  naming::NameRecord record;
  record.binding.server = net::Address{NodeId(1), PortId(2)};
  record.binding.object = ObjectId{3, 4};
  record.binding.interface = InterfaceId(5);
  EXPECT_EQ(reply(names, naming::kRegister,
                  naming::RegisterRequest{"s", record, false}),
            "00");
  // kind 1, binding (node 1, port 2, object 3:4, interface 5, protocol
  // 1), directory server (0, 0), lease 0.
  const std::string record_hex =
      "01010203000000000000000400000000000000050000000000000001000000";
  EXPECT_EQ(reply(names, naming::kLookup, naming::LookupRequest{"s"}),
            record_hex);
  EXPECT_EQ(reply(names, naming::kList, naming::ListRequest{""}),
            "010173" + record_hex);

  // The shard map itself, as the one-field GetShardMapResponse carried
  // it: version 1, 2 shards, groups ["g0", "g1"], owners [0, 1], shard
  // epochs [1, 1].
  EXPECT_EQ(reply(map, services::shardwire::kGetShardMap, none),
            "010202026730026731020001020101");
}

// --- per-call event budget: no coroutine layer where nothing suspends ---

/// Scheduler events `call` runs, driven through Runtime::Run on a
/// runtime with nothing else in flight.
template <typename T>
std::uint64_t EventsOf(Runtime& rt, sim::Co<T> call, T* out) {
  const std::uint64_t before = rt.scheduler().events_run();
  *out = rt.Run(std::move(call));
  return rt.scheduler().events_run() - before;
}

TEST(EventBudget, WarmStubIncrementRunsSixEvents) {
  TestWorld w;
  Result<services::CounterExport> exported =
      services::ExportCounterService(*w.server_ctx);
  ASSERT_OK(exported);
  services::CounterStub stub(*w.client_ctx, exported->binding);
  Result<std::int64_t> value = 0;
  EventsOf(*w.rt, stub.Increment(1), &value);  // warm-up
  ASSERT_OK(value);
  // Increment is a forward: it returns ProxyBase::CallRaw's coroutine.
  // 1. the request datagram reaches the server node;
  // 2. the typed skeleton completes and resumes RpcServer::Execute, which
  //    sends the reply (the handler and CounterService::Add run inline);
  // 3. Execute completes and resumes its detached root;
  // 4. the reply datagram reaches the client, completing the call future;
  // 5. the future wakes CallRaw, which decodes the reply in place;
  // 6. CallRaw completes and resumes Runtime::Run's root.
  EXPECT_EQ(EventsOf(*w.rt, stub.Increment(1), &value), 6u);
  ASSERT_OK(value);
  EXPECT_EQ(*value, 2);
}

TEST(EventBudget, WarmStubGetRunsSixEvents) {
  TestWorld w;
  Result<services::KvExport> exported =
      services::ExportKvService(*w.server_ctx);
  ASSERT_OK(exported);
  exported->impl->Store("k", "v");
  services::KvStub stub(*w.client_ctx, exported->binding);
  Result<std::optional<std::string>> got = std::optional<std::string>();
  EventsOf(*w.rt, stub.Get("k"), &got);  // warm-up
  ASSERT_OK(got);
  // The same six as Increment's: Get returns CallRaw's coroutine, and
  // KvService::Lookup runs inline in the typed skeleton.
  EXPECT_EQ(EventsOf(*w.rt, stub.Get("k"), &got), 6u);
  ASSERT_OK(got);
  EXPECT_EQ(*got, std::optional<std::string>("v"));
}

TEST(EventBudget, WarmCachingGetHitRunsOneEvent) {
  TestWorld w;
  Result<services::KvExport> exported =
      services::ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  services::KvCachingProxy proxy(*w.client_ctx, exported->binding);
  Result<rpc::Void> put = rpc::Void{};
  EventsOf(*w.rt, proxy.Put("k", "v"), &put);  // subscribes, caches "k"
  ASSERT_OK(put);
  Result<std::optional<std::string>> hit = std::optional<std::string>();
  // The warm subscribe check and the cache lookup run inline; the one
  // event is Get's completion resuming Runtime::Run's root.
  EXPECT_EQ(EventsOf(*w.rt, proxy.Get("k"), &hit), 1u);
  ASSERT_OK(hit);
  EXPECT_EQ(*hit, std::optional<std::string>("v"));
  EXPECT_EQ(proxy.cache_stats().hits, 1u);
}

TEST(EventBudget, WarmWriteBackGetHitRunsOneEvent) {
  TestWorld w;
  Result<services::KvExport> exported =
      services::ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  exported->impl->Store("k", "v");
  services::KvWriteBackProxy proxy(*w.client_ctx, exported->binding);
  Result<std::optional<std::string>> hit = std::optional<std::string>();
  EventsOf(*w.rt, proxy.Get("k"), &hit);  // subscribes, caches "k"
  ASSERT_OK(hit);
  // "k" is clean, so Get is the caching proxy's own coroutine: as there,
  // the one event is its completion resuming Runtime::Run's root.
  EXPECT_EQ(EventsOf(*w.rt, proxy.Get("k"), &hit), 1u);
  ASSERT_OK(hit);
  EXPECT_EQ(*hit, std::optional<std::string>("v"));
  EXPECT_EQ(proxy.cache_stats().hits, 1u);
}

TEST(EventBudget, IdleBatchingCompletedCountRunsWhatTheStubRuns) {
  TestWorld w;
  Result<services::SpoolerExport> exported =
      services::ExportSpoolerService(*w.server_ctx);
  ASSERT_OK(exported);
  services::SpoolerStub stub(*w.client_ctx, exported->binding);
  services::SpoolerBatchProxy proxy(*w.client_ctx, exported->binding);
  Result<std::uint64_t> count = 0;
  EventsOf(*w.rt, stub.CompletedCount(), &count);   // warm-up
  EventsOf(*w.rt, proxy.CompletedCount(), &count);  // warm-up
  ASSERT_OK(count);
  // Nothing buffered, so Batcher::After returns the call itself: the
  // proxy runs the stub's six events (as WarmStubIncrementRunsSixEvents
  // lists them), with no barrier coroutine in front.
  EXPECT_EQ(EventsOf(*w.rt, stub.CompletedCount(), &count), 6u);
  ASSERT_OK(count);
  EXPECT_EQ(EventsOf(*w.rt, proxy.CompletedCount(), &count), 6u);
  ASSERT_OK(count);
  EXPECT_EQ(*count, 0u);
}

// --- ProxyBase::Call: the typed reply surfaces an undecodable reply ---

/// A proxy whose only interface is ProxyBase's typed call.
class BareProxy : public ProxyBase {
 public:
  using ProxyBase::Call;
  using ProxyBase::ProxyBase;
};

/// Two strings: a counter's one-varint reply never decodes as it.
struct TwoStrings {
  std::string a;
  std::string b;
  PROXY_SERDE_FIELDS(a, b)
};

TEST(ProxyCall, UndecodableReplySurfacesCorrupt) {
  TestWorld w;
  Result<services::CounterExport> exported =
      services::ExportCounterService(*w.server_ctx, 1, 5);
  ASSERT_OK(exported);
  BareProxy proxy(*w.client_ctx, exported->binding);
  // The counter's Read, deliberately declared with the wrong reply type,
  // as a stub that disagrees with its skeleton would.
  constexpr rpc::Method<rpc::Void, TwoStrings> kMisdeclaredRead{
      services::counterwire::kRead.id};
  auto body = [&]() -> sim::Co<void> {
    const rpc::Void none;
    Result<std::int64_t> read =
        co_await proxy.Call(services::counterwire::kRead, none);
    CO_ASSERT_OK(read);
    EXPECT_EQ(*read, 5);
    Result<TwoStrings> wrong = co_await proxy.Call(kMisdeclaredRead, none);
    EXPECT_EQ(wrong.status().code(), StatusCode::kCorrupt);
  };
  w.Run(body);
  // The call itself succeeded: the failure is the decode's alone.
  EXPECT_EQ(proxy.proxy_stats().failed_calls, 0u);
}

TEST(Binding, ToStringAndEquality) {
  ServiceBinding a;
  a.server = net::Address{NodeId(1), PortId(2)};
  a.object = ObjectId{3, 4};
  a.interface = InterfaceIdOf("x");
  a.protocol = 2;
  ServiceBinding b = a;
  EXPECT_EQ(a, b);
  b.protocol = 3;
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString().find("proto2"), std::string::npos);
}

}  // namespace
}  // namespace proxy::core
