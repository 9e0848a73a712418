// Overload battery: admission control at the server, pushback and the
// retry governors at the client, and the graceful-degradation hooks in
// the proxies above them.
//
// Server side: the bounded admission queue enforces its concurrency
// ceiling and depth bound, serves the queue strictly by priority (and
// evicts lowest-priority first when it overflows), fast-rejects with
// RESOURCE_EXHAUSTED + retry-after when there is nothing better to do,
// caches those rejections so a retransmission of a shed call can never
// execute, and sheds queued work whose deadline already expired.
//
// Client side: ProxyBase honors the retry-after hint (bounded pushback
// backoff), the per-destination token bucket and the shared per-operation
// attempt budget stop retry storms, and the degradation hooks take over
// when exhaustion finally surfaces — the caching proxy serves its stale
// pool, the shard router stops offering work to a shedding group.
//
// Labelled `overload` (ctest -L overload) so check.sh can run the
// battery on its own under every preset.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/factory.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "net/endpoint.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/server.h"
#include "rpc/stub.h"
#include "serde/traits.h"
#include "services/kv.h"
#include "services/register_all.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"
#include "sim/network.h"
#include "sim/task.h"
#include "test_util.h"

namespace proxy {
namespace {

using proxy::testing::PingRequest;
using proxy::testing::PingResponse;
using proxy::testing::TestWorld;

// --- fixture: a two-node pair whose handler burns virtual service time,
// so a bounded-concurrency server can actually be saturated -------------

struct SlowWorld {
  SlowWorld(std::uint64_t seed, SimDuration service_time)
      : service(service_time), net(sched, seed) {
    node_client = net.AddNode("client");
    node_server = net.AddNode("server");
    stack_client = std::make_unique<net::NodeStack>(net, node_client);
    stack_server = std::make_unique<net::NodeStack>(net, node_server);
    client = std::make_unique<rpc::RpcClient>(*stack_client->OpenEphemeral(),
                                              seed ^ 0xFA17u);
    server_ep = stack_server->OpenEndpoint(PortId(40));
    server = std::make_unique<rpc::RpcServer>(*server_ep);
    object = ObjectId{1, 1};
    auto dispatch = std::make_shared<rpc::Dispatch>();
    rpc::RegisterTyped<PingRequest, PingResponse>(
        *dispatch, 1,
        [this](PingRequest req,
               const rpc::CallContext&) -> sim::Co<Result<PingResponse>> {
          co_await sim::SleepFor(sched, service);
          co_return PingResponse{req.id};
        });
    EXPECT_TRUE(server->ExportObject(object, dispatch).ok());
  }

  sim::Future<rpc::RpcResult> Call(std::uint32_t id,
                                   const rpc::CallOptions& options) {
    return client->Call(server_ep->address(), object, 1,
                        serde::EncodeToBytes(PingRequest{id}), options);
  }

  SimDuration service;
  sim::Scheduler sched;
  sim::Network net;
  NodeId node_client, node_server;
  std::unique_ptr<net::NodeStack> stack_client, stack_server;
  std::unique_ptr<rpc::RpcClient> client;
  net::Endpoint* server_ep = nullptr;
  std::unique_ptr<rpc::RpcServer> server;
  ObjectId object;
};

rpc::CallOptions NoRetryOptions(SimDuration deadline) {
  rpc::CallOptions o;
  o.deadline = deadline;
  o.max_retries = 0;
  o.retry_interval = Milliseconds(1000);  // never fires within `deadline`
  return o;
}

// --- the admission queue itself ----------------------------------------

TEST(Overload, ConcurrencyCeilingAndQueueBoundHold) {
  SlowWorld w(/*seed=*/11, Milliseconds(10));
  w.server->set_admission(/*max_concurrency=*/2, /*queue_capacity=*/3,
                          Milliseconds(1));

  const rpc::CallOptions options = NoRetryOptions(Milliseconds(200));
  std::vector<sim::Future<rpc::RpcResult>> calls;
  for (std::uint32_t i = 0; i < 10; ++i) calls.push_back(w.Call(i, options));

  // Sample the server while the burst drains: the ceiling and the depth
  // bound must hold at every instant, not just at the end.
  auto all_ready = [&calls] {
    for (const auto& f : calls)
      if (!f.ready()) return false;
    return true;
  };
  while (!all_ready()) {
    EXPECT_LE(w.server->admission_running(), 2u);
    EXPECT_LE(w.server->admission_queue_depth(), 3u);
    w.sched.RunFor(Microseconds(500));
  }

  // 2 ran at once, 3 waited, 5 were pushed back with a usable hint.
  int ok = 0;
  int rejected = 0;
  for (auto& f : calls) {
    rpc::RpcResult r = f.take();
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
          << r.status.ToString();
      EXPECT_GT(r.retry_after, 0u);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(rejected, 5);
  EXPECT_EQ(w.server->stats().executions.value(), 5u);
  EXPECT_EQ(w.server->stats().admission_queued.value(), 3u);
  EXPECT_EQ(w.server->stats().admission_rejected.value(), 5u);
  EXPECT_EQ(w.server->admission_queue_peak(), 3u);
  EXPECT_EQ(w.server->admission_running(), 0u);
  EXPECT_EQ(w.server->admission_queue_depth(), 0u);
}

TEST(Overload, QueueServesByPriorityAndEvictsLowestFirst) {
  SlowWorld w(/*seed=*/12, Milliseconds(10));
  w.server->set_admission(/*max_concurrency=*/1, /*queue_capacity=*/2,
                          Milliseconds(1));
  const rpc::CallOptions base = NoRetryOptions(Milliseconds(300));

  // Occupy the single slot.
  auto running = w.Call(0, base);
  w.sched.RunFor(Milliseconds(2));

  // Two background (kLow) calls fill the queue.
  rpc::CallOptions low = base;
  low.priority = rpc::Priority::kLow;
  auto low1 = w.Call(1, low);
  auto low2 = w.Call(2, low);
  w.sched.RunFor(Milliseconds(1));
  EXPECT_EQ(w.server->admission_queue_depth(), 2u);

  // A normal and then a high arrival displace them one by one: the queue
  // is full, but each newcomer outranks a waiting kLow.
  auto normal = w.Call(3, base);
  w.sched.RunFor(Milliseconds(1));
  rpc::CallOptions high = base;
  high.priority = rpc::Priority::kHigh;
  auto high1 = w.Call(4, high);
  w.sched.RunFor(Milliseconds(1));

  ASSERT_TRUE(low1.ready());
  ASSERT_TRUE(low2.ready());
  EXPECT_EQ(low1.take().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(low2.take().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w.server->stats().admission_evicted.value(), 2u);
  EXPECT_EQ(w.server->admission_queue_depth(), 2u);

  // The slot frees: the queue drains strictly best-first — kHigh runs to
  // completion before kNormal, though kNormal arrived first.
  w.sched.RunUntil([&high1] { return high1.ready(); });
  EXPECT_TRUE(high1.take().ok());
  EXPECT_FALSE(normal.ready());
  w.sched.RunUntil([&normal] { return normal.ready(); });
  EXPECT_TRUE(normal.take().ok());
  EXPECT_TRUE(running.take().ok());
}

TEST(Overload, RejectionsAreReplyCachedSoShedMeansNeverExecuted) {
  SlowWorld w(/*seed=*/13, Milliseconds(20));
  w.server->set_admission(/*max_concurrency=*/1, /*queue_capacity=*/0,
                          Milliseconds(2));

  // Occupy the slot; every other arrival must be fast-rejected.
  auto running = w.Call(0, NoRetryOptions(Milliseconds(100)));
  w.sched.RunFor(Milliseconds(2));

  // A hand-rolled caller, so the *same* CallId can be retransmitted
  // verbatim — the RpcClient would mint a fresh seq per Call().
  net::Endpoint* raw = w.stack_client->OpenEphemeral();
  std::vector<rpc::ReplyFrame> replies;
  raw->SetHandler([&replies](const net::Address&, OwnedBytes payload) {
    Result<rpc::ReplyFrame> reply = rpc::DecodeReply(payload.view());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    replies.push_back(std::move(*reply));
  });
  rpc::RequestFrame frame;
  frame.call = rpc::CallId{/*client_nonce=*/999, /*seq=*/1};
  frame.object = w.object;
  frame.method = 1;
  const Bytes args = serde::EncodeToBytes(PingRequest{7});
  frame.args = View(args);
  frame.deadline = w.sched.now() + Milliseconds(100);
  const Bytes wire = rpc::EncodeRequest(frame);

  EXPECT_TRUE(raw->Send(w.server_ep->address(), View(wire)).ok());
  w.sched.RunFor(Milliseconds(2));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].code, StatusCode::kResourceExhausted);
  EXPECT_GT(replies[0].retry_after, 0u);
  EXPECT_EQ(w.server->stats().admission_rejected.value(), 1u);

  // The retransmission is answered from the reply cache: the identical
  // rejection (hint included), no second admission decision, and — the
  // invariant the cache exists for — no execution, ever.
  EXPECT_TRUE(raw->Send(w.server_ep->address(), View(wire)).ok());
  w.sched.RunFor(Milliseconds(2));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].code, StatusCode::kResourceExhausted);
  EXPECT_EQ(replies[1].retry_after, replies[0].retry_after);
  EXPECT_EQ(w.server->stats().admission_rejected.value(), 1u);
  EXPECT_EQ(w.server->stats().duplicate_suppressed.value(), 1u);
  EXPECT_EQ(w.server->stats().executions.value(), 1u);  // the occupant

  w.sched.RunUntil([&running] { return running.ready(); });
  EXPECT_TRUE(running.take().ok());
  EXPECT_EQ(w.server->stats().executions.value(), 1u);
}

TEST(Overload, QueuedWorkPastItsDeadlineIsShedNotExecuted) {
  SlowWorld w(/*seed=*/14, Milliseconds(20));
  w.server->set_admission(/*max_concurrency=*/1, /*queue_capacity=*/4,
                          Milliseconds(1));

  auto running = w.Call(0, NoRetryOptions(Milliseconds(100)));
  w.sched.RunFor(Milliseconds(2));

  // Queued behind 20ms of work with a 10ms deadline: by the time the
  // slot frees, nobody wants the answer — the server must not burn a
  // handler slot computing it.
  auto doomed = w.Call(1, NoRetryOptions(Milliseconds(10)));
  w.sched.RunFor(Milliseconds(1));
  EXPECT_EQ(w.server->admission_queue_depth(), 1u);

  w.sched.RunUntil([&running] { return running.ready(); });
  EXPECT_TRUE(running.take().ok());
  w.sched.RunFor(Milliseconds(5));
  ASSERT_TRUE(doomed.ready());
  EXPECT_EQ(doomed.take().status.code(), StatusCode::kTimeout);
  EXPECT_EQ(w.server->stats().shed_expired_queued.value(), 1u);
  EXPECT_EQ(w.server->stats().executions.value(), 1u);
  EXPECT_EQ(w.server->admission_queue_depth(), 0u);
}

// --- client-side retry governors ---------------------------------------

TEST(Overload, RetryBudgetBoundsRetransmissionsWhenNothingSucceeds) {
  // A partition with a generous per-call retry schedule: without the
  // per-destination token bucket the client would retransmit ~19 times
  // within the deadline.
  proxy::testing::RpcWorld w(/*seed=*/15);
  rpc::RpcClient::RetryBudgetParams tight;
  tight.initial_tokens = 4.0;
  tight.max_tokens = 4.0;
  tight.refill_per_success = 0.5;
  w.client->set_retry_budget_params(tight);
  w.Partition(true);

  rpc::CallOptions options;
  options.retry_interval = Milliseconds(5);
  options.max_backoff = Milliseconds(5);  // flat schedule: ~40 slots
  options.max_retries = 100;
  options.deadline = Milliseconds(200);
  EXPECT_EQ(w.CallSync(1, options).status.code(), StatusCode::kTimeout);

  const rpc::ClientStats& stats = w.client->stats();
  EXPECT_LE(stats.retransmissions.value(), 4u);
  EXPECT_GE(stats.retry_budget_stops.value(), 1u);

  // Ablation: the chaos fault hook that disables the governors restores
  // the retry storm the budget exists to prevent.
  proxy::testing::RpcWorld storm(/*seed=*/15);
  storm.client->set_retry_budget_params(tight);
  storm.client->set_testing_retry_governors(false);
  storm.Partition(true);
  EXPECT_EQ(storm.CallSync(1, options).status.code(), StatusCode::kTimeout);
  EXPECT_GE(storm.client->stats().retransmissions.value(), 10u);
  EXPECT_EQ(storm.client->stats().retry_budget_stops.value(), 0u);
}

TEST(Overload, SharedAttemptBudgetCapsRetransmissionsAcrossCalls) {
  rpc::RpcClient::BreakerParams no_breaker;
  no_breaker.open_after = 1 << 30;
  proxy::testing::RpcWorld w(/*seed=*/16, no_breaker);
  w.Partition(true);

  // One logical operation spanning two RPC hops (the failover-proxy
  // shape): both share one attempt budget, so the pair cannot spend more
  // retransmissions than the operation was granted.
  rpc::AttemptBudget budget(3);
  rpc::CallOptions options;
  options.retry_interval = Milliseconds(5);
  options.max_retries = 100;
  options.deadline = Milliseconds(100);
  options.attempt_budget = &budget;
  EXPECT_EQ(w.CallSync(1, options).status.code(), StatusCode::kTimeout);
  EXPECT_EQ(w.CallSync(2, options).status.code(), StatusCode::kTimeout);

  EXPECT_LE(w.client->stats().retransmissions.value(), 3u);
  EXPECT_GE(w.client->stats().attempt_budget_stops.value(), 1u);
  EXPECT_FALSE(budget.TryConsume());
}

// --- pushback and the degradation hooks --------------------------------

/// Exports a KV service whose kPut burns `put_service` of virtual time
/// (the other methods stay instant), so one write can pin a
/// bounded-concurrency server.
struct SlowPutKv {
  SlowPutKv(core::Context& ctx, SimDuration put_service) {
    impl = std::make_shared<services::KvService>(ctx);
    auto dispatch = services::MakeKvDispatch(impl);
    sim::Scheduler& sched = ctx.scheduler();
    dispatch->Register(
        services::kvwire::kPut,
        [this, &sched, put_service](
            BytesView args,
            const rpc::CallContext&) -> sim::Co<Result<Bytes>> {
          Result<services::kvwire::PutRequest> req =
              serde::DecodeFromBytes<services::kvwire::PutRequest>(args);
          if (!req.ok()) co_return req.status();
          co_await sim::SleepFor(sched, put_service);
          impl->Store(req->key, req->value, req->exclude_sink);
          co_return serde::EncodeToBytes(rpc::Void{});
        });
    binding.object = ctx.MintObjectId();
    binding.server = ctx.server_address();
    binding.interface = InterfaceIdOf(services::IKeyValue::kInterfaceName);
    binding.protocol = 1;
    EXPECT_TRUE(ctx.server().ExportObject(binding.object, dispatch).ok());
  }

  std::shared_ptr<services::KvService> impl;
  core::ServiceBinding binding;
};

TEST(Overload, ProxyHonorsRetryAfterAndGetsThroughAfterBackoff) {
  TestWorld w(/*seed=*/51);
  // 3ms of write service; one slot, no queue, 2ms base hint. Two bounded
  // pushback waits (each >= the hint) always outlast the occupant.
  SlowPutKv kv(*w.server_ctx, Milliseconds(3));
  w.server_ctx->server().set_admission(1, 0, Milliseconds(2));

  core::Context& victim_ctx =
      w.rt->CreateContext(w.client_node, "client-victim");
  services::KvStub occupant(*w.client_ctx, kv.binding);
  services::KvStub victim(victim_ctx, kv.binding);
  occupant.set_call_options(NoRetryOptions(Milliseconds(50)));
  victim.set_call_options(NoRetryOptions(Milliseconds(50)));

  auto occupy = [&]() -> sim::Co<void> {
    Result<rpc::Void> r = co_await occupant.Put("k", "v");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  sim::Future<bool> held = sim::Spawn(w.rt->scheduler(), occupy());
  w.rt->scheduler().RunFor(Microseconds(500));

  // The victim's first offer is rejected with a retry-after hint; the
  // proxy waits it out (plus jitter) instead of hammering, and the
  // retried call lands once the slot frees — the caller never sees the
  // rejection.
  auto read = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> r = co_await victim.Get("k");
    CO_ASSERT_OK(r);
    CO_ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v");  // the occupant's write finished first
  };
  w.Run(read);
  EXPECT_GE(victim.proxy_stats().pushback_backoffs.value(), 1u);
  EXPECT_LE(victim.proxy_stats().pushback_backoffs.value(),
            static_cast<std::uint64_t>(core::ProxyBase::kMaxPushbackRetries));
  EXPECT_GE(victim_ctx.client().stats().rejected_pushback.value(), 1u);
  w.rt->scheduler().RunUntil([&held] { return held.ready(); });
}

TEST(Overload, CachingProxyServesStaleOnShedInsteadOfFailing) {
  TestWorld w(/*seed=*/61);
  // 30ms of write service: far longer than the proxy's bounded pushback
  // schedule, so a Get offered while a write holds the slot is shed for
  // good and the stale fallback must answer.
  SlowPutKv kv(*w.server_ctx, Milliseconds(30));

  services::KvCachingProxy proxy(*w.client_ctx, kv.binding);
  core::Context& other_ctx = w.rt->CreateContext(w.client_node, "client-2");
  services::KvStub other(other_ctx, kv.binding);
  other.set_call_options(NoRetryOptions(Milliseconds(100)));

  // Admission stays off while the caches warm: the proxy writes v1
  // (write-through populates both the coherent cache and the stale
  // pool), then an uncached writer replaces it with v2, whose
  // invalidation evicts the coherent entry but — by design — not the
  // stale one.
  auto warm = [&]() -> sim::Co<void> {
    Result<rpc::Void> r = co_await proxy.Put("k", "v1");
    CO_ASSERT_OK(r);
  };
  w.Run(warm);
  auto clobber = [&]() -> sim::Co<void> {
    Result<rpc::Void> r = co_await other.Put("k", "v2");
    CO_ASSERT_OK(r);
  };
  w.Run(clobber);
  w.rt->scheduler().RunFor(Milliseconds(5));  // invalidation delivery

  // Overload: one slot, no queue, and a 30ms write pinning it.
  w.server_ctx->server().set_admission(1, 0, Milliseconds(1));
  auto occupy = [&]() -> sim::Co<void> {
    Result<rpc::Void> r = co_await other.Put("pin", "x");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  sim::Future<bool> held = sim::Spawn(w.rt->scheduler(), occupy());
  w.rt->scheduler().RunFor(Microseconds(500));

  // The coherent entry is gone, the remote read is shed — and the proxy
  // degrades to the last value it ever observed rather than failing.
  // Stale by construction: the true value is v2.
  auto read = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> r = co_await proxy.Get("k");
    CO_ASSERT_OK(r);
    CO_ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v1");
  };
  w.Run(read);
  EXPECT_EQ(proxy.stale_served(), 1u);
  w.rt->scheduler().RunUntil([&held] { return held.ready(); });

  // Once the overload clears, reads are coherent again (v2), and the
  // stale pool silently re-learns the fresh value.
  auto read_fresh = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> r = co_await proxy.Get("k");
    CO_ASSERT_OK(r);
    CO_ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v2");
  };
  w.Run(read_fresh);
  EXPECT_EQ(proxy.stale_served(), 1u);
}

TEST(Overload, ShardRouterStopsOfferingWorkToASheddingGroup) {
  services::RegisterAllServices();
  core::Runtime::Params params;
  params.seed = 71;
  core::Runtime rt(params);
  rt.StartNameService(rt.AddNode("ns"));
  core::Context& map_ctx = rt.CreateContext(rt.AddNode("map"), "map");
  core::Context& client_ctx = rt.CreateContext(rt.AddNode("client"), "client");
  core::Context& replica_ctx = rt.CreateContext(rt.AddNode("g0-r0"), "g0-r0");

  services::ShardedKvParams sparams;
  sparams.name = "app/kv";
  sparams.num_shards = 4;
  sparams.group.lease.ttl_ns = Milliseconds(150);
  sparams.group.lease.renew_fraction = 0.4;
  // Kept alive for the whole test: the export owns the map service and
  // the replica-group machinery. (The context matrix is built outside
  // the coroutine — see DESIGN.md toolchain notes on braced init lists
  // inside co_await expressions.)
  std::vector<std::vector<core::Context*>> group_ctxs{{&replica_ctx}};
  services::ShardedKvExport skv;
  auto export_all = [&]() -> sim::Co<void> {
    Result<services::ShardedKvExport> exported = co_await
        services::ExportShardedKv(map_ctx, std::move(group_ctxs),
                                  std::move(sparams));
    CO_ASSERT_OK(exported);
    skv = std::move(*exported);
  };
  rt.Run(export_all());
  rt.scheduler().RunFor(Milliseconds(40));  // lease publishes the group name

  std::shared_ptr<services::IKeyValue> kv;
  auto bind = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<services::IKeyValue>> bound =
        co_await core::Acquire<services::IKeyValue>(client_ctx, "app/kv",
                                                    opts);
    CO_ASSERT_OK(bound);
    kv = *bound;
  };
  rt.Run(bind());
  auto* router = dynamic_cast<services::KvShardRouterProxy*>(kv.get());
  ASSERT_NE(router, nullptr);

  // Warm: resolves the map and the group proxy.
  auto warm = [&]() -> sim::Co<void> {
    Result<rpc::Void> r = co_await kv->Put("key-1", "v");
    CO_ASSERT_OK(r);
  };
  rt.Run(warm());

  // Saturate the group's primary: a foreign slow object pins the
  // server's single admission slot for 20ms (admission is a per-server
  // property — every object behind that endpoint feels it).
  const ObjectId slow_id = replica_ctx.MintObjectId();
  auto slow = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped<PingRequest, PingResponse>(
      *slow, 1,
      [&rt](PingRequest req,
            const rpc::CallContext&) -> sim::Co<Result<PingResponse>> {
        co_await sim::SleepFor(rt.scheduler(), Milliseconds(20));
        co_return PingResponse{req.id};
      });
  ASSERT_TRUE(replica_ctx.server().ExportObject(slow_id, slow).ok());
  replica_ctx.server().set_admission(1, 0, Milliseconds(2));
  sim::Future<rpc::RpcResult> pin = client_ctx.client().Call(
      replica_ctx.server_address(), slow_id, 1,
      serde::EncodeToBytes(PingRequest{1}), NoRetryOptions(Milliseconds(100)));
  rt.scheduler().RunFor(Milliseconds(1));

  // First op: the shed fights through the pushback retries and surfaces;
  // the router marks the group overloaded.
  const std::uint64_t wire_before_shed =
      replica_ctx.server().stats().requests_received.value();
  auto shed = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> r = co_await kv->Get("key-1");
    CO_ASSERT_TRUE(!r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  };
  rt.Run(shed());
  EXPECT_GT(replica_ctx.server().stats().requests_received.value(),
            wire_before_shed);

  // Second op, inside the backoff window: fails fast at the router —
  // same verdict, zero additional work offered to the drowning group.
  const std::uint64_t wire_before_fast =
      replica_ctx.server().stats().requests_received.value();
  rt.Run(shed());
  EXPECT_EQ(router->shed_fail_fast(), 1u);
  EXPECT_EQ(replica_ctx.server().stats().requests_received.value(),
            wire_before_fast);

  // The window expires and the pin drains: work flows again.
  rt.scheduler().RunFor(services::KvShardRouterProxy::kGroupBackoff +
                        Milliseconds(5));
  rt.scheduler().RunUntil([&pin] { return pin.ready(); });
  EXPECT_TRUE(pin.take().ok());
  auto recovered = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> r = co_await kv->Get("key-1");
    CO_ASSERT_OK(r);
    CO_ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v");
  };
  rt.Run(recovered());
  EXPECT_EQ(router->shed_fail_fast(), 1u);
}

}  // namespace
}  // namespace proxy
