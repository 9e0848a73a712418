// Tests for lease maintenance (core/lease.h).
#include <gtest/gtest.h>

#include "core/lease.h"
#include "test_util.h"

namespace proxy {
namespace {

using proxy::testing::TestWorld;

TEST(Lease, MaintainerKeepsNameAlive) {
  TestWorld w;
  core::ServiceBinding binding;
  binding.server = w.server_ctx->server_address();
  binding.object = ObjectId{1, 2};
  binding.interface = InterfaceIdOf("lease.Test");

  core::LeaseMaintainer::Params params;
  params.ttl_ns = Milliseconds(100);
  core::LeaseMaintainer lease(*w.server_ctx, "leased/svc", binding, params);

  // Far beyond the TTL, the record is still resolvable.
  w.rt->scheduler().RunFor(Milliseconds(600));
  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> resolved =
        co_await w.client_ctx->names().ResolvePath("leased/svc");
    CO_ASSERT_OK(resolved);
    EXPECT_EQ(*resolved, binding);
  };
  w.Run(body);
  EXPECT_GT(lease.renewals(), 3u);
  EXPECT_FALSE(lease.lost());
  lease.Stop();
}

TEST(Lease, RecordExpiresAfterStop) {
  TestWorld w;
  core::ServiceBinding binding;
  binding.server = w.server_ctx->server_address();
  binding.object = ObjectId{3, 4};
  binding.interface = InterfaceIdOf("lease.Test");

  core::LeaseMaintainer::Params params;
  params.ttl_ns = Milliseconds(100);
  auto lease = std::make_unique<core::LeaseMaintainer>(
      *w.server_ctx, "mortal/svc", binding, params);
  w.rt->scheduler().RunFor(Milliseconds(200));
  lease->Stop();
  // One TTL later the record is gone — the "crashed service" story.
  w.rt->scheduler().RunFor(Milliseconds(300));

  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> resolved =
        co_await w.client_ctx->names().ResolvePath("mortal/svc");
    EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
  };
  w.Run(body);
}

TEST(Lease, LostAfterRepeatedFailures) {
  TestWorld w;
  core::ServiceBinding binding;
  binding.server = w.server_ctx->server_address();
  binding.object = ObjectId{5, 6};
  binding.interface = InterfaceIdOf("lease.Test");

  // Heartbeats from the *client* node, then partition it from the name
  // service: renewals fail and the lease is declared lost.
  core::LeaseMaintainer::Params params;
  params.ttl_ns = Milliseconds(100);
  params.max_consecutive_failures = 2;
  core::LeaseMaintainer lease(*w.client_ctx, "doomed/svc", binding, params);
  w.rt->scheduler().RunFor(Milliseconds(150));
  w.rt->network().SetPartitioned(w.client_node, w.server_node, true);
  w.rt->scheduler().RunFor(Seconds(2));
  EXPECT_TRUE(lease.lost());
}

TEST(Lease, RenewalFailureLosesNameToNextClaimant) {
  // The failover-critical consequence of a lost lease: the *name* itself
  // expires at the server and becomes claimable by a new owner, even
  // after the unlucky original owner is reachable again.
  TestWorld w;
  core::ServiceBinding binding;
  binding.server = w.client_ctx->server_address();
  binding.object = ObjectId{9, 1};
  binding.interface = InterfaceIdOf("lease.Test");

  core::LeaseMaintainer::Params params;
  params.ttl_ns = Milliseconds(100);
  params.max_consecutive_failures = 2;
  core::LeaseMaintainer lease(*w.client_ctx, "takeover/svc", binding, params);
  w.rt->scheduler().RunFor(Milliseconds(150));
  w.rt->network().SetPartitioned(w.client_node, w.server_node, true);
  w.rt->scheduler().RunFor(Seconds(2));
  ASSERT_TRUE(lease.lost());

  // Heal. The maintainer has given up (lost is terminal), so the record
  // stays expired and a rival's first-register-wins claim succeeds.
  w.rt->network().SetPartitioned(w.client_node, w.server_node, false);
  core::ServiceBinding rival;
  rival.server = w.server_ctx->server_address();
  rival.object = ObjectId{9, 2};
  rival.interface = binding.interface;
  auto body = [&]() -> sim::Co<void> {
    Result<core::ServiceBinding> gone =
        co_await w.client_ctx->names().ResolvePath("takeover/svc");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

    naming::NameRecord record;
    record.kind = naming::RecordKind::kService;
    record.binding = rival;
    Result<rpc::Void> claimed = co_await w.server_ctx->names().Register(
        "takeover/svc", record, /*overwrite=*/false);
    CO_ASSERT_OK(claimed);
    Result<core::ServiceBinding> resolved =
        co_await w.client_ctx->names().ResolvePath("takeover/svc");
    CO_ASSERT_OK(resolved);
    EXPECT_EQ(*resolved, rival);
  };
  w.Run(body);
}

TEST(Lease, ExpirySweepRacesReRegister) {
  // The NameServer sweeps expired records lazily, inside the very
  // Register/Lookup that observes them. A contender's overwrite=false
  // claim must lose while the lease is live and win the moment it lapses
  // — with no window where both owners resolve.
  TestWorld w;
  core::ServiceBinding original;
  original.server = w.server_ctx->server_address();
  original.object = ObjectId{10, 1};
  original.interface = InterfaceIdOf("lease.Test");
  core::ServiceBinding contender = original;
  contender.object = ObjectId{10, 2};

  auto claim = [&]() -> sim::Co<void> {
    naming::NameRecord record;
    record.kind = naming::RecordKind::kService;
    record.binding = original;
    record.lease_ns = Milliseconds(100);
    CO_ASSERT_OK(co_await w.server_ctx->names().Register(
        "contended/svc", record, /*overwrite=*/false));

    // Live lease: the rival bounces off first-register-wins.
    naming::NameRecord rival_record;
    rival_record.kind = naming::RecordKind::kService;
    rival_record.binding = contender;
    Result<rpc::Void> early = co_await w.client_ctx->names().Register(
        "contended/svc", rival_record, /*overwrite=*/false);
    EXPECT_EQ(early.status().code(), StatusCode::kAlreadyExists);
  };
  w.Run(claim);

  // Let the lease lapse with *no* intervening lookup: the expired record
  // is still physically present, so the rival's Register is what sweeps
  // it — the race under test.
  w.rt->scheduler().RunFor(Milliseconds(150));
  auto race = [&]() -> sim::Co<void> {
    naming::NameRecord rival_record;
    rival_record.kind = naming::RecordKind::kService;
    rival_record.binding = contender;
    Result<rpc::Void> late = co_await w.client_ctx->names().Register(
        "contended/svc", rival_record, /*overwrite=*/false);
    CO_ASSERT_OK(late);
    Result<core::ServiceBinding> resolved =
        co_await w.client_ctx->names().ResolvePath("contended/svc");
    CO_ASSERT_OK(resolved);
    EXPECT_EQ(*resolved, contender);
  };
  w.Run(race);
}

TEST(Lease, DestructionStopsHeartbeatCleanly) {
  TestWorld w;
  core::ServiceBinding binding;
  binding.server = w.server_ctx->server_address();
  binding.object = ObjectId{7, 8};
  binding.interface = InterfaceIdOf("lease.Test");
  {
    core::LeaseMaintainer::Params params;
    params.ttl_ns = Milliseconds(100);
    core::LeaseMaintainer lease(*w.server_ctx, "raii/svc", binding, params);
    w.rt->scheduler().RunFor(Milliseconds(150));
  }  // destroyed while the heartbeat coroutine is mid-sleep
  // The loop must wind down without touching freed state.
  w.rt->scheduler().Run();
}

}  // namespace
}  // namespace proxy
