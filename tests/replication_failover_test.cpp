// Crash-stop/restart failover tests for the replicated KV (named mode):
// the primary crashes, a backup promotes under a fresh epoch within the
// lease TTL, clients keep writing through the *same* IKeyValue proxy,
// and the restarted old primary rejoins as a resynced backup. This is
// the proxy principle under failure: nothing on the client changed.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/factory.h"
#include "services/replicated_kv.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using proxy::testing::TestWorld;

/// Three replicas on their own nodes (never the name-service node, which
/// cannot crash), exported in named mode with chaos-scale timers so a
/// full crash -> promote -> rejoin cycle fits in a short virtual run.
struct FailoverWorld {
  FailoverWorld() : w(99) {
    n1 = w.rt->AddNode("kv-1");
    n2 = w.rt->AddNode("kv-2");
    n3 = w.rt->AddNode("kv-3");
    c1 = &w.rt->CreateContext(n1, "kv-1");
    c2 = &w.rt->CreateContext(n2, "kv-2");
    c3 = &w.rt->CreateContext(n3, "kv-3");

    ReplicatedKvParams p;
    p.name = "rkv/ha";
    p.lease.ttl_ns = Milliseconds(150);
    p.lease.renew_fraction = 0.4;
    p.lease.max_consecutive_failures = 2;
    p.watch_interval = Milliseconds(45);
    p.promote_stagger = Milliseconds(25);
    p.rejoin_interval = Milliseconds(60);
    p.mirror.retry_interval = Milliseconds(6);
    p.mirror.max_retries = 2;
    p.mirror.deadline = Milliseconds(40);
    auto exported = ExportReplicatedKv(*c1, {c2, c3}, p);
    EXPECT_TRUE(exported.ok());
    exp = std::move(*exported);
    // Let the primary's lease heartbeat publish "rkv/ha".
    w.rt->scheduler().RunFor(Milliseconds(30));
  }

  [[nodiscard]] int ServingPrimaries() const {
    int primaries = 0;
    for (const auto& replica : exp.replicas) {
      if (replica->role() == ReplicaRole::kPrimary && !replica->syncing()) {
        ++primaries;
      }
    }
    return primaries;
  }

  [[nodiscard]] std::uint64_t TotalPromotions() const {
    std::uint64_t total = 0;
    for (const auto& replica : exp.replicas) total += replica->promotions();
    return total;
  }

  TestWorld w;
  NodeId n1, n2, n3;
  core::Context* c1 = nullptr;
  core::Context* c2 = nullptr;
  core::Context* c3 = nullptr;
  ReplicatedKvExport exp;
};

TEST(ReplicationFailover, CrashPromotesBackupWithinLeaseTtl) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto before = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(before);
  ASSERT_EQ(fw.ServingPrimaries(), 1);

  fw.w.rt->CrashNode(fw.n1);
  // Lease TTL (150ms) + watchdog poll + promotion handshake: well inside
  // 400ms of virtual time a backup must be serving as the one primary.
  fw.w.rt->scheduler().RunFor(Milliseconds(400));
  EXPECT_EQ(fw.ServingPrimaries(), 1);
  EXPECT_EQ(fw.TotalPromotions(), 1u);
  EXPECT_NE(fw.exp.primary->role(), ReplicaRole::kPrimary);

  // The client's proxy is unchanged; writes follow the new primary and
  // the pre-crash write is still there (it was on every replica).
  auto after = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(after);

  auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_GE(proxy->list_refreshes(), 1u);
  EXPECT_GE(proxy->last_op_epoch(), 2u);  // served by the new reign
}

TEST(ReplicationFailover, RestartedPrimaryRejoinsAsBackupAndResyncs) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  fw.w.rt->CrashNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(400));

  // Write while the old primary is down: it must catch up on rejoin.
  auto mid_crash = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
  };
  fw.w.Run(mid_crash);

  fw.w.rt->RestartNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(500));

  // Rejoined: a backup again, resynced, and back in the mirror set.
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kBackup);
  EXPECT_FALSE(fw.exp.primary->syncing());
  EXPECT_EQ(fw.ServingPrimaries(), 1);

  auto verify = [&]() -> sim::Co<void> {
    // The snapshot resync recovered both the pre-crash and the mid-crash
    // writes on the restarted node (served locally, as a backup read).
    Result<std::optional<std::string>> k1 =
        co_await fw.exp.primary->Get("k1");
    CO_ASSERT_OK(k1);
    EXPECT_EQ(k1->value(), "v1");
    Result<std::optional<std::string>> k2 =
        co_await fw.exp.primary->Get("k2");
    CO_ASSERT_OK(k2);
    EXPECT_EQ(k2->value(), "v2");
    // New writes mirror to the rejoined replica again.
    CO_ASSERT_OK(co_await kv->Put("k3", "v3"));
    Result<std::optional<std::string>> k3 =
        co_await fw.exp.primary->Get("k3");
    CO_ASSERT_OK(k3);
    EXPECT_EQ(k3->value(), "v3");
  };
  fw.w.Run(verify);
}

TEST(ReplicationFailover, CrashedBackupDoesNotBlockWritesAndResyncs) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  // Crash a backup: the primary evicts it under a bumped epoch and keeps
  // acknowledging writes (still two live replicas — the ack floor).
  fw.w.rt->CrashNode(fw.n3);
  auto during = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
  };
  fw.w.Run(during);
  EXPECT_EQ(fw.TotalPromotions(), 0u);
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kPrimary);

  fw.w.rt->RestartNode(fw.n3);
  fw.w.rt->scheduler().RunFor(Milliseconds(500));
  EXPECT_FALSE(fw.exp.backup_impls[1]->syncing());

  auto verify = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> k2 =
        co_await fw.exp.backup_impls[1]->Get("k2");
    CO_ASSERT_OK(k2);
    EXPECT_EQ(k2->value(), "v2");  // caught up via the snapshot join
  };
  fw.w.Run(verify);
}

TEST(ReplicationFailover, PartitionedPrimaryStepsDownNoSplitBrain) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  // Cut the primary off from everyone (name service included). Its lease
  // lapses; a backup promotes; the old primary notices the lost lease and
  // steps down rather than serving a second reign.
  auto& net = fw.w.rt->network();
  const auto node_count = static_cast<std::uint32_t>(net.node_count());
  for (std::uint32_t other = 0; other < node_count; ++other) {
    if (other != fw.n1.value()) {
      net.SetPartitioned(fw.n1, NodeId(other), true);
    }
  }
  fw.w.rt->scheduler().RunFor(Milliseconds(600));
  EXPECT_EQ(fw.TotalPromotions(), 1u);
  EXPECT_NE(fw.exp.primary->role(), ReplicaRole::kPrimary);

  for (std::uint32_t other = 0; other < node_count; ++other) {
    if (other != fw.n1.value()) {
      net.SetPartitioned(fw.n1, NodeId(other), false);
    }
  }
  fw.w.rt->scheduler().RunFor(Milliseconds(500));

  // Healed: exactly one primary, and the old one is an in-sync backup.
  EXPECT_EQ(fw.ServingPrimaries(), 1);
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kBackup);
  EXPECT_FALSE(fw.exp.primary->syncing());

  auto after = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(after);
}

TEST(ReplicationFailover, CrashMidMirrorLeavesNoWriteCountedInFlight) {
  // A Put parked in the primary's mirror fan-out when the primary crashes
  // still runs to its (failed) end afterwards. It must release exactly
  // the in-flight count it took: a count left below zero would let a
  // later join or freeze drain stop waiting for writes really in flight.
  FailoverWorld fw;
  auto& net = fw.w.rt->network();
  // Cut the primary off from one backup, so the mirror call to it
  // retransmits until its deadline and the Put stays parked.
  net.SetPartitioned(fw.n1, fw.n2, true);
  sim::Future<Result<rpc::Void>> put =
      sim::Spawn(fw.w.rt->scheduler(), fw.exp.primary->Put("k", "v"));
  fw.w.rt->scheduler().RunFor(Milliseconds(5));
  ASSERT_FALSE(put.ready());
  EXPECT_EQ(fw.exp.primary->inflight_writes(), 1);

  fw.w.rt->CrashNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(100));
  ASSERT_TRUE(put.ready());
  EXPECT_FALSE(put.peek().ok());  // never acknowledged
  net.SetPartitioned(fw.n1, fw.n2, false);
  fw.w.rt->RestartNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(500));
  EXPECT_FALSE(fw.exp.primary->syncing());  // rejoined
  EXPECT_EQ(fw.exp.primary->inflight_writes(), 0);
}

TEST(ReplicationFailover, EvictionDuringTheNameClaimStopsThePromotion) {
  // A backup's promotion suspends on the name server between its peer
  // poll and the takeover. A batch that evicts it can land in that
  // window, and then its data may be behind: when the claim comes back
  // won, it must stay a syncing backup and let the claimed record expire
  // unrenewed rather than serve as primary.
  FailoverWorld fw;
  KvReplica& backup = *fw.exp.backup_impls[0];
  sim::Network& net = fw.w.rt->network();
  bool polling = false;     // the backup polls the dead primary: no lease
  bool claim_held = false;  // its claim reached the paused name server
  net.SetTraceHook([&](sim::NetTraceKind kind, NodeId from, NodeId to,
                       PortId, std::size_t) {
    if (from != fw.n2) return;
    if (kind == sim::NetTraceKind::kSend && to == fw.n1) polling = true;
    if (kind == sim::NetTraceKind::kHold && to == fw.w.server_node) {
      claim_held = true;
    }
  });
  fw.w.rt->CrashNode(fw.n1);
  for (int ms = 0; ms < 1000 && !polling; ++ms) {
    fw.w.rt->scheduler().RunFor(Milliseconds(1));
  }
  ASSERT_TRUE(polling);
  net.SetNodePaused(fw.w.server_node, true);
  for (int ms = 0; ms < 200 && !claim_held; ++ms) {
    fw.w.rt->scheduler().RunFor(Milliseconds(1));
  }
  ASSERT_TRUE(claim_held);
  ASSERT_EQ(backup.role(), ReplicaRole::kBackup);
  ASSERT_FALSE(backup.syncing());

  // A newer view without this backup arrives while the claim is parked.
  kvwire::ReplicateBatchRequest evict;
  evict.epoch = backup.epoch() + 1;
  evict.replicas = {fw.exp.backup_bindings[1]};
  Result<rpc::Void> evicted = backup.HandleReplicateBatch(std::move(evict));
  EXPECT_EQ(evicted.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(backup.syncing());

  net.SetNodePaused(fw.w.server_node, false);
  fw.w.rt->scheduler().RunFor(Milliseconds(50));
  net.SetTraceHook(nullptr);
  // The claim won, yet the name is left to lapse.
  Result<naming::NameRecord> rec = NotFoundError("not looked up");
  auto lookup = [&]() -> sim::Co<void> {
    rec = co_await fw.w.client_ctx->names().Lookup("rkv/ha");
  };
  fw.w.rt->Run(lookup());
  ASSERT_OK(rec);
  EXPECT_EQ(rec->binding.object, fw.exp.backup_bindings[0].object);
  EXPECT_TRUE(backup.syncing());
  EXPECT_EQ(backup.role(), ReplicaRole::kBackup);
  EXPECT_EQ(backup.promotions(), 0u);
  EXPECT_EQ(fw.ServingPrimaries(), 0);
}

TEST(ReplicationFailover, EqualEpochBatchFromAnotherPrimaryIsFenced) {
  // Two replicas can reach one epoch number on their own: a primary bumps
  // it while evicting a backup, and that backup, having missed the bump,
  // promotes itself to the same number. A replica must keep following
  // the primary it follows at that epoch; adopting the other claimant's
  // batch would let both acknowledge writes under one epoch.
  FailoverWorld fw;
  KvReplica& backup = *fw.exp.backup_impls[0];
  const std::uint64_t epoch = backup.epoch();
  const std::vector<core::ServiceBinding> view{
      fw.exp.binding, fw.exp.backup_bindings[0], fw.exp.backup_bindings[1]};

  // The other claimant's announce: the same epoch, another primary at [0].
  kvwire::ReplicateBatchRequest forged;
  forged.epoch = epoch;
  forged.replicas = {fw.exp.backup_bindings[1], fw.exp.binding,
                     fw.exp.backup_bindings[0]};
  forged.entries = {{"forged", "value"}};
  rpc::CallOptions opts;
  opts.retry_interval = Milliseconds(5);
  opts.max_retries = 3;
  opts.deadline = Milliseconds(100);
  const core::ServiceBinding& to = fw.exp.backup_bindings[0];
  rpc::RpcResult r = fw.w.rt->Await(fw.w.client_ctx->client().Call(
      to.server, to.object, kvwire::kReplicateBatch.id,
      serde::EncodeToBytes(forged), opts));
  EXPECT_EQ(r.status.code(), StatusCode::kFenced) << r.status.ToString();
  EXPECT_EQ(backup.fenced_rejections(), 1u);

  // Epoch, view and data are as they were.
  EXPECT_EQ(backup.epoch(), epoch);
  rpc::RpcResult listed = fw.w.rt->Await(fw.w.client_ctx->client().Call(
      to.server, to.object, kvwire::kGetReplicas.id,
      serde::EncodeToBytes(rpc::Void{}), opts));
  ASSERT_TRUE(listed.ok()) << listed.status.ToString();
  Result<kvwire::ReplicaListResponse> list =
      serde::DecodeFromBytes<kvwire::ReplicaListResponse>(
          listed.payload.view());
  ASSERT_OK(list);
  EXPECT_EQ(list->epoch, epoch);
  EXPECT_EQ(list->replicas, view);
  Result<std::optional<std::string>> got = fw.w.rt->Run(backup.Get("forged"));
  ASSERT_OK(got);
  EXPECT_FALSE(got->has_value());
}

}  // namespace
}  // namespace proxy::services
