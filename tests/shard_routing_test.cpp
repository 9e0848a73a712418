// Shard-invariant test battery for the routed KV (protocol 5): map
// versioning at the ShardMapService, WRONG_SHARD refresh-and-retry at
// the router (including the bounded stale-map retry), fan-out List/Size
// merge semantics, online migration under concurrent writes, recovery of
// half-finished moves (crashed rebalancer, crashed source primary), and
// the TryRescue liveness backstop for a fully-deposed replica group.
//
// The battery's framing claim is the paper's: a client bound to plain
// IKeyValue through core::Acquire runs unmodified whether the name
// resolves to one replica group or four — sharding is the service's
// business, introduced entirely behind the proxy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/factory.h"
#include "services/replicated_kv.h"
#include "services/shard_map.h"
#include "services/shard_router.h"
#include "sim/future.h"
#include "sim/task.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using proxy::testing::TestWorld;

constexpr std::uint32_t kShards = 8;

/// Chaos-scale group timers so a full crash -> promote cycle and several
/// migration steps fit in a short virtual run (name per group is
/// assigned by ExportShardedKv).
ReplicatedKvParams FastGroupParams() {
  ReplicatedKvParams p;
  p.lease.ttl_ns = Milliseconds(150);
  p.lease.renew_fraction = 0.4;
  p.lease.max_consecutive_failures = 2;
  p.watch_interval = Milliseconds(45);
  p.promote_stagger = Milliseconds(25);
  p.rejoin_interval = Milliseconds(60);
  p.mirror.retry_interval = Milliseconds(6);
  p.mirror.max_retries = 2;
  p.mirror.deadline = Milliseconds(40);
  return p;
}

ShardRebalancerParams FastRebalancerParams() {
  ShardRebalancerParams p;
  p.step_attempts = 8;
  p.step_pause = Milliseconds(30);
  return p;
}

/// A key that hashes into `shard` under the battery's shard count.
/// Distinct salts scan disjoint ranges, so they yield distinct keys of
/// the same shard.
std::string KeyInShard(std::uint32_t shard, int salt = 0) {
  for (int i = salt * 1000;; ++i) {
    std::string key = "key-" + std::to_string(i);
    if (ShardOf(key, kShards) == shard) return key;
  }
}

/// A sharded deployment on its own nodes: name service, the map-service
/// node, one client node, and `groups` replica groups of
/// `replicas_per_group` nodes each.
struct ShardedWorld {
  ShardedWorld(std::uint32_t groups, std::uint32_t replicas_per_group,
               std::uint64_t seed = 17) {
    RegisterAllServices();
    core::Runtime::Params params;
    params.seed = seed;
    rt = std::make_unique<core::Runtime>(params);
    rt->StartNameService(rt->AddNode("ns"));
    map_ctx = &rt->CreateContext(rt->AddNode("map"), "map");
    client_ctx = &rt->CreateContext(rt->AddNode("client"), "client");
    std::vector<std::vector<core::Context*>> group_ctxs;
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::vector<core::Context*> ctxs;
      std::vector<NodeId> nodes;
      for (std::uint32_t r = 0; r < replicas_per_group; ++r) {
        std::string label = "g";
        label += std::to_string(g);
        label += "-r";
        label += std::to_string(r);
        const NodeId node = rt->AddNode(label);
        nodes.push_back(node);
        ctxs.push_back(&rt->CreateContext(node, label));
      }
      replica_nodes.push_back(std::move(nodes));
      group_ctxs.push_back(std::move(ctxs));
    }

    ShardedKvParams sparams;
    sparams.name = "app/kv";
    sparams.num_shards = kShards;
    sparams.group = FastGroupParams();
    auto export_all = [&]() -> sim::Co<void> {
      Result<ShardedKvExport> exported = co_await ExportShardedKv(
          *map_ctx, std::move(group_ctxs), std::move(sparams));
      EXPECT_TRUE(exported.ok()) << exported.status().ToString();
      if (exported.ok()) skv = std::move(*exported);
    };
    rt->Run(export_all());
    // Let every group primary's lease heartbeat publish its group name.
    rt->scheduler().RunFor(Milliseconds(40));
  }

  template <typename L>
  void Run(L& lambda) {
    rt->Run(lambda());
  }

  /// The deployment-shape-blind binding: plain IKeyValue by name, proxy
  /// path forced — exactly what an application client would hold.
  std::shared_ptr<IKeyValue> AcquireKv() {
    std::shared_ptr<IKeyValue> out;
    auto bind = [&]() -> sim::Co<void> {
      core::AcquireOptions opts;
      opts.allow_direct = false;
      Result<std::shared_ptr<IKeyValue>> bound =
          co_await core::Acquire<IKeyValue>(*client_ctx, "app/kv", opts);
      EXPECT_TRUE(bound.ok()) << bound.status().ToString();
      if (bound.ok()) out = *bound;
    };
    rt->Run(bind());
    return out;
  }

  /// The same binding, downcast for the routing observables the
  /// white-box assertions read.
  std::shared_ptr<KvShardRouterProxy> AcquireRouter() {
    auto typed = std::dynamic_pointer_cast<KvShardRouterProxy>(AcquireKv());
    EXPECT_NE(typed, nullptr) << "protocol 5 must bind the routing proxy";
    return typed;
  }

  std::unique_ptr<core::Runtime> rt;
  core::Context* map_ctx = nullptr;
  core::Context* client_ctx = nullptr;
  std::vector<std::vector<NodeId>> replica_nodes;  // [group][replica]
  ShardedKvExport skv;
};

// --- the shard map service: versioning and the move CAS ----------------

TEST(ShardMap, StableHashStaysInRangeAndAgreesWithItself) {
  // Routers and replicas must agree on key -> shard forever: the
  // function is part of the wire contract, not an implementation detail.
  for (int i = 0; i < 512; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    const std::uint32_t shard = ShardOf(key, kShards);
    EXPECT_LT(shard, kShards);
    EXPECT_EQ(shard, ShardOf(key, kShards)) << key;
  }
  // Every shard is reachable by some key (the helper would loop forever
  // otherwise — this pins the fold's spread, not perfection).
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ShardOf(KeyInShard(s), kShards), s);
  }
}

TEST(ShardMap, CommitMoveBumpsVersionAndCasRejectsStaleCommits) {
  TestWorld w(31);
  auto svc = std::make_shared<ShardMapService>(
      *w.server_ctx, MakeInitialShardMap(kShards, {"app/kv/g0", "app/kv/g1"}));
  EXPECT_EQ(svc->map().version, 1u);
  EXPECT_EQ(svc->map().owner[0], 0u);

  auto drive = [&]() -> sim::Co<void> {
    // A well-formed move commits: version bumps, owner and epoch follow.
    shardwire::CommitMoveRequest move;
    move.shard = 0;
    move.to_group = 1;
    move.expect_version = 1;
    move.new_shard_epoch = 2;
    Result<shardwire::ShardMap> committed =
        svc->HandleCommitMove(move);
    CO_ASSERT_OK(committed);
    EXPECT_EQ(committed->version, 2u);
    EXPECT_EQ(committed->owner[0], 1u);
    EXPECT_EQ(committed->shard_epoch[0], 2u);

    // The CAS: a commit built against the superseded map is refused.
    shardwire::CommitMoveRequest stale;
    stale.shard = 1;
    stale.to_group = 1;
    stale.expect_version = 1;  // map is at 2 now
    stale.new_shard_epoch = 2;
    Result<shardwire::ShardMap> lost =
        svc->HandleCommitMove(stale);
    CO_ASSERT_TRUE(!lost.ok());
    EXPECT_EQ(lost.status().code(), StatusCode::kFailedPrecondition);

    // Ownership epochs only advance: a duplicate of the committed move
    // (same epoch, fresh version) is refused rather than replayed.
    shardwire::CommitMoveRequest replay;
    replay.shard = 0;
    replay.to_group = 0;
    replay.expect_version = 2;
    replay.new_shard_epoch = 2;
    Result<shardwire::ShardMap> refused =
        svc->HandleCommitMove(replay);
    CO_ASSERT_TRUE(!refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

    // Out-of-range coordinates are malformed, not raceable.
    shardwire::CommitMoveRequest bogus;
    bogus.shard = kShards;
    bogus.to_group = 0;
    bogus.expect_version = 2;
    bogus.new_shard_epoch = 9;
    Result<shardwire::ShardMap> malformed =
        svc->HandleCommitMove(bogus);
    CO_ASSERT_TRUE(!malformed.ok());
    EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
  };
  w.Run(drive);

  EXPECT_EQ(svc->map().version, 2u);
  EXPECT_EQ(svc->commits(), 1u);
}

// --- the proxy principle at scale: deployment shape is invisible -------

/// The portable client: everything it does is plain IKeyValue. Run
/// verbatim against different deployment shapes below.
void RunPortableClient(ShardedWorld& w) {
  auto kv = w.AcquireKv();
  ASSERT_NE(kv, nullptr);
  auto body = [&]() -> sim::Co<void> {
    for (int i = 0; i < 16; ++i) {
      const std::string key = "user-" + std::to_string(i);
      const std::string value = "v" + std::to_string(i);
      CO_ASSERT_OK(co_await kv->Put(key, value));
    }
    Result<std::uint64_t> size = co_await kv->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 16u);
    Result<std::vector<std::string>> listed = co_await kv->List("user-");
    CO_ASSERT_OK(listed);
    EXPECT_EQ(listed->size(), 16u);
    EXPECT_TRUE(std::is_sorted(listed->begin(), listed->end()));
    for (int i = 0; i < 16; ++i) {
      const std::string key = "user-" + std::to_string(i);
      Result<std::optional<std::string>> got = co_await kv->Get(key);
      CO_ASSERT_OK(got);
      CO_ASSERT_TRUE(got->has_value());
      EXPECT_EQ(**got, "v" + std::to_string(i));
    }
    Result<bool> deleted = co_await kv->Del("user-3");
    CO_ASSERT_OK(deleted);
    EXPECT_TRUE(*deleted);
    Result<std::optional<std::string>> gone = co_await kv->Get("user-3");
    CO_ASSERT_OK(gone);
    EXPECT_FALSE(gone->has_value());
    Result<std::uint64_t> after = co_await kv->Size();
    CO_ASSERT_OK(after);
    EXPECT_EQ(*after, 15u);
  };
  w.Run(body);
}

TEST(ShardRouting, ClientRunsUnmodifiedAgainstOneAndFourGroups) {
  // Acceptance bar: the same client code, bound to plain IKeyValue via
  // core::Acquire, against a 1-group and a 4-group deployment.
  ShardedWorld one(/*groups=*/1, /*replicas_per_group=*/1, /*seed=*/101);
  RunPortableClient(one);

  ShardedWorld four(/*groups=*/4, /*replicas_per_group=*/1, /*seed=*/102);
  RunPortableClient(four);

  // The four-group run really was distributed: the keys spread over
  // several groups' local stores (deterministic under the fixed hash).
  std::uint32_t populated = 0;
  std::uint64_t total = 0;
  auto census = [&]() -> sim::Co<void> {
    for (const auto& group : four.skv.groups) {
      Result<std::uint64_t> size = co_await group.primary->Size();
      CO_ASSERT_OK(size);
      if (*size > 0) populated++;
      total += *size;
    }
  };
  four.Run(census);
  EXPECT_GE(populated, 2u);
  EXPECT_EQ(total, 15u);
}

TEST(ShardRouting, RouterRoutesEveryShardToItsOwningGroup) {
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);

  auto write_all = [&]() -> sim::Co<void> {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const std::string key = KeyInShard(s);
      CO_ASSERT_OK(co_await router->Put(key, "v" + std::to_string(s)));
      // Routing observables: the op was stamped with the shard it hashed
      // to, the initial map's owner (shard s -> group s % 2), and that
      // group's ownership epoch (1 everywhere pre-migration).
      EXPECT_EQ(router->last_op_shard(), s);
      EXPECT_EQ(router->last_op_group(), w.skv.group_names[s % 2]);
      EXPECT_EQ(router->last_op_shard_epoch(), 1u);
    }
  };
  w.Run(write_all);
  EXPECT_EQ(router->map_version(), 1u);
  EXPECT_EQ(router->wrong_shard_retries(), 0u);

  // White-box residency: each group's local store holds exactly the keys
  // of the shards the initial map assigned it.
  auto census = [&]() -> sim::Co<void> {
    for (std::uint32_t g = 0; g < 2; ++g) {
      Result<std::vector<std::string>> held =
          co_await w.skv.groups[g].primary->List("");
      CO_ASSERT_OK(held);
      EXPECT_EQ(held->size(), kShards / 2) << "group " << g;
      for (const auto& key : *held) {
        EXPECT_EQ(ShardOf(key, kShards) % 2, g) << key;
      }
    }
  };
  w.Run(census);
}

// --- WRONG_SHARD: refresh-and-retry, and its bound ---------------------

TEST(ShardRouting, StaleMapRefreshesAndRetriesAfterAMigration) {
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::string key = KeyInShard(0);  // owner: g0 under the initial map

  auto seed = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await router->Put(key, "before"));
  };
  w.Run(seed);
  EXPECT_EQ(router->map_version(), 1u);

  // Migrate shard 0 to g1 behind the router's back.
  ShardRebalancer reb(*w.map_ctx, w.skv.binding, FastRebalancerParams());
  auto move = [&]() -> sim::Co<void> {
    Status moved = co_await reb.MigrateShard(0, 1);
    EXPECT_OK(moved);
  };
  w.Run(move);
  EXPECT_EQ(reb.moves(), 1u);
  EXPECT_EQ(reb.move_failures(), 0u);

  // The router still holds map v1 and routes to g0 first; the released
  // group answers WRONG_SHARD, the router re-fetches the map and lands
  // the write at g1 — one transient retry, invisible to the caller.
  auto rewrite = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await router->Put(key, "after"));
    Result<std::optional<std::string>> got = co_await router->Get(key);
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, "after");
  };
  w.Run(rewrite);
  EXPECT_EQ(router->wrong_shard_retries(), 1u);
  EXPECT_GE(router->map_refreshes(), 1u);
  EXPECT_EQ(router->map_version(), 2u);
  EXPECT_EQ(router->last_op_group(), w.skv.group_names[1]);
  EXPECT_EQ(router->last_op_shard_epoch(), 2u);

  // The source really released: its store is empty and it fences the
  // shard (the replica-side half of the retry the router just absorbed).
  auto drained = [&]() -> sim::Co<void> {
    Result<std::uint64_t> left = co_await w.skv.groups[0].primary->Size();
    CO_ASSERT_OK(left);
    EXPECT_EQ(*left, 0u);
  };
  w.Run(drained);
  EXPECT_FALSE(w.skv.groups[0].primary->shard().Owns(0));
  EXPECT_GE(w.skv.groups[0].primary->wrong_shard_rejections(), 1u);
}

TEST(ShardRouting, StaleMapRetryIsBoundedAndSurfacesWrongShard) {
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::uint32_t shard = 2;  // owner: g0
  const std::string key = KeyInShard(shard);

  // Freeze the shard at its owner with no migration behind it: every
  // route lands WRONG_SHARD and every refresh returns the same map, so
  // the router must give up after exactly kRoutePasses passes rather
  // than spin forever on a map that never changes.
  auto freeze = [&]() -> sim::Co<void> {
    kvwire::ShardFreezeRequest req;
    req.shard = shard;
    Result<kvwire::ShardFreezeResponse> frozen =
        co_await w.skv.groups[0].primary->HandleShardFreeze(req);
    CO_ASSERT_OK(frozen);
  };
  w.Run(freeze);

  auto blocked = [&]() -> sim::Co<void> {
    Result<rpc::Void> put = co_await router->Put(key, "never");
    CO_ASSERT_TRUE(!put.ok());
    EXPECT_EQ(put.status().code(), StatusCode::kWrongShard);
  };
  w.Run(blocked);
  EXPECT_EQ(KvShardRouterProxy::kRoutePasses, 3);
  EXPECT_EQ(router->wrong_shard_retries(),
            static_cast<std::uint64_t>(KvShardRouterProxy::kRoutePasses));

  // Thaw (the abort path a failed move takes) and the same op succeeds.
  auto thaw = [&]() -> sim::Co<void> {
    kvwire::ShardUnfreezeRequest req;
    req.shard = shard;
    Result<rpc::Void> thawed =
        co_await w.skv.groups[0].primary->HandleShardUnfreeze(req);
    CO_ASSERT_OK(thawed);
    CO_ASSERT_OK(co_await router->Put(key, "now"));
  };
  w.Run(thaw);
  EXPECT_EQ(router->wrong_shard_retries(),
            static_cast<std::uint64_t>(KvShardRouterProxy::kRoutePasses));
}

// --- fan-out: List/Size across groups, dedup mid-migration -------------

TEST(ShardRouting, ListMergesSortedAndDedupsAcrossAHalfFinishedMove) {
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::uint32_t shard = 4;  // owner: g0
  std::vector<std::string> keys;
  keys.push_back(KeyInShard(shard, /*salt=*/0));
  keys.push_back(KeyInShard(shard, /*salt=*/1));
  keys.push_back(KeyInShard(5, /*salt=*/0));  // owner: g1
  keys.push_back(KeyInShard(6, /*salt=*/0));  // owner: g0

  auto seed = [&]() -> sim::Co<void> {
    for (const auto& key : keys) {
      CO_ASSERT_OK(co_await router->Put(key, "v-" + key));
    }
    Result<std::vector<std::string>> listed = co_await router->List("");
    CO_ASSERT_OK(listed);
    EXPECT_EQ(listed->size(), keys.size());
    EXPECT_TRUE(std::is_sorted(listed->begin(), listed->end()));
    Result<std::uint64_t> size = co_await router->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, keys.size());
  };
  w.Run(seed);
  EXPECT_EQ(router->fanouts(), 2u);

  // Half-finish a move by hand: freeze at the source, install the copy
  // at the destination, but never commit or release — the two shard-4
  // keys are now resident at both groups, the mid-migration window every
  // fan-out must tolerate.
  auto half_move = [&]() -> sim::Co<void> {
    kvwire::ShardFreezeRequest freeze;
    freeze.shard = shard;
    Result<kvwire::ShardFreezeResponse> frozen =
        co_await w.skv.groups[0].primary->HandleShardFreeze(freeze);
    CO_ASSERT_OK(frozen);
    EXPECT_EQ(frozen->entries.size(), 2u);
    kvwire::ShardInstallRequest install;
    install.shard = shard;
    install.shard_epoch = frozen->shard_epoch + 1;
    install.entries = frozen->entries;
    Result<std::uint64_t> installed =
        co_await w.skv.groups[1].primary->HandleShardInstall(install);
    CO_ASSERT_OK(installed);
    EXPECT_EQ(*installed, 2u);
  };
  w.Run(half_move);

  auto fanout = [&]() -> sim::Co<void> {
    // List dedups the doubly-resident keys: still exactly |keys| names.
    Result<std::vector<std::string>> listed = co_await router->List("");
    CO_ASSERT_OK(listed);
    EXPECT_EQ(listed->size(), keys.size());
    EXPECT_TRUE(std::is_sorted(listed->begin(), listed->end()));
    // Size is advisory during a migration: the frozen-but-unreleased
    // shard is counted at both ends (documented, pinned here).
    Result<std::uint64_t> size = co_await router->Size();
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, keys.size() + 2);
  };
  w.Run(fanout);
}

// --- online migration: concurrent writes, crash recovery ---------------

TEST(ShardRouting, MigrationUnderConcurrentWritesLosesNoAckedWrite) {
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/3, /*seed=*/55);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::string busy = KeyInShard(0);    // migrates mid-write
  const std::string steady = KeyInShard(1);  // stays put at g1
  ShardRebalancer reb(*w.map_ctx, w.skv.binding, FastRebalancerParams());

  bool writes_done = false;
  bool move_done = false;
  constexpr int kWrites = 12;
  auto writer = [&]() -> sim::Co<void> {
    for (int i = 0; i < kWrites; ++i) {
      const std::string value = "v" + std::to_string(i);
      // Ack-or-retry, like a real client: a write that lands in the
      // freeze window fails after the router's bounded passes and is
      // simply re-issued; once acked it may never be lost again.
      bool acked = false;
      for (int attempt = 0; attempt < 40 && !acked; ++attempt) {
        Result<rpc::Void> put = co_await router->Put(busy, value);
        if (put.ok()) {
          acked = true;
          break;
        }
        co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(8));
      }
      EXPECT_TRUE(acked) << "write " << i << " never acknowledged";
      CO_ASSERT_OK(co_await router->Put(steady, value));
      // Read-your-write through the router, across the migration: the
      // just-acked value is what a subsequent read returns (single
      // writer, so equality is exact).
      bool read_back = false;
      for (int attempt = 0; attempt < 40 && !read_back; ++attempt) {
        Result<std::optional<std::string>> got = co_await router->Get(busy);
        if (got.ok()) {
          CO_ASSERT_TRUE(got->has_value());
          EXPECT_EQ(**got, value) << "after write " << i;
          read_back = true;
          break;
        }
        co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(8));
      }
      EXPECT_TRUE(read_back) << "read after write " << i << " never served";
      co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(4));
    }
    writes_done = true;
  };
  auto mover = [&]() -> sim::Co<void> {
    // Land the move squarely inside the write stream.
    co_await sim::SleepFor(w.rt->scheduler(), Milliseconds(30));
    Status moved = co_await reb.MigrateShard(0, 1);
    EXPECT_OK(moved);
    move_done = true;
  };
  (void)sim::Spawn(w.rt->scheduler(), writer());
  (void)sim::Spawn(w.rt->scheduler(), mover());
  w.rt->scheduler().RunUntil([&] { return writes_done && move_done; });
  ASSERT_TRUE(writes_done);
  ASSERT_TRUE(move_done);
  EXPECT_EQ(reb.moves(), 1u);

  // Quiescent: the final acked values survive at the new owner.
  auto verify = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> got = co_await router->Get(busy);
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, "v" + std::to_string(kWrites - 1));
    Result<std::optional<std::string>> still = co_await router->Get(steady);
    CO_ASSERT_OK(still);
    CO_ASSERT_TRUE(still->has_value());
    EXPECT_EQ(**still, "v" + std::to_string(kWrites - 1));
  };
  w.Run(verify);
  EXPECT_EQ(router->map_version(), 2u);
  EXPECT_EQ(router->last_op_group(), w.skv.group_names[1]);
}

TEST(ShardRouting, RerunRecoversAMoveAbandonedAfterFreeze) {
  // Crash-mid-copy: the rebalancer froze the source and died before
  // installing anything. The shard is fenced (safe, unavailable) until a
  // re-run of the same move finds it frozen, gets the identical
  // snapshot, and completes the handoff.
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::uint32_t shard = 2;  // owner: g0
  const std::string k1 = KeyInShard(shard, /*salt=*/0);
  const std::string k2 = KeyInShard(shard, /*salt=*/1);

  auto seed_then_freeze = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await router->Put(k1, "one"));
    CO_ASSERT_OK(co_await router->Put(k2, "two"));
    kvwire::ShardFreezeRequest req;
    req.shard = shard;
    Result<kvwire::ShardFreezeResponse> frozen =
        co_await w.skv.groups[0].primary->HandleShardFreeze(req);
    CO_ASSERT_OK(frozen);
    EXPECT_EQ(frozen->entries.size(), 2u);
  };
  w.Run(seed_then_freeze);
  EXPECT_TRUE(w.skv.groups[0].primary->shard().Frozen(shard));

  ShardRebalancer reb(*w.map_ctx, w.skv.binding, FastRebalancerParams());
  auto recover = [&]() -> sim::Co<void> {
    Status moved = co_await reb.MigrateShard(shard, 1);
    EXPECT_OK(moved);
  };
  w.Run(recover);
  EXPECT_EQ(reb.moves(), 1u);
  EXPECT_EQ(w.skv.map_service->map().owner[shard], 1u);
  EXPECT_EQ(w.skv.map_service->map().version, 2u);
  EXPECT_FALSE(w.skv.groups[0].primary->shard().Owns(shard));

  auto verify = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> one = co_await router->Get(k1);
    CO_ASSERT_OK(one);
    CO_ASSERT_TRUE(one->has_value());
    EXPECT_EQ(**one, "one");
    Result<std::optional<std::string>> two = co_await router->Get(k2);
    CO_ASSERT_OK(two);
    CO_ASSERT_TRUE(two->has_value());
    EXPECT_EQ(**two, "two");
  };
  w.Run(verify);
}

TEST(ShardRouting, RerunReleasesTheSourceAfterACommittedHandoff) {
  // Crash-mid-handoff: freeze, install and commit all landed, the
  // release never did. The committed map already names the destination;
  // re-running the move must short-circuit straight to the release sweep
  // and retire the source's fenced copy under the committed-epoch proof.
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/1);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::uint32_t shard = 6;  // owner: g0
  const std::string key = KeyInShard(shard);

  auto handoff_no_release = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await router->Put(key, "carried"));
    kvwire::ShardFreezeRequest freeze;
    freeze.shard = shard;
    Result<kvwire::ShardFreezeResponse> frozen =
        co_await w.skv.groups[0].primary->HandleShardFreeze(freeze);
    CO_ASSERT_OK(frozen);
    kvwire::ShardInstallRequest install;
    install.shard = shard;
    install.shard_epoch = frozen->shard_epoch + 1;
    install.entries = frozen->entries;
    Result<std::uint64_t> installed =
        co_await w.skv.groups[1].primary->HandleShardInstall(install);
    CO_ASSERT_OK(installed);
    shardwire::CommitMoveRequest commit;
    commit.shard = shard;
    commit.to_group = 1;
    commit.expect_version = 1;
    commit.new_shard_epoch = frozen->shard_epoch + 1;
    Result<shardwire::ShardMap> committed =
        w.skv.map_service->HandleCommitMove(commit);
    CO_ASSERT_OK(committed);
  };
  w.Run(handoff_no_release);
  EXPECT_TRUE(w.skv.groups[0].primary->shard().Owns(shard));  // dangling

  ShardRebalancer reb(*w.map_ctx, w.skv.binding, FastRebalancerParams());
  auto recover = [&]() -> sim::Co<void> {
    Status moved = co_await reb.MigrateShard(shard, 1);
    EXPECT_OK(moved);
  };
  w.Run(recover);
  EXPECT_EQ(reb.moves(), 1u);
  EXPECT_FALSE(w.skv.groups[0].primary->shard().Owns(shard));
  EXPECT_FALSE(w.skv.groups[0].primary->shard().Frozen(shard));

  auto verify = [&]() -> sim::Co<void> {
    Result<std::uint64_t> left = co_await w.skv.groups[0].primary->Size();
    CO_ASSERT_OK(left);
    EXPECT_EQ(*left, 0u);
    Result<std::optional<std::string>> got = co_await router->Get(key);
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, "carried");
  };
  w.Run(verify);
  EXPECT_EQ(router->last_op_group(), w.skv.group_names[1]);
}

TEST(ShardRouting, SourcePrimaryCrashMidMoveIsRecoveredViaPromotion) {
  // The freeze is mirrored to every active backup before any data leaves
  // the group, so a source primary that dies mid-move hands a *frozen*
  // shard to its successor — and a re-run of the move completes against
  // the promoted primary with the acked data intact.
  ShardedWorld w(/*groups=*/2, /*replicas_per_group=*/3, /*seed=*/77);
  auto router = w.AcquireRouter();
  ASSERT_NE(router, nullptr);
  const std::uint32_t shard = 0;  // owner: g0
  const std::string k1 = KeyInShard(shard, /*salt=*/0);
  const std::string k2 = KeyInShard(shard, /*salt=*/1);

  auto seed_then_freeze = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await router->Put(k1, "alpha"));
    CO_ASSERT_OK(co_await router->Put(k2, "beta"));
    kvwire::ShardFreezeRequest req;
    req.shard = shard;
    Result<kvwire::ShardFreezeResponse> frozen =
        co_await w.skv.groups[0].primary->HandleShardFreeze(req);
    CO_ASSERT_OK(frozen);
  };
  w.Run(seed_then_freeze);

  w.rt->CrashNode(w.replica_nodes[0][0]);
  w.rt->scheduler().RunFor(Milliseconds(450));  // lease lapse + promotion

  const KvReplica* successor = nullptr;
  for (const auto& replica : w.skv.groups[0].replicas) {
    if (replica->role() == ReplicaRole::kPrimary && !replica->syncing()) {
      EXPECT_EQ(successor, nullptr) << "two serving primaries in g0";
      successor = replica.get();
    }
  }
  ASSERT_NE(successor, nullptr) << "no g0 backup promoted";
  // The chain of custody: the successor inherited the freeze.
  EXPECT_TRUE(successor->shard().Frozen(shard));

  ShardRebalancer reb(*w.map_ctx, w.skv.binding, FastRebalancerParams());
  auto recover = [&]() -> sim::Co<void> {
    Status moved = co_await reb.MigrateShard(shard, 1);
    EXPECT_OK(moved);
  };
  w.Run(recover);
  EXPECT_EQ(reb.moves(), 1u);
  EXPECT_FALSE(successor->shard().Owns(shard));

  auto verify = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> one = co_await router->Get(k1);
    CO_ASSERT_OK(one);
    CO_ASSERT_TRUE(one->has_value());
    EXPECT_EQ(**one, "alpha");
    Result<std::optional<std::string>> two = co_await router->Get(k2);
    CO_ASSERT_OK(two);
    CO_ASSERT_TRUE(two->has_value());
    EXPECT_EQ(**two, "beta");
  };
  w.Run(verify);
  EXPECT_EQ(router->last_op_group(), w.skv.group_names[1]);

  // The crashed ex-primary restarts empty and rejoins as a resynced
  // backup of the post-move group.
  w.rt->RestartNode(w.replica_nodes[0][0]);
  w.rt->scheduler().RunFor(Milliseconds(400));
  EXPECT_FALSE(w.skv.groups[0].primary->syncing());
  EXPECT_EQ(w.skv.groups[0].primary->role(), ReplicaRole::kBackup);
  EXPECT_FALSE(w.skv.groups[0].primary->shard().Owns(shard));
}

// --- the rescue backstop: a fully-deposed group revives ----------------

/// Three replicas in named mode on their own nodes, plus a client node,
/// with the fast failover timers. The deposition below is wire-level, so
/// this world hands out raw access to the replica bindings.
struct RescueWorld {
  RescueWorld() {
    RegisterAllServices();
    core::Runtime::Params params;
    params.seed = 23;
    rt = std::make_unique<core::Runtime>(params);
    rt->StartNameService(rt->AddNode("ns"));
    n1 = rt->AddNode("kv-1");
    n2 = rt->AddNode("kv-2");
    n3 = rt->AddNode("kv-3");
    c1 = &rt->CreateContext(n1, "kv-1");
    c2 = &rt->CreateContext(n2, "kv-2");
    c3 = &rt->CreateContext(n3, "kv-3");
    client_ctx = &rt->CreateContext(rt->AddNode("client"), "client");
    ReplicatedKvParams params_kv = FastGroupParams();
    params_kv.name = "rkv/rescue";
    Result<ReplicatedKvExport> exported =
        ExportReplicatedKv(*c1, {c2, c3}, params_kv);
    EXPECT_TRUE(exported.ok());
    exp = std::move(*exported);
    rt->scheduler().RunFor(Milliseconds(30));  // lease publishes the name
  }

  template <typename L>
  void Run(L& lambda) {
    rt->Run(lambda());
  }

  [[nodiscard]] std::uint64_t TotalRescues() const {
    std::uint64_t total = 0;
    for (const auto& replica : exp.replicas) total += replica->rescues();
    return total;
  }

  std::unique_ptr<core::Runtime> rt;
  NodeId n1, n2, n3;
  core::Context* c1 = nullptr;
  core::Context* c2 = nullptr;
  core::Context* c3 = nullptr;
  core::Context* client_ctx = nullptr;
  ReplicatedKvExport exp;
};

TEST(ShardRouting, RescueRevivesAFullyDeposedGroupWithoutLosingData) {
  RescueWorld w;
  std::shared_ptr<IKeyValue> kv;
  auto bind = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await core::Acquire<IKeyValue>(*w.client_ctx, "rkv/rescue", opts);
    CO_ASSERT_OK(bound);
    kv = *bound;
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  w.Run(bind);
  ASSERT_NE(kv, nullptr);

  // Depose the primary at the wire: a higher-epoch membership announce
  // that excludes it — exactly what a partitioned successor's mirror
  // frame looks like. The ex-primary must step down into resync (its
  // data is intact, its epoch stays) without adopting the new view.
  auto depose = [&]() -> sim::Co<void> {
    kvwire::ReplicateBatchRequest evict;
    evict.epoch = w.exp.primary->epoch() + 1;
    evict.replicas = w.exp.backup_bindings;  // the primary is not in it
    rpc::CallOptions opts;
    opts.retry_interval = Milliseconds(5);
    opts.max_retries = 3;
    opts.deadline = Milliseconds(100);
    const Bytes args = serde::EncodeToBytes(evict);
    rpc::RpcResult r = co_await w.client_ctx->client().Call(
        w.exp.binding.server, w.exp.binding.object,
        kvwire::kReplicateBatch.id, args, opts);
    CO_ASSERT_TRUE(!r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  };
  w.Run(depose);
  EXPECT_EQ(w.exp.primary->role(), ReplicaRole::kBackup);
  EXPECT_TRUE(w.exp.primary->syncing());
  EXPECT_GE(w.exp.primary->epoch(), 1u);  // store and epoch survive

  // Crash-wipe both backups before they can promote: now every replica
  // is syncing — nobody can promote (no serving backup) and nobody can
  // rejoin (the name record expires unrenewed). Without the rescue
  // backstop this group is dead forever.
  w.rt->CrashNode(w.n2);
  w.rt->CrashNode(w.n3);

  // Safety half: with one peer still unreachable the data holder must
  // NOT claim — the missing replica could be strictly ahead.
  w.rt->RestartNode(w.n2);
  w.rt->scheduler().RunFor(Milliseconds(900));
  EXPECT_EQ(w.TotalRescues(), 0u);
  EXPECT_TRUE(w.exp.primary->syncing());

  // Liveness half: every peer reachable, all syncing, none ahead — the
  // ex-primary (the only replica with data, epoch > 0) claims the name,
  // serves again, and the wiped peers rejoin through it.
  w.rt->RestartNode(w.n3);
  w.rt->scheduler().RunFor(Milliseconds(1500));
  EXPECT_EQ(w.TotalRescues(), 1u);
  EXPECT_EQ(w.exp.primary->rescues(), 1u);
  EXPECT_EQ(w.exp.primary->role(), ReplicaRole::kPrimary);
  EXPECT_FALSE(w.exp.primary->syncing());
  EXPECT_GE(w.exp.primary->epoch(), 2u);  // rescue opens a fresh reign
  for (const auto& backup : w.exp.backup_impls) {
    EXPECT_FALSE(backup->syncing());
    EXPECT_EQ(backup->role(), ReplicaRole::kBackup);
    EXPECT_EQ(backup->epoch(), w.exp.primary->epoch());
  }

  // The acked pre-deposition write survived the whole ordeal, and the
  // revived group accepts new writes (the mirror set is whole again).
  auto after = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    CO_ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, "v1");
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
  };
  w.Run(after);
}

}  // namespace
}  // namespace proxy::services
