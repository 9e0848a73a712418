// Replicated KV tests: write-all mirroring, read failover, stickiness,
// write unavailability semantics, chaos (random partitions) runs, and
// the pinned bytes of the replication wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/factory.h"
#include "services/replicated_kv.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using core::Acquire;
using core::AcquireOptions;
using proxy::testing::TestWorld;

struct ReplicaWorld {
  ReplicaWorld() : w(77) {
    // Primary on the server node; two backups on their own nodes.
    backup_node_1 = w.rt->AddNode("backup-1");
    backup_node_2 = w.rt->AddNode("backup-2");
    backup_ctx_1 = &w.rt->CreateContext(backup_node_1, "backup-ctx-1");
    backup_ctx_2 = &w.rt->CreateContext(backup_node_2, "backup-ctx-2");
    auto exported =
        ExportReplicatedKv(*w.server_ctx, {backup_ctx_1, backup_ctx_2});
    EXPECT_TRUE(exported.ok());
    exp = std::move(*exported);
    w.Publish("rkv", exp.binding);
  }

  std::shared_ptr<IKeyValue> BindProxy(core::Context& ctx) {
    return proxy::testing::AcquireByName<IKeyValue>(w, ctx, "rkv");
  }

  TestWorld w;
  NodeId backup_node_1, backup_node_2;
  core::Context* backup_ctx_1 = nullptr;
  core::Context* backup_ctx_2 = nullptr;
  ReplicatedKvExport exp;
};

TEST(ReplicationTest, BindInstallsFailoverProxy) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);
  EXPECT_NE(dynamic_cast<KvFailoverProxy*>(kv.get()), nullptr);
}

TEST(ReplicationTest, WritesReachEveryReplica) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    // Both backups hold the data (checked directly on the impls).
    for (auto& backup : rw.exp.backup_impls) {
      Result<std::optional<std::string>> got = co_await backup->Get("k1");
      CO_ASSERT_OK(got);
      EXPECT_EQ(got->value(), "v1");
    }
  };
  rw.w.Run(body);
}

TEST(ReplicationTest, DeleteReplicates) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("gone", "soon"));
    Result<bool> deleted = co_await kv->Del("gone");
    CO_ASSERT_OK(deleted);
    EXPECT_TRUE(*deleted);
    for (auto& backup : rw.exp.backup_impls) {
      Result<std::optional<std::string>> got = co_await backup->Get("gone");
      CO_ASSERT_OK(got);
      EXPECT_FALSE(got->has_value());
    }
  };
  rw.w.Run(body);
}

TEST(ReplicationTest, ReadsFailOverWhenPrimaryPartitions) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("stable", "data"));
    // Force replica discovery before the partition.
    CO_ASSERT_OK(co_await kv->Get("stable"));

    // Cut the client off from the primary only.
    rw.w.rt->network().SetPartitioned(rw.w.client_node, rw.w.server_node,
                                      true);
    Result<std::optional<std::string>> got = co_await kv->Get("stable");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "data");  // served by a backup
  };
  rw.w.Run(body);

  auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get());
  EXPECT_GE(proxy->failovers(), 1u);
}

TEST(ReplicationTest, FailoverSticksToHealthyReplica) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k", "v"));
    CO_ASSERT_OK(co_await kv->Get("k"));
    rw.w.rt->network().SetPartitioned(rw.w.client_node, rw.w.server_node,
                                      true);
    // First read pays the failover; subsequent ones go straight to the
    // healthy replica (no repeated timeout on the dead primary).
    CO_ASSERT_OK(co_await kv->Get("k"));
    const SimTime before = rw.w.rt->scheduler().now();
    CO_ASSERT_OK(co_await kv->Get("k"));
    const SimDuration second = rw.w.rt->scheduler().now() - before;
    EXPECT_LT(second, Milliseconds(5));  // no timeout in the path
  };
  rw.w.Run(body);
  auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get());
  EXPECT_EQ(proxy->failovers(), 1u);
}

TEST(ReplicationTest, WritesFailWhenPrimaryUnreachable) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k", "v"));
    rw.w.rt->network().SetPartitioned(rw.w.client_node, rw.w.server_node,
                                      true);
    Result<rpc::Void> write = co_await kv->Put("k", "v2");
    EXPECT_EQ(write.status().code(), StatusCode::kTimeout);
    // Reads still work (failover), and see the last replicated value.
    Result<std::optional<std::string>> got = co_await kv->Get("k");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v");
  };
  rw.w.Run(body);
}

TEST(ReplicationTest, WriteFailsIfBackupUnreachable) {
  // Write-all: a write must not be acknowledged while a backup is down.
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k", "v"));
    rw.w.rt->network().SetPartitioned(rw.w.server_node, rw.backup_node_1,
                                      true);
    Result<rpc::Void> write = co_await kv->Put("k", "v2");
    EXPECT_FALSE(write.ok());
  };
  rw.w.Run(body);
  // The client gives up before the primary's own mirror attempt times
  // out; drain the remaining events so the failure is recorded.
  rw.w.rt->scheduler().Run();
  EXPECT_GT(rw.exp.primary->replication_failures(), 0u);
}

TEST(ReplicationChaos, ReadsSurviveRandomSingleLinkPartitions) {
  // Chaos: every few ms a random client<->replica link flips; at most one
  // replica is unreachable at any time, so reads must always succeed.
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto& net = rw.w.rt->network();
  const NodeId replicas[] = {rw.w.server_node, rw.backup_node_1,
                             rw.backup_node_2};
  const NodeId client = rw.w.client_node;

  auto chaos = [&]() -> sim::Co<void> {
    Rng rng(4242);
    NodeId cut = replicas[0];
    bool active = false;
    for (int i = 0; i < 40; ++i) {
      co_await sim::SleepFor(rw.w.rt->scheduler(), Milliseconds(8));
      if (active) net.SetPartitioned(client, cut, false);
      cut = replicas[rng.UniformU64(3)];
      net.SetPartitioned(client, cut, true);
      active = true;
    }
    if (active) net.SetPartitioned(client, cut, false);
  };

  int reads_ok = 0;
  int reads_total = 0;
  auto reader = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("chaos", "value"));
    for (int i = 0; i < 100; ++i) {
      Result<std::optional<std::string>> got = co_await kv->Get("chaos");
      ++reads_total;
      if (got.ok() && got->has_value() && got->value() == "value") ++reads_ok;
      co_await sim::SleepFor(rw.w.rt->scheduler(), Milliseconds(3));
    }
  };

  (void)sim::Spawn(rw.w.rt->scheduler(), chaos());
  (void)sim::Spawn(rw.w.rt->scheduler(), reader());
  rw.w.rt->scheduler().Run();

  EXPECT_EQ(reads_total, 100);
  EXPECT_EQ(reads_ok, 100);  // failover masked every partition
}

TEST(ReplicationTest, SemanticErrorsDoNotTriggerFailover) {
  ReplicaWorld rw;
  auto kv = rw.BindProxy(*rw.w.client_ctx);

  auto body = [&]() -> sim::Co<void> {
    // A Get for a missing key is OK-with-nullopt, not an error; but a
    // Del of a missing key returns existed=false — also not a transport
    // error. Verify neither bumps the failover counter.
    CO_ASSERT_OK(co_await kv->Get("missing"));
    Result<bool> del = co_await kv->Del("missing");
    CO_ASSERT_OK(del);
    EXPECT_FALSE(*del);
  };
  rw.w.Run(body);
  auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get());
  EXPECT_EQ(proxy->failovers(), 0u);
}

// --- the replication wire: encoded bytes are pinned ---
//
// Chaos fingerprints count scheduler events, so they move whenever a
// coroutine layer on the replica path comes or goes. These pins are what
// show such a change left the bytes of the replica protocol alone.

std::string Hex(BytesView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// A static-mode primary on the server node at a fixed object id, whose
/// one peer is a recorder on the client node that logs the argument
/// bytes of every replication batch and acknowledges it. The group owns
/// all four shards of a sharded keyspace at ownership epoch 1.
struct RecordedGroup {
  static constexpr std::uint32_t kShards = 4;

  RecordedGroup() {
    primary = std::make_shared<KvReplica>(*w.server_ctx, ReplicatedKvParams{});
    self.server = w.server_ctx->server_address();
    self.object = ObjectId{0xa1, 0xa2};
    self.interface = InterfaceIdOf(IKeyValue::kInterfaceName);
    self.protocol = 4;
    peer = self;
    peer.server = w.client_ctx->server_address();
    peer.object = ObjectId{0xb1, 0xb2};
    EXPECT_TRUE(w.server_ctx->server()
                    .ExportObject(self.object,
                                  MakeReplicatedKvDispatch(primary))
                    .ok());
    auto recorder = std::make_shared<rpc::Dispatch>();
    recorder->Register(
        kvwire::kReplicateBatch.id,
        [this](BytesView args,
               const obs::TraceContext&) -> sim::Co<Result<Bytes>> {
          batches.emplace_back(args.begin(), args.end());
          co_return serde::EncodeToBytes(rpc::Void{});
        });
    EXPECT_TRUE(
        w.client_ctx->server().ExportObject(peer.object, recorder).ok());
    primary->Configure(self, {self, peer}, ReplicaRole::kPrimary);
    ShardConfig shard;
    shard.num_shards = kShards;
    shard.owned = {0, 1, 2, 3};
    shard.owned_epoch = {1, 1, 1, 1};
    primary->ConfigureShards(std::move(shard));
  }
  RecordedGroup(const RecordedGroup&) = delete;  // the recorder holds `this`

  /// The `nth` key "k<i>" (counting from 0) that hashes into `shard`.
  static std::string KeyIn(std::uint32_t shard, int nth = 0) {
    for (int i = 0;; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      if (ShardOf(key, kShards) == shard && nth-- == 0) return key;
    }
  }

  /// Calls `method` on the primary from the client node; returns the
  /// reply payload bytes.
  Bytes Call(std::uint32_t method, const Bytes& args) {
    rpc::CallOptions opts;
    opts.deadline = Milliseconds(100);
    rpc::RpcResult r = w.rt->Await(w.client_ctx->client().Call(
        self.server, self.object, method, View(args), opts));
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return r.payload.ToBytes();
  }

  TestWorld w;
  std::shared_ptr<KvReplica> primary;
  core::ServiceBinding self;
  core::ServiceBinding peer;
  std::vector<Bytes> batches;
};

TEST(ReplicationWire, ReplicateBatchBytesArePinned) {
  RecordedGroup g;
  const std::string stale = RecordedGroup::KeyIn(1);
  const std::string fresh = RecordedGroup::KeyIn(1, 1);
  // A Put, a freeze of shard 0, then an install of shard 1 at epoch 2
  // whose snapshot lacks the key the Put wrote: the install mirrors the
  // snapshot's entries, deletes the stale key, and carries the config
  // with shard 0 still frozen.
  ASSERT_OK(g.w.rt->Run(g.primary->Put(stale, "old")));
  kvwire::ShardFreezeRequest freeze;
  freeze.shard = 0;
  ASSERT_OK(g.w.rt->Run(g.primary->HandleShardFreeze(freeze)));
  kvwire::ShardInstallRequest install;
  install.shard = 1;
  install.shard_epoch = 2;
  install.entries = {{fresh, "new"}};
  ASSERT_OK(g.w.rt->Run(g.primary->HandleShardInstall(std::move(install))));

  // Each batch: epoch 1 and the view [primary, peer], then entries,
  // deletes, and the shard config (4 shards, owned [0 1 2 3] at their
  // ownership epochs, then the frozen list).
  const std::string head =
      "01" "02" "00828002a100000000000000a2000000000000007f2bb7adc139922004"
      "01808002b100000000000000b2000000000000007f2bb7adc139922004";
  ASSERT_EQ(g.batches.size(), 3u);
  EXPECT_EQ(Hex(View(g.batches[0])),  // Put k0 = old
            head + "01026b30036f6c64" + "00" + "0404000102030401010101" + "00");
  EXPECT_EQ(Hex(View(g.batches[1])),  // freeze shard 0
            head + "00" + "00" + "0404000102030401010101" + "0100");
  EXPECT_EQ(Hex(View(g.batches[2])),  // install k4 = new, delete k0
            head + "01026b34036e6577" + "01026b30" + "0404000102030401020101" +
                "0100");
}

TEST(ReplicationWire, JoinResponseBytesArePinned) {
  RecordedGroup g;
  ASSERT_OK(g.w.rt->Run(g.primary->Put(RecordedGroup::KeyIn(0), "v0")));
  ASSERT_OK(g.w.rt->Run(g.primary->Put(RecordedGroup::KeyIn(1), "v1")));
  kvwire::JoinRequest join;
  join.joiner = g.peer;
  const Bytes resp = g.Call(kvwire::kJoin.id, serde::EncodeToBytes(join));
  // epoch 1; the snapshot {k0: v1, k3: v0} with its empty subscriber
  // list; the view [primary, peer]; the shard config.
  EXPECT_EQ(Hex(View(resp)),
            "01" + std::string("0e02026b30027631026b3302763000") +
                "0200828002a100000000000000a2000000000000007f2bb7adc139922004"
                "01808002b100000000000000b2000000000000007f2bb7adc139922004" +
                "040400010203040101010100");
}

TEST(ReplicationWire, EpochResponseBytesArePinned) {
  RecordedGroup g;
  const std::string key = RecordedGroup::KeyIn(2);
  // Every reply is stamped with replication epoch 1 and the key's shard
  // epoch 1.
  kvwire::PutRequest put{key, "value", ObjectId{}};
  EXPECT_EQ(
      Hex(View(g.Call(kvwire::kEpochPut.id, serde::EncodeToBytes(put)))),
      "0101");
  kvwire::GetRequest get{key};
  EXPECT_EQ(
      Hex(View(g.Call(kvwire::kEpochGet.id, serde::EncodeToBytes(get)))),
      "01" "0576616c7565" "0101");  // value "value"
  kvwire::DelRequest del{key, ObjectId{}};
  EXPECT_EQ(
      Hex(View(g.Call(kvwire::kEpochDel.id, serde::EncodeToBytes(del)))),
      "01" "0101");  // existed
}

}  // namespace
}  // namespace proxy::services
