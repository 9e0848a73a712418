// Shard map service — the routing metadata behind the sharded KV.
//
// The paper's encapsulation claim at scale: clients keep one IKeyValue
// while the backend becomes N epoch-fenced replica groups. The pieces:
//
//   ShardMap          versioned assignment of hash shards to replica
//                     groups (each group is a named, failover-replicated
//                     KV exported by ExportReplicatedKv). Every shard
//                     carries its own **ownership epoch**, bumped on
//                     every migration, so a group can prove — and a
//                     stale one can be told — who owns a key.
//   ShardMapService   the authoritative copy. Routers fetch it lazily
//                     and re-fetch on WRONG_SHARD; the rebalancer
//                     commits moves through it (version-checked CAS).
//   ShardConfig       the per-group slice of the map a replica enforces
//                     on its data path (owned shards, their epochs, and
//                     any frozen mid-migration). It rides every
//                     replication batch and join snapshot, so promotion
//                     and rejoin preserve shard fencing exactly like
//                     they preserve data.
//
// The routing proxy itself (protocol 5) and the online-migration
// rebalancer live in shard_router.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime.h"
#include "obs/metrics.h"
#include "rpc/stub.h"
#include "sim/task.h"

namespace proxy::services {

namespace shardwire {

/// The versioned shard → group assignment. Groups are name-service
/// paths ("app/kv/g0"): a router resolves the *name*, so group failover
/// (the leased record moving to a new primary) is invisible here.
struct ShardMap {
  std::uint64_t version = 0;
  std::uint32_t num_shards = 0;
  std::vector<std::string> groups;        // name path per replica group
  std::vector<std::uint32_t> owner;       // shard -> index into groups
  std::vector<std::uint64_t> shard_epoch; // shard -> ownership epoch
  PROXY_SERDE_FIELDS(version, num_shards, groups, owner, shard_epoch)

  /// Structural sanity: one owner and one epoch per shard, owners in
  /// range. Decoded maps are validated before a router trusts them.
  [[nodiscard]] bool Valid() const noexcept {
    if (num_shards == 0 || groups.empty()) return false;
    if (owner.size() != num_shards || shard_epoch.size() != num_shards) {
      return false;
    }
    for (const std::uint32_t g : owner) {
      if (g >= groups.size()) return false;
    }
    return true;
  }
};

/// Version-checked move commit: the rebalancer proves it acted on the
/// map it read. A mismatch means a concurrent move won; re-read.
struct CommitMoveRequest {
  std::uint32_t shard = 0;
  std::uint32_t to_group = 0;
  std::uint64_t expect_version = 0;
  std::uint64_t new_shard_epoch = 0;
  PROXY_SERDE_FIELDS(shard, to_group, expect_version, new_shard_epoch)
};

// Methods on the shard map object (ids disjoint from kvwire's).
inline constexpr rpc::Method<rpc::Void, ShardMap> kGetShardMap{40};
/// Answers the committed map (version already bumped).
inline constexpr rpc::Method<CommitMoveRequest, ShardMap> kCommitMove{41};

}  // namespace shardwire

/// Stable key → shard routing (FNV-1a 64, folded). Every router and
/// every replica must agree on this function.
[[nodiscard]] std::uint32_t ShardOf(std::string_view key,
                                    std::uint32_t num_shards) noexcept;

/// The slice of the shard map one replica group enforces. Empty
/// (num_shards == 0) means unsharded: no fencing, the pre-shard
/// behaviour. `owned`/`owned_epoch` are parallel arrays; `frozen` marks
/// owned shards mid-migration (data ops answer WRONG_SHARD while the
/// snapshot is in flight, exactly like a fenced epoch).
struct ShardConfig {
  std::uint32_t num_shards = 0;
  std::vector<std::uint32_t> owned;
  std::vector<std::uint64_t> owned_epoch;
  std::vector<std::uint32_t> frozen;
  PROXY_SERDE_FIELDS(num_shards, owned, owned_epoch, frozen)

  [[nodiscard]] bool sharded() const noexcept { return num_shards != 0; }
  [[nodiscard]] bool Owns(std::uint32_t shard) const noexcept {
    for (const std::uint32_t s : owned) {
      if (s == shard) return true;
    }
    return false;
  }
  [[nodiscard]] bool Frozen(std::uint32_t shard) const noexcept {
    for (const std::uint32_t s : frozen) {
      if (s == shard) return true;
    }
    return false;
  }
  /// Ownership epoch of `shard`; 0 when not owned.
  [[nodiscard]] std::uint64_t EpochOf(std::uint32_t shard) const noexcept {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (owned[i] == shard) return owned_epoch[i];
    }
    return 0;
  }

  void Adopt(std::uint32_t shard, std::uint64_t epoch) {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (owned[i] == shard) {
        owned_epoch[i] = epoch;
        return;
      }
    }
    owned.push_back(shard);
    owned_epoch.push_back(epoch);
  }
  void Drop(std::uint32_t shard) {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (owned[i] == shard) {
        owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
        owned_epoch.erase(owned_epoch.begin() +
                          static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    Unfreeze(shard);
  }
  void Freeze(std::uint32_t shard) {
    if (!Frozen(shard)) frozen.push_back(shard);
  }
  void Unfreeze(std::uint32_t shard) {
    for (std::size_t i = 0; i < frozen.size(); ++i) {
      if (frozen[i] == shard) {
        frozen.erase(frozen.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }
};

/// Builds the initial balanced map: shard s -> group s % groups.size(),
/// every shard at ownership epoch 1, version 1.
[[nodiscard]] shardwire::ShardMap MakeInitialShardMap(
    std::uint32_t num_shards, std::vector<std::string> groups);

/// The ShardConfig group `index` starts with under `map`.
[[nodiscard]] ShardConfig InitialShardConfig(const shardwire::ShardMap& map,
                                             std::uint32_t index);

/// Authoritative shard map holder. One instance per sharded deployment,
/// exported as the target object of the routing binding (protocol 5):
/// routers call kGetShardMap on the very object their IKeyValue binding
/// points at, the rebalancer commits moves through kCommitMove.
class ShardMapService {
 public:
  ShardMapService(core::Context& context, shardwire::ShardMap initial);

  Result<shardwire::ShardMap> HandleGet();
  Result<shardwire::ShardMap> HandleCommitMove(
      const shardwire::CommitMoveRequest& req);

  [[nodiscard]] const shardwire::ShardMap& map() const noexcept {
    return map_;
  }
  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }

 private:
  core::Context* context_;
  shardwire::ShardMap map_;
  obs::Counter gets_;
  obs::Counter commits_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// The map object's skeleton (kGetShardMap + kCommitMove).
std::shared_ptr<rpc::Dispatch> MakeShardMapDispatch(
    std::shared_ptr<ShardMapService> impl);

}  // namespace proxy::services
