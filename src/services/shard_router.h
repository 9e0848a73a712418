// Shard routing proxy and online migration — distribution as a proxy
// protocol, one more time.
//
// Protocol 5 completes the ladder: a client that Acquire<IKeyValue>()s a
// sharded deployment receives a KvShardRouterProxy whose binding points
// at the ShardMapService object. The router lazily fetches the versioned
// shard map, routes every single-key operation to the owning replica
// group (each group is itself reached through a protocol-4 failover
// proxy, so group-internal failover stays invisible here), and fans
// Size/List out across all groups. A replica that no longer owns a key's
// shard answers WRONG_SHARD; the router re-fetches the map and retries,
// bounded, so a stale map costs a client at most a transient retry.
//
// Online migration is driven from outside the data path by a
// ShardRebalancer: freeze (source stops accepting the shard and hands
// out a snapshot) -> install (destination adopts it under a bumped
// ownership epoch) -> commit (version-checked CAS at the map service)
// -> release (source deletes its copy). Every step is mirrored to the
// group's backups before it is acknowledged and every step is
// idempotent, so a crash of the source primary, the destination primary
// or the rebalancer itself mid-move is recoverable by re-running the
// move.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/factory.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "services/replicated_kv.h"
#include "services/shard_map.h"

namespace proxy::services {

/// Protocol 5: the routing proxy. Bound to the ShardMapService object;
/// data never flows through the map service, only routing metadata.
class KvShardRouterProxy : public IKeyValue, public core::ProxyBase {
 public:
  /// Route attempts per operation: a WRONG_SHARD answer forces a map
  /// refresh and a retry; after this many the error surfaces (the
  /// stale-map retry bound the tests pin down).
  static constexpr int kRoutePasses = 3;

  /// How long a group that shed a call stays marked overloaded. Ops
  /// routed at a marked group fail fast (RESOURCE_EXHAUSTED, remaining
  /// window as the hint) instead of offering the server more work; the
  /// server's own retry-after hints were already honored by the layers
  /// below before the shed surfaced here.
  static constexpr SimDuration kGroupBackoff = Milliseconds(25);

  KvShardRouterProxy(core::Context& context, core::ServiceBinding binding);

  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override;
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  /// Fan-out: sum of every group's size. Advisory during a migration
  /// (a frozen-but-unreleased shard is counted at both ends).
  sim::Co<Result<std::uint64_t>> Size() override;
  /// Fan-out with a dedup + sorted merge, so a shard momentarily present
  /// at two groups mid-migration is reported once.
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override;

  [[nodiscard]] std::uint64_t map_version() const noexcept {
    return map_.version;
  }
  [[nodiscard]] std::uint64_t map_refreshes() const noexcept {
    return map_refreshes_;
  }
  [[nodiscard]] std::uint64_t wrong_shard_retries() const noexcept {
    return wrong_shard_retries_;
  }
  [[nodiscard]] std::uint64_t fanouts() const noexcept { return fanouts_; }
  /// Ops failed fast because their group was inside its shed-backoff
  /// window (shed-before-fanout: no work was offered to the group).
  [[nodiscard]] std::uint64_t shed_fail_fast() const noexcept {
    return shed_fail_fast_;
  }

  /// Routing observables of the last completed single-key operation —
  /// which shard, which group (by name), and the group's shard-ownership
  /// epoch stamped on the reply. The chaos workload records these per op
  /// for the lost-key / split-shard invariants.
  [[nodiscard]] std::uint32_t last_op_shard() const noexcept {
    return last_op_shard_;
  }
  [[nodiscard]] const std::string& last_op_group() const noexcept {
    return last_op_group_;
  }
  [[nodiscard]] std::uint64_t last_op_shard_epoch() const noexcept {
    return last_op_shard_epoch_;
  }
  [[nodiscard]] std::uint64_t last_op_epoch() const noexcept {
    return last_op_epoch_;
  }
  [[nodiscard]] ObjectId last_write_acker() const noexcept {
    return last_write_acker_;
  }

 private:
  /// Fetches the shard map: on first use (the warm test is map_.Valid()),
  /// and as a `refresh` after WRONG_SHARD. The result is adopted only if
  /// its version is not older than the cached one (refreshes never
  /// regress).
  sim::Co<Status> LoadMap(bool refresh, obs::TraceContext trace = {});

  /// The warm test of the group cache: the protocol-4 failover proxy of
  /// group `name`, or null until AcquireGroup binds it. Groups are
  /// resolved by *name*, so group-internal failover and promotion stay
  /// the group proxy's business.
  [[nodiscard]] std::shared_ptr<KvFailoverProxy> CachedGroup(
      const std::string& name) const;
  sim::Co<Result<std::shared_ptr<KvFailoverProxy>>> AcquireGroup(
      const std::string& name);

  /// The route-retry loop of every single-key op: routes `key` to its
  /// owning group and runs `op(group, key)` there, re-fetching the map and
  /// retrying (bounded by kRoutePasses) while the group answers
  /// WRONG_SHARD. `write` selects which routing observables are recorded.
  template <typename T, typename Op>
  sim::Co<Result<T>> Route(std::string key, bool write, Op op);

  /// The fan-out of Size/List: runs `op(group)` at every group in map
  /// order and folds each part into the result with `fold(acc, part)`;
  /// the first failing group fails the whole fan-out.
  template <typename T, typename Op, typename Fold>
  sim::Co<Result<T>> FanOut(Op op, Fold fold);

  /// Records the routing observables after a routed op against `group`.
  void RecordOp(std::uint32_t shard, const std::string& group_name,
                const KvFailoverProxy& group, bool write);

  /// Time left in `group`'s shed-backoff window (0 = not backed off).
  /// Non-const: expired windows are erased as they are observed.
  [[nodiscard]] SimDuration GroupBackoffRemaining(const std::string& group);
  /// Marks `group` overloaded for kGroupBackoff when `code` is a shed.
  void NoteGroupOutcome(const std::string& group, StatusCode code);
  /// Fail-fast verdict for an op about to target `group`; counts it.
  [[nodiscard]] Status ShedFast(const std::string& group,
                                SimDuration remaining);

  shardwire::ShardMap map_;
  std::map<std::string, std::shared_ptr<KvFailoverProxy>> groups_;
  /// Shed-before-fanout state: group name -> end of its backoff window.
  std::map<std::string, SimTime> group_backoff_until_;
  obs::Counter map_refreshes_;
  obs::Counter wrong_shard_retries_;
  obs::Counter fanouts_;
  obs::Counter shed_fail_fast_;
  std::uint32_t last_op_shard_ = 0;
  std::string last_op_group_;
  std::uint64_t last_op_shard_epoch_ = 0;
  std::uint64_t last_op_epoch_ = 0;
  ObjectId last_write_acker_{};
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// Rebalancer tuning. The chaos harness shrinks the pauses so several
/// full moves fit inside its fault window.
struct ShardRebalancerParams {
  /// Attempts per migration step (each re-resolves the group primary).
  int step_attempts = 8;
  /// Pause between attempts of one step.
  SimDuration step_pause = Milliseconds(50);
  /// Per-RPC budget within a step.
  rpc::CallOptions call{.retry_interval = Milliseconds(10),
                        .max_retries = 2,
                        .deadline = Milliseconds(80)};
};

/// Drives online shard moves from outside the data path. MigrateShard is
/// a full idempotent state machine: re-running it after ANY mid-move
/// failure (lost rebalancer, crashed source or destination primary,
/// lost commit ack) finishes or cleanly completes the move.
class ShardRebalancer {
 public:
  ShardRebalancer(core::Context& context, core::ServiceBinding map_binding,
                  ShardRebalancerParams params = {});

  /// Moves `shard` to `to_group` (an index into the map's group list):
  /// freeze -> install@epoch+1 -> commit -> release-everywhere-else.
  /// Already-moved shards short-circuit to the release sweep, so this is
  /// also the recovery procedure for a half-finished move.
  sim::Co<Status> MigrateShard(std::uint32_t shard, std::uint32_t to_group);

  [[nodiscard]] std::uint64_t moves() const noexcept { return moves_; }
  [[nodiscard]] std::uint64_t move_failures() const noexcept {
    return move_failures_;
  }

 private:
  sim::Co<Result<shardwire::ShardMap>> FetchMap();

  /// One migration step against a group's *current* primary: resolve the
  /// group name, call, retry on liveness failures (re-resolving each
  /// time, so a promotion mid-step is followed). Semantic errors are
  /// final.
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  sim::Co<Result<Resp>> CallPrimary(const std::string& group,
                                    rpc::Method<Req, Resp> method, A req);

  core::Context* context_;
  core::ServiceBinding map_binding_;
  ShardRebalancerParams params_;
  obs::Counter moves_;
  obs::Counter move_failures_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// A sharded deployment: N replica groups plus the map service.
struct ShardedKvParams {
  /// Base name. The map binding is registered here (protocol 5); group
  /// g lives at "<name>/g<g>" (leased by that group's primary).
  std::string name;
  std::uint32_t num_shards = 8;
  /// Per-group replication template; `group.name` is overridden.
  ReplicatedKvParams group;
};

struct ShardedKvExport {
  core::ServiceBinding binding;  // the routing binding (protocol 5)
  std::shared_ptr<ShardMapService> map_service;
  std::vector<std::string> group_names;
  std::vector<ReplicatedKvExport> groups;
};

/// Exports one replica group per entry of `group_ctxs` (each entry:
/// [0] = that group's initial primary), the shard map service in
/// `map_ctx`, seeds every replica's ShardConfig from the initial map,
/// and registers `params.name` -> the protocol-5 routing binding. A
/// client that Acquires the base name gets the router; nothing about its
/// code changes between a 1-group and an N-group deployment.
sim::Co<Result<ShardedKvExport>> ExportShardedKv(
    core::Context& map_ctx, std::vector<std::vector<core::Context*>> group_ctxs,
    ShardedKvParams params);

}  // namespace proxy::services
