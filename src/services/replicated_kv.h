// Replicated key-value service — the "additional transparencies" layer.
//
// The 1986 argument: once every client/service interaction goes through
// a proxy, *replication* can be introduced by the service alone. This
// module proves it for the KV interface, including recovery from the
// loss of the primary:
//
//   server side   Symmetric KvReplica objects, one per node. At any
//                 instant one of them is the primary: it applies writes
//                 locally and mirrors them synchronously to every other
//                 *active* replica (primary-backup, write-all/read-one)
//                 under a monotonically increasing **epoch**. The
//                 primary holds the service name under a leased
//                 registration (core::LeaseMaintainer); when the lease
//                 lapses, the lowest-ranked live backup re-registers the
//                 name (first-register-wins at the NameServer) and
//                 promotes itself at epoch+1. A deposed or restarted
//                 primary that still tries to mirror gets FENCED and
//                 steps down; restarted replicas rejoin empty and catch
//                 up via a snapshot resync before serving again.
//   client side   KvFailoverProxy (IKeyValue protocol 4) learns the
//                 epoch-stamped replica set at first use; reads prefer
//                 the primary but fail over to backups; writes follow
//                 the primary across failovers by re-fetching the
//                 replica list on FENCED/UNAVAILABLE.
//
// Clients keep calling Get/Put on the same IKeyValue they always had.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/lease.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "services/kv.h"
#include "services/shard_map.h"

namespace proxy::services {

namespace kvwire {

struct ReplicaListResponse {
  std::uint64_t epoch = 0;
  std::vector<core::ServiceBinding> replicas;  // [0] is the primary
  PROXY_SERDE_FIELDS(epoch, replicas)
};

/// One mirrored mutation batch. `replicas` is the primary's active set
/// ([0] = the primary itself): receivers adopt it as their view of the
/// membership, and a receiver that no longer appears in it knows it has
/// been evicted and must resync before serving again.
struct ReplicateBatchRequest {
  std::uint64_t epoch = 0;
  std::vector<core::ServiceBinding> replicas;
  std::vector<std::pair<std::string, std::string>> entries;
  std::vector<std::string> deletes;
  /// The primary's shard-ownership view, adopted with the membership:
  /// a freeze or release survives promotion because every active backup
  /// saw it mirrored before the step was acknowledged.
  ShardConfig shard;
  PROXY_SERDE_FIELDS(epoch, replicas, entries, deletes, shard)
};

struct JoinRequest {
  core::ServiceBinding joiner;
  PROXY_SERDE_FIELDS(joiner)
};

struct JoinResponse {
  std::uint64_t epoch = 0;
  Bytes snapshot;  // KvService::SnapshotState() of the primary
  std::vector<core::ServiceBinding> replicas;
  ShardConfig shard;  // rejoiners re-learn shard fencing with the data
  PROXY_SERDE_FIELDS(epoch, snapshot, replicas, shard)
};

struct StatusResponse {
  std::uint64_t epoch = 0;
  bool is_primary = false;
  bool syncing = false;
  PROXY_SERDE_FIELDS(epoch, is_primary, syncing)
};

struct EpochPutResponse {
  std::uint64_t epoch = 0;
  /// Ownership epoch of the key's shard at the serving group (0 when
  /// the group is unsharded) — the split-shard invariant's evidence.
  std::uint64_t shard_epoch = 0;
  PROXY_SERDE_FIELDS(epoch, shard_epoch)
};

struct EpochDelResponse {
  bool existed = false;
  std::uint64_t epoch = 0;
  std::uint64_t shard_epoch = 0;
  PROXY_SERDE_FIELDS(existed, epoch, shard_epoch)
};

struct EpochGetResponse {
  std::optional<std::string> value;
  std::uint64_t epoch = 0;
  std::uint64_t shard_epoch = 0;
  PROXY_SERDE_FIELDS(value, epoch, shard_epoch)
};

struct ShardFreezeRequest {
  std::uint32_t shard = 0;
  PROXY_SERDE_FIELDS(shard)
};

struct ShardFreezeResponse {
  std::uint64_t shard_epoch = 0;  // source's ownership epoch
  std::vector<std::pair<std::string, std::string>> entries;  // the shard
  PROXY_SERDE_FIELDS(shard_epoch, entries)
};

struct ShardInstallRequest {
  std::uint32_t shard = 0;
  std::uint64_t shard_epoch = 0;  // must exceed the source's
  std::vector<std::pair<std::string, std::string>> entries;
  PROXY_SERDE_FIELDS(shard, shard_epoch, entries)
};

/// Drop the shard's data and ownership; legal only once the map holds a
/// newer ownership epoch (proof the handoff committed).
struct ShardReleaseRequest {
  std::uint32_t shard = 0;
  std::uint64_t committed_epoch = 0;
  PROXY_SERDE_FIELDS(shard, committed_epoch)
};

struct ShardUnfreezeRequest {
  std::uint32_t shard = 0;  // abort path: thaw, ownership unchanged
  PROXY_SERDE_FIELDS(shard)
};

// Extra methods every replica adds to the KV protocol.
inline constexpr rpc::Method<rpc::Void, ReplicaListResponse> kGetReplicas{20};
inline constexpr rpc::Method<ReplicateBatchRequest, rpc::Void>
    kReplicateBatch{21};
inline constexpr rpc::Method<JoinRequest, JoinResponse> kJoin{22};
inline constexpr rpc::Method<rpc::Void, StatusResponse> kGetStatus{23};
// Epoch-stamped data operations: same semantics as kGet/kPut/kDel but
// the response carries the serving replica's epoch, which the failover
// proxy records (and the chaos durability invariant consumes).
inline constexpr rpc::Method<PutRequest, EpochPutResponse> kEpochPut{24};
inline constexpr rpc::Method<DelRequest, EpochDelResponse> kEpochDel{25};
inline constexpr rpc::Method<GetRequest, EpochGetResponse> kEpochGet{26};
// Online shard migration (rebalancer -> group primary). The sequence
// is freeze -> copy (the freeze response carries the shard snapshot)
// -> install on the destination at shard_epoch+1 -> commit at the
// ShardMapService -> release at the source. Every step is idempotent
// so a rebalancer that crashed or timed out mid-move can re-run it.
inline constexpr rpc::Method<ShardFreezeRequest, ShardFreezeResponse>
    kShardFreeze{27};
/// Answers the ownership epoch actually held after the install.
inline constexpr rpc::Method<ShardInstallRequest, std::uint64_t>
    kShardInstall{28};
inline constexpr rpc::Method<ShardReleaseRequest, rpc::Void> kShardRelease{29};
inline constexpr rpc::Method<ShardUnfreezeRequest, rpc::Void>
    kShardUnfreeze{30};

}  // namespace kvwire

/// Failover tuning. The defaults suit the unit tests; the chaos harness
/// shrinks everything so a full crash → promote → rejoin cycle fits in
/// its horizon.
struct ReplicatedKvParams {
  /// Name the primary holds under lease. Empty = static mode: no lease,
  /// no promotion, no fencing state machine — the PR-2 behaviour.
  std::string name;
  core::LeaseParams lease{.ttl_ns = Milliseconds(400),
                          .renew_fraction = 0.35,
                          .max_consecutive_failures = 3};
  /// Backup watchdog poll period (lease-expiry detection latency).
  SimDuration watch_interval = Milliseconds(120);
  /// Extra wait per backup rank before claiming the name, so the
  /// lowest-ranked live backup wins without a register race in the
  /// common case (the race itself is still arbitrated by the server).
  SimDuration promote_stagger = Milliseconds(40);
  /// Retry period of a syncing replica looking for a primary to join.
  SimDuration rejoin_interval = Milliseconds(60);
  /// Mirror/announce call budget (per peer).
  rpc::CallOptions mirror{.retry_interval = Milliseconds(8),
                          .max_retries = 2,
                          .deadline = Milliseconds(60)};
  /// Chaos-harness fault hook: suppresses epoch fencing *and* the
  /// lease-lost step-down, reintroducing the static-primary bug this PR
  /// fixes (a deposed primary keeps accepting writes). The sweep must
  /// catch the resulting split-brain/durability violations.
  bool testing_disable_fencing = false;
  /// Chaos-harness fault hook for sharding: replicas skip the WRONG_SHARD
  /// ownership check, so a stale-mapped router's op lands on a group that
  /// no longer owns the key. Paired with Bug::kStaleShardMap; kv-lost-key
  /// and kv-split-shard must catch the fallout.
  bool testing_disable_shard_fencing = false;
};

enum class ReplicaRole : std::uint8_t { kPrimary, kBackup };

/// One replica of the replicated KV. All replicas run the same code and
/// export the same dispatch; role, epoch and the active set are dynamic.
class KvReplica : public IKeyValue,
                  public std::enable_shared_from_this<KvReplica> {
 public:
  /// Consecutive NOT_FOUND rejoin lookups before a syncing replica with
  /// an intact store (epoch > 0) attempts the rescue claim (TryRescue).
  /// Guards the liveness backstop for a fully-deposed group — every
  /// replica syncing, so nobody can promote and nobody can rejoin.
  static constexpr std::uint32_t kRescueAfterMisses = 4;

  KvReplica(core::Context& context, ReplicatedKvParams params)
      : context_(&context), params_(std::move(params)),
        store_(std::make_shared<KvService>(context)),
        metric_scope_(context.metrics()) {
    metric_scope_.Attach("svc.rkv.replication_failures",
                         &replication_failures_);
    metric_scope_.Attach("svc.rkv.fenced_rejections", &fenced_rejections_);
    metric_scope_.Attach("svc.rkv.promotions", &promotions_);
    metric_scope_.Attach("svc.rkv.rescues", &rescues_);
    metric_scope_.Attach("svc.rkv.wrong_shard_rejections",
                         &wrong_shard_rejections_);
  }

  // IKeyValue (primary path; backups serve reads, refuse writes).
  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override {
    co_return Lookup(key);
  }
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  sim::Co<Result<std::uint64_t>> Size() override { co_return KeyCount(); }
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override {
    co_return Keys(prefix);
  }

  // The synchronous read core the coroutines above and the skeleton call.
  // A syncing replica serves nothing.
  Result<std::optional<std::string>> Lookup(const std::string& key);
  Result<std::uint64_t> KeyCount() const;
  /// Every locally held key. No shard check: during migration the same
  /// key may momentarily be listable at two groups, and the router's
  /// fan-out merge dedups — listing is advisory, data ops are fenced.
  Result<std::vector<std::string>> Keys(const std::string& prefix) const;

  // Traced write paths: the server-side span of the client's request is
  // threaded through the mirror fan-out, so every replica's apply hangs
  // off the write that caused it in the call tree.
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value,
                                 obs::TraceContext trace,
                                 std::uint64_t* ack_epoch = nullptr);
  sim::Co<Result<bool>> Del(std::string key, obs::TraceContext trace,
                            std::uint64_t* ack_epoch = nullptr);

  // Wire handlers (wired up by MakeReplicatedKvDispatch).
  Result<kvwire::ReplicaListResponse> HandleGetReplicas() const;
  Result<rpc::Void> HandleReplicateBatch(kvwire::ReplicateBatchRequest req);
  sim::Co<Result<kvwire::JoinResponse>> HandleJoin(kvwire::JoinRequest req);
  Result<kvwire::StatusResponse> HandleGetStatus() const;

  // Shard migration handlers (primary only; every step idempotent and
  // mirrored to the backups before it is acknowledged, so the step
  // survives promotion).
  sim::Co<Result<kvwire::ShardFreezeResponse>> HandleShardFreeze(
      kvwire::ShardFreezeRequest req);
  /// Answers the ownership epoch held after the install.
  sim::Co<Result<std::uint64_t>> HandleShardInstall(
      kvwire::ShardInstallRequest req);
  sim::Co<Result<rpc::Void>> HandleShardRelease(
      kvwire::ShardReleaseRequest req);
  sim::Co<Result<rpc::Void>> HandleShardUnfreeze(
      kvwire::ShardUnfreezeRequest req);

  /// Installs the static replica set ([0] = initial primary) and this
  /// replica's own binding; called once by ExportReplicatedKv.
  void Configure(core::ServiceBinding self,
                 std::vector<core::ServiceBinding> all_replicas,
                 ReplicaRole role);

  /// Installs this group's initial shard slice (ExportShardedKv). An
  /// unsharded replica (the default) never fences on shards.
  void ConfigureShards(ShardConfig shard) { shard_ = std::move(shard); }

  /// Starts the failover machinery (lease heartbeat on the primary, the
  /// watchdog everywhere) and registers crash/restart handlers. Only
  /// called in named mode.
  void StartFailover();

  [[nodiscard]] ReplicaRole role() const noexcept { return role_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool syncing() const noexcept { return syncing_; }
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_;
  }
  [[nodiscard]] std::uint64_t rescues() const noexcept { return rescues_; }
  [[nodiscard]] std::uint64_t fenced_rejections() const noexcept {
    return fenced_rejections_;
  }
  [[nodiscard]] std::uint64_t replication_failures() const noexcept {
    return replication_failures_;
  }
  /// Writes admitted by the write gate whose mirroring has not finished;
  /// the join and freeze drains wait for this to reach zero.
  [[nodiscard]] int inflight_writes() const noexcept {
    return inflight_writes_;
  }
  [[nodiscard]] const ShardConfig& shard() const noexcept { return shard_; }
  /// Ownership epoch of `key`'s shard (0 when unsharded/unowned) — the
  /// stamp the epoch-method replies carry.
  [[nodiscard]] std::uint64_t ShardEpochOf(const std::string& key) const;
  [[nodiscard]] std::uint64_t wrong_shard_rejections() const noexcept {
    return wrong_shard_rejections_;
  }

 private:
  /// What one replication fan-out reached.
  struct Fanout {
    std::vector<core::ServiceBinding> acked;  // [0] = this replica
    std::size_t lost = 0;  // peers that failed other than with FENCED
    Status failure;        // the last of those failures
    bool fenced = false;   // a peer answered FENCED; the fan-out stopped
  };

  /// The one sender of kReplicateBatch: sends `req` to every peer but
  /// this replica, in order, stopping at the first FENCED reply and, in
  /// static mode, at the first other failure. `peers` is a copy because
  /// the sends suspend, and a concurrent frame may reassign active_
  /// meanwhile. The trace rides in the mirror call options.
  sim::Co<Fanout> Replicate(std::vector<core::ServiceBinding> peers,
                            const kvwire::ReplicateBatchRequest& req,
                            obs::TraceContext trace);

  /// Mirrors one write to every active peer through Replicate. In named
  /// mode a peer that fails liveness is evicted under a bumped epoch and
  /// the batch is re-announced to the survivors; in static mode any
  /// failure fails the write (strict write-all, which
  /// ReplicationTest.WriteFailsIfBackupUnreachable pins down). A FENCED
  /// reply deposes this primary (OnFenced).
  ///
  /// On success `*ack_epoch` (when non-null) receives the epoch the
  /// batch was actually mirrored under — which may exceed the epoch at
  /// entry if this frame evicted a dead peer mid-write. Responses must
  /// stamp *this* value, not a later read of epoch_: a parked frame can
  /// resume after a successor's announce bumped epoch_, and reporting
  /// the successor's epoch on a write it never served fakes split-brain.
  sim::Co<Status> Mirror(
      std::vector<std::pair<std::string, std::string>> entries,
      std::vector<std::string> deletes, obs::TraceContext trace,
      std::uint64_t* ack_epoch = nullptr);

  /// A peer fenced the batch sent at `sent_epoch`. Deposes this primary,
  /// unless the frame was superseded while it was parked: a concurrent
  /// frame bumped the epoch or already stepped down, so the peer fenced
  /// the stale frame, not the primary's present claim.
  Status OnFenced(std::uint64_t sent_epoch, const char* frame);

  /// A batch carrying this primary's epoch, view and shard config and no
  /// data: an announce or probe as it is, a mirror once the write is in.
  [[nodiscard]] kvwire::ReplicateBatchRequest ViewBatch() const;

  /// The eviction step: bumps the epoch, records why, and makes
  /// `survivors` ([0] = this replica) the active set.
  void Evict(std::vector<core::ServiceBinding> survivors, const char* why);

  /// The write gate of Put, Del and the shard-migration handlers: OK only
  /// on a serving primary whose writes no join or freeze drain pauses.
  [[nodiscard]] Status WriteGate() const;

  /// Pauses writes (joining_) and waits up to 64 ms for the ones in
  /// flight. On success writes stay paused and the caller resumes them;
  /// on timeout they resume here and the drain fails.
  sim::Co<Status> DrainWrites();

  /// The deposed-primary transition: drop the lease, become a syncing
  /// backup, and let the rejoin path pull fresh state.
  void StepDown(bool resync);
  /// Records the span event "rkv <this replica> <what>".
  void SpanEvent(const std::string& what) const;

  /// Watchdog: on backups, detects a lapsed primary lease and promotes;
  /// on the primary, notices a lost lease; on a syncing replica, drives
  /// the snapshot rejoin.
  static sim::Co<void> WatchdogLoop(std::shared_ptr<KvReplica> self);
  sim::Co<void> TryPromote();
  sim::Co<void> TryRejoin();
  /// Liveness backstop for a fully-deposed group (every replica syncing:
  /// crash-wiped or fenced out — nobody can promote, nobody can rejoin).
  /// A syncing replica with an intact store re-claims the name iff every
  /// configured peer is reachable, also syncing, and at an epoch <= ours.
  /// Safe because an acknowledged write lives on every member of the
  /// active set of its epoch and epochs only grow through that set: no
  /// reachable peer strictly ahead means no acknowledged write we lack.
  sim::Co<void> TryRescue();
  /// What a status poll of the configured peers found.
  struct PeerPoll {
    std::size_t unreachable = 0;
    bool ahead = false;    // a peer is at a newer epoch; the poll stopped
    bool serving = false;  // a reachable peer is serving, not syncing
  };
  /// The status poll of promotion and rescue, one peer after another. It
  /// stops at a peer that is ahead and, for a `rescue`, also at the first
  /// unreachable or serving peer, since any of them vetoes the rescue.
  sim::Co<PeerPoll> PollPeers(bool rescue);
  /// The takeover step of promotion and rescue: a fresh epoch as the
  /// primary of `view` ([0] = this replica), logged and recorded as a
  /// span event "<how> at epoch N". The caller starts the lease.
  void TakeOver(std::vector<core::ServiceBinding> view, const char* how);
  /// The name claim of promotion and rescue: registers this replica under
  /// the service name if nobody holds it (first-register-wins at the name
  /// server). True when the claim won and this replica is still up.
  sim::Co<bool> ClaimName();

  /// Data-path shard fence: OK when this group owns `key`'s shard and it
  /// is not frozen, WRONG_SHARD otherwise (no-op when unsharded). Runs
  /// before the store is touched and before a write counts as in flight.
  [[nodiscard]] Status CheckShard(const std::string& key);
  /// FAILED_PRECONDITION unless this group is sharded and `shard` exists.
  [[nodiscard]] Status CheckShardRange(std::uint32_t shard) const;
  /// The locally held keys of `shard`, sorted.
  [[nodiscard]] std::vector<std::string> ShardKeys(std::uint32_t shard) const;

  core::Context* context_;
  ReplicatedKvParams params_;
  std::shared_ptr<KvService> store_;
  core::ServiceBinding self_;
  std::vector<core::ServiceBinding> all_replicas_;  // static config
  std::vector<core::ServiceBinding> active_;        // [0] = primary
  ReplicaRole role_ = ReplicaRole::kPrimary;
  std::uint64_t epoch_ = 1;
  bool syncing_ = false;
  bool joining_ = false;   // primary: a join or freeze drain pauses writes
  /// Consecutive rejoin lookups that found no name record; at
  /// kRescueAfterMisses the replica considers the group deposed and
  /// attempts TryRescue.
  std::uint32_t rejoin_misses_ = 0;
  int inflight_writes_ = 0;  // changed only by InflightWrite
  std::unique_ptr<core::LeaseMaintainer> lease_;  // primary only
  /// This group's live shard slice. Mutated only on the primary (by the
  /// migration handlers) and then mirrored; backups adopt it from
  /// ReplicateBatchRequest/JoinResponse. Volatile across crashes — a
  /// restarted replica re-learns it from the join snapshot, exactly like
  /// the data.
  ShardConfig shard_;
  obs::Counter replication_failures_;
  obs::Counter fenced_rejections_;
  obs::Counter promotions_;
  obs::Counter rescues_;
  obs::Counter wrong_shard_rejections_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// Builds a replica's skeleton: the methods KvFailoverProxy calls (the
/// epoch-stamped data operations, Size, List, GetReplicas) plus the
/// replication and shard-migration methods.
std::shared_ptr<rpc::Dispatch> MakeReplicatedKvDispatch(
    std::shared_ptr<KvReplica> impl);

struct ReplicatedKvExport {
  std::shared_ptr<KvReplica> primary;
  core::ServiceBinding binding;                  // advertises protocol 4
  std::vector<core::ServiceBinding> backup_bindings;
  std::vector<std::shared_ptr<KvReplica>> backup_impls;
  std::vector<std::shared_ptr<KvReplica>> replicas;  // all, [0] = primary
};

/// Exports one replica per context ([primary_ctx] + backup_ctxs), wires
/// replication, and returns the initial primary's binding. With a
/// non-empty `params.name` the export also publishes the name under a
/// lease and arms automatic failover (the name must not be separately
/// published by the caller in that mode).
Result<ReplicatedKvExport> ExportReplicatedKv(
    core::Context& primary_ctx, std::vector<core::Context*> backup_ctxs,
    ReplicatedKvParams params = {});

/// Protocol 4: replication-aware proxy. Reads fail over across replicas;
/// writes follow the primary across epochs. When a full pass over the
/// cached replica list fails — or the primary answers FENCED — the proxy
/// invalidates the list and re-fetches it (through the name service if
/// the bound address itself is dead) before retrying.
class KvFailoverProxy : public IKeyValue, public core::ProxyBase {
 public:
  KvFailoverProxy(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)),
        metric_scope_(context.metrics()) {
    // Fail over quickly rather than retrying one dead replica forever.
    set_call_options(rpc::CallOptions{.retry_interval = Milliseconds(10),
                                      .max_retries = 2});
    metric_scope_.Attach("svc.rkv.proxy.failovers", &failovers_);
    metric_scope_.Attach("svc.rkv.proxy.list_refreshes", &list_refreshes_);
  }

  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override;
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override;

  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }
  [[nodiscard]] std::uint64_t list_refreshes() const noexcept {
    return list_refreshes_;
  }
  /// Epoch of the replica that served the last completed operation (for
  /// reads/writes via the epoch-stamped methods), and the object that
  /// acknowledged the last write — the observables the chaos invariants
  /// are built from.
  [[nodiscard]] std::uint64_t last_op_epoch() const noexcept {
    return last_op_epoch_;
  }
  [[nodiscard]] ObjectId last_write_acker() const noexcept {
    return last_write_acker_;
  }
  /// Shard-ownership epoch stamped on the last epoch-method reply (0
  /// against an unsharded group). The shard router republishes this per
  /// routed op for the chaos split-shard/lost-key invariants.
  [[nodiscard]] std::uint64_t last_op_shard_epoch() const noexcept {
    return last_op_shard_epoch_;
  }

 private:
  /// Fetches the replica set — through the bound primary (which
  /// re-resolves the name if dead), then by asking each previously known
  /// replica. Called on first use (the warm test is replicas_.empty())
  /// and as a `refresh`, which drops the cached list first. `budget` is
  /// the owning operation's shared retransmission allowance; the fetch's
  /// own calls draw from it.
  sim::Co<Status> LoadReplicaList(bool refresh, obs::TraceContext trace,
                                  rpc::AttemptBudget* budget);

  /// One shared retransmission allowance for a whole read/write
  /// operation. Each pass of ReadCall/WriteCall used to retry on its own
  /// policy, so one client op could fan into passes × replicas ×
  /// transport-retries transmissions — a retry storm exactly when the
  /// service was least able to absorb it. Every replica still gets its
  /// first transmission (failover keeps working); what the budget stops
  /// is *re*-transmissions once the op's total allowance is spent. A
  /// local of the operation's coroutine, which awaits every call it
  /// rides on.
  [[nodiscard]] rpc::AttemptBudget MintOpBudget() const {
    return rpc::AttemptBudget(options_.max_retries * 2 + 2);
  }

  /// Read path: try replicas starting with the preferred one; after a
  /// full failed pass, refresh the list once and run one more pass.
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  sim::Co<Result<Resp>> ReadCall(rpc::Method<Req, Resp> method, A req);

  /// Write path: the primary only, but re-discover the primary (bounded
  /// number of times) on FENCED/UNAVAILABLE/TIMEOUT.
  template <typename Req, typename Resp, rpc::RequestOf<Req> A>
  sim::Co<Result<Resp>> WriteCall(rpc::Method<Req, Resp> method, A req);

  static constexpr int kWritePasses = 3;

  std::vector<core::ServiceBinding> replicas_;  // [0] = primary
  std::size_t preferred_ = 0;                   // sticky last-good replica
  obs::Counter failovers_;
  obs::Counter list_refreshes_;
  std::uint64_t last_op_epoch_ = 0;
  std::uint64_t last_op_shard_epoch_ = 0;
  ObjectId last_write_acker_{};
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

}  // namespace proxy::services
