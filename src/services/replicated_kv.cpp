#include "services/replicated_kv.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace proxy::services {

using kvwire::DelRequest;
using kvwire::EpochDelResponse;
using kvwire::EpochGetResponse;
using kvwire::EpochPutResponse;
using kvwire::GetRequest;
using kvwire::JoinRequest;
using kvwire::JoinResponse;
using kvwire::ListRequest;
using kvwire::PutRequest;
using kvwire::ReplicaListResponse;
using kvwire::ReplicateBatchRequest;
using kvwire::ShardFreezeRequest;
using kvwire::ShardFreezeResponse;
using kvwire::ShardInstallRequest;
using kvwire::ShardReleaseRequest;
using kvwire::ShardUnfreezeRequest;
using kvwire::StatusResponse;

namespace {

bool SameObject(const core::ServiceBinding& a, const core::ServiceBinding& b) {
  return a.object == b.object;
}

bool Contains(const std::vector<core::ServiceBinding>& list,
              const core::ServiceBinding& replica) {
  return std::any_of(list.begin(), list.end(), [&](const auto& r) {
    return SameObject(r, replica);
  });
}

/// Counts one write in flight for as long as it lives, so every frame
/// releases exactly the count it took — also a frame that finishes after
/// a crash reset everything else.
struct InflightWrite {
  explicit InflightWrite(int& n) : count(n) { ++count; }
  ~InflightWrite() { --count; }
  InflightWrite(const InflightWrite&) = delete;
  int& count;
};

}  // namespace

// --- replica: configuration and lifecycle ------------------------------

void KvReplica::Configure(core::ServiceBinding self,
                          std::vector<core::ServiceBinding> all_replicas,
                          ReplicaRole role) {
  self_ = self;
  all_replicas_ = std::move(all_replicas);
  active_ = all_replicas_;  // [0] is the initial primary by construction
  role_ = role;
  epoch_ = 1;
}

void KvReplica::StartFailover() {
  if (role_ == ReplicaRole::kPrimary) {
    lease_ = std::make_unique<core::LeaseMaintainer>(*context_, params_.name,
                                                     self_, params_.lease);
  }
  auto self = shared_from_this();
  context_->OnCrash([self] {
    // Crash-stop: every bit of volatile state dies with the process. The
    // static replica list is configuration and survives (a restarted
    // process re-reads its config); data, role, epoch and view do not.
    // The in-flight write count is left alone: the crashed incarnation's
    // parked writes still finish, and each releases what it took.
    self->store_ = std::make_shared<KvService>(*self->context_);
    self->role_ = ReplicaRole::kBackup;
    self->syncing_ = true;
    self->joining_ = false;
    self->rejoin_misses_ = 0;
    self->epoch_ = 0;
    self->active_.clear();
    // Shard ownership is volatile like the data: a restarted replica
    // re-learns it from the join snapshot, never from stale memory.
    self->shard_ = ShardConfig{};
    if (self->lease_) {
      self->lease_->Stop();
      self->lease_.reset();
    }
  });
  sim::Detach(context_->scheduler(), WatchdogLoop(self));
}

void KvReplica::StepDown(bool resync) {
  role_ = ReplicaRole::kBackup;
  if (resync) syncing_ = true;
  if (lease_) {
    lease_->Stop();
    lease_.reset();
  }
  PROXY_LOG(kInfo, context_->scheduler().now(), "rkv",
            "replica " << self_.object.ToString() << " stepped down"
                       << (resync ? " (resync)" : ""));
  SpanEvent(std::string("step-down") + (resync ? " (resync)" : ""));
}

void KvReplica::SpanEvent(const std::string& what) const {
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() + " " + what);
}

// --- replica: data path ------------------------------------------------

Status KvReplica::CheckShard(const std::string& key) {
  if (!shard_.sharded() || params_.testing_disable_shard_fencing) {
    return Status::Ok();
  }
  const std::uint32_t shard = ShardOf(key, shard_.num_shards);
  if (!shard_.Owns(shard)) {
    wrong_shard_rejections_++;
    return WrongShardError("shard " + std::to_string(shard) +
                           " not owned by this group");
  }
  if (shard_.Frozen(shard)) {
    wrong_shard_rejections_++;
    return WrongShardError("shard " + std::to_string(shard) +
                           " frozen for migration");
  }
  return Status::Ok();
}

std::uint64_t KvReplica::ShardEpochOf(const std::string& key) const {
  if (!shard_.sharded()) return 0;
  return shard_.EpochOf(ShardOf(key, shard_.num_shards));
}

Status KvReplica::WriteGate() const {
  if (syncing_) return UnavailableError("replica syncing");
  if (role_ != ReplicaRole::kPrimary) {
    return UnavailableError("not the primary");
  }
  if (joining_) return UnavailableError("snapshot join in progress");
  return Status::Ok();
}

Result<std::optional<std::string>> KvReplica::Lookup(const std::string& key) {
  if (syncing_) return UnavailableError("replica syncing");
  const Status owned = CheckShard(key);
  if (!owned.ok()) return owned;
  return store_->Lookup(key);
}

Result<std::uint64_t> KvReplica::KeyCount() const {
  if (syncing_) return UnavailableError("replica syncing");
  return store_->key_count();
}

Result<std::vector<std::string>> KvReplica::Keys(
    const std::string& prefix) const {
  if (syncing_) return UnavailableError("replica syncing");
  return store_->Keys(prefix);
}

sim::Co<KvReplica::Fanout> KvReplica::Replicate(
    std::vector<core::ServiceBinding> peers, const ReplicateBatchRequest& req,
    obs::TraceContext trace) {
  const bool strict = params_.name.empty();  // static mode: write-all
  rpc::CallOptions mirror = params_.mirror;
  mirror.trace = trace;
  Fanout out;
  out.acked.push_back(self_);
  Bytes args;  // encoded once, at the first peer, and sent to each by view
  for (const auto& peer : peers) {
    if (SameObject(peer, self_)) continue;
    if (args.empty()) args = serde::EncodeToBytes(req);
    rpc::RpcResult r = co_await context_->client().Call(
        peer.server, peer.object, kvwire::kReplicateBatch.id, args, mirror);
    if (r.ok()) {
      out.acked.push_back(peer);
    } else if (r.status.code() == StatusCode::kFenced) {
      out.fenced = true;
      break;
    } else {
      out.lost++;
      out.failure = std::move(r.status);
      if (strict) break;
    }
  }
  co_return out;
}

Status KvReplica::OnFenced(std::uint64_t sent_epoch, const char* frame) {
  if (sent_epoch < epoch_ || role_ != ReplicaRole::kPrimary) {
    return UnavailableError(std::string("superseded ") + frame +
                            " frame fenced at epoch " +
                            std::to_string(sent_epoch));
  }
  StepDown(/*resync=*/true);
  return FencedError("deposed: a peer fenced epoch " +
                     std::to_string(sent_epoch));
}

ReplicateBatchRequest KvReplica::ViewBatch() const {
  ReplicateBatchRequest batch;
  batch.epoch = epoch_;
  batch.replicas = active_;
  batch.shard = shard_;
  return batch;
}

void KvReplica::Evict(std::vector<core::ServiceBinding> survivors,
                      const char* why) {
  epoch_++;
  SpanEvent("epoch bump -> " + std::to_string(epoch_) + " (" + why + ")");
  active_ = std::move(survivors);
}

sim::Co<Status> KvReplica::Mirror(
    std::vector<std::pair<std::string, std::string>> entries,
    std::vector<std::string> deletes, obs::TraceContext trace,
    std::uint64_t* ack_epoch) {
  // A freeze's drain suspends between its write gate and this point, so
  // a successor's announce may have deposed us meanwhile. A deposed
  // replica must not push batches under the successor's adopted epoch.
  if (role_ != ReplicaRole::kPrimary || syncing_) {
    co_return UnavailableError("deposed before mirroring");
  }
  const bool named = !params_.name.empty();
  ReplicateBatchRequest req = ViewBatch();
  req.entries = std::move(entries);
  req.deletes = std::move(deletes);

  // Write-all over the active set: every active peer must acknowledge
  // before the client does (so any active replica can later promote
  // without losing an acknowledged write).
  Fanout sent = co_await Replicate(active_, req, trace);
  replication_failures_ += sent.lost;
  if (sent.fenced) co_return OnFenced(req.epoch, "mirror");
  if (sent.lost > 0) {
    if (!named) {
      // Static mode keeps strict write-all: any unreachable backup fails
      // the write outright.
      co_return UnavailableError("backup unreachable: " +
                                 sent.failure.ToString());
    }
    if (role_ != ReplicaRole::kPrimary) {
      // Deposed while parked in the fan-out: only a standing primary may
      // evict peers and mint a new epoch.
      co_return UnavailableError("deposed during mirror fan-out");
    }
    if (sent.acked.size() < 2) {
      // Never acknowledge a write this primary alone holds: a single
      // crash could then lose acknowledged data. The local apply stands
      // (the client sees a failure, which may or may not have executed —
      // the ambiguity every checker already tolerates) and the watchdog
      // probe walks the evicted replicas back in before writes resume.
      co_return UnavailableError("no reachable backup to mirror to");
    }
    // Evict the unreachable peers under a bumped epoch and re-announce
    // the same (idempotent) batch so the survivors adopt the new view.
    // The evicted replica is fenced out: it can neither promote (it will
    // see a newer epoch when it polls) nor rejoin the active set without
    // a snapshot resync.
    Evict(std::move(sent.acked), "evicting unreachable backups");
    req.epoch = epoch_;
    req.replicas = active_;
    Fanout confirmed = co_await Replicate(active_, req, trace);
    replication_failures_ += confirmed.lost;
    if (confirmed.fenced) co_return OnFenced(req.epoch, "re-announce");
    if (confirmed.acked.size() < 2) {
      co_return UnavailableError("no reachable backup to mirror to");
    }
    if (role_ != ReplicaRole::kPrimary) {
      co_return UnavailableError("deposed during eviction re-announce");
    }
    if (confirmed.lost > 0) {
      // Died between the two passes: evict it too. The remaining peers
      // learn the final view with the next mirrored batch.
      Evict(std::move(confirmed.acked), "peer died during re-announce");
    }
  }
  // The epoch the surviving peers actually confirmed the batch under
  // (req.epoch, not epoch_: a later bump by this frame's eviction tail
  // or by a concurrent frame is not the epoch this write was served at).
  if (ack_epoch != nullptr) *ack_epoch = req.epoch;
  co_return Status::Ok();
}

sim::Co<Result<rpc::Void>> KvReplica::Put(std::string key, std::string value) {
  return Put(std::move(key), std::move(value), obs::TraceContext{});
}

sim::Co<Result<rpc::Void>> KvReplica::Put(std::string key, std::string value,
                                          obs::TraceContext trace,
                                          std::uint64_t* ack_epoch) {
  Status admitted = WriteGate();
  if (admitted.ok()) admitted = CheckShard(key);
  if (!admitted.ok()) co_return admitted;
  const InflightWrite inflight(inflight_writes_);
  store_->Store(key, value);
  std::vector<std::pair<std::string, std::string>> entries;
  entries.emplace_back(std::move(key), std::move(value));
  const Status mirrored =
      co_await Mirror(std::move(entries), {}, trace, ack_epoch);
  if (!mirrored.ok()) co_return mirrored;
  co_return rpc::Void{};
}

sim::Co<Result<bool>> KvReplica::Del(std::string key) {
  return Del(std::move(key), obs::TraceContext{});
}

sim::Co<Result<bool>> KvReplica::Del(std::string key, obs::TraceContext trace,
                                     std::uint64_t* ack_epoch) {
  Status admitted = WriteGate();
  if (admitted.ok()) admitted = CheckShard(key);
  if (!admitted.ok()) co_return admitted;
  const InflightWrite inflight(inflight_writes_);
  const bool existed = store_->Erase(key);
  std::vector<std::string> deletes;
  deletes.push_back(std::move(key));
  const Status mirrored =
      co_await Mirror({}, std::move(deletes), trace, ack_epoch);
  if (!mirrored.ok()) co_return mirrored;
  co_return existed;
}

// --- replica: wire handlers --------------------------------------------

Result<ReplicaListResponse> KvReplica::HandleGetReplicas() const {
  if (syncing_) return UnavailableError("replica syncing");
  return ReplicaListResponse{epoch_, active_};
}

Result<StatusResponse> KvReplica::HandleGetStatus() const {
  return StatusResponse{epoch_, role_ == ReplicaRole::kPrimary && !syncing_,
                        syncing_};
}

Result<rpc::Void> KvReplica::HandleReplicateBatch(ReplicateBatchRequest req) {
  if (syncing_) {
    // Mid-resync our store is a mix of old and new state; acknowledging
    // a batch we may later overwrite with the snapshot would fake
    // durability. Refuse until the join completes.
    return UnavailableError("replica syncing");
  }
  const bool fencing = !params_.testing_disable_fencing;
  // One epoch, one primary: two replicas can reach an epoch number on
  // their own (a primary evicting peers, and a backup that missed that
  // bump promoting itself), and following both would let each of them
  // acknowledge writes under it. So at its own epoch a replica keeps
  // following the primary it already follows.
  const bool rival =
      req.epoch == epoch_ && !active_.empty() &&
      (req.replicas.empty() || !SameObject(req.replicas[0], active_[0]));
  if (fencing && (req.epoch < epoch_ || rival)) {
    fenced_rejections_++;
    const std::string why =
        "epoch " + std::to_string(req.epoch) +
        (rival ? " has another primary" : " < " + std::to_string(epoch_));
    SpanEvent((rival ? "fenced rival batch: " : "fenced stale batch: ") +
              why);
    return FencedError(rival ? why : "stale " + why);
  }
  if (req.epoch >= epoch_) {
    if (!Contains(req.replicas, self_)) {
      if (fencing && role_ == ReplicaRole::kPrimary) {
        // An evicted ex-primary must fully step down: keeping the lease
        // maintainer alive would let its overwrite-renewals steal the
        // name back from the successor after a partition heals.
        StepDown(/*resync=*/true);
        return UnavailableError("evicted from the active set");
      }
      if (fencing || role_ != ReplicaRole::kPrimary) {
        // A newer view evicted us (our ack was lost, or we were cut
        // off): our data may be behind, so resync before serving again.
        syncing_ = true;
        return UnavailableError("evicted from the active set");
      }
      // Bug mode: a stale primary shrugs off its eviction and keeps
      // acting as primary — the split-brain the sweep must catch.
    }
    if (fencing || role_ == ReplicaRole::kBackup) {
      if (req.epoch > epoch_ && role_ == ReplicaRole::kPrimary) {
        // A successor announced a newer epoch that still includes us, so
        // our data is current: become a serving backup, no resync.
        StepDown(/*resync=*/false);
      }
      epoch_ = req.epoch;
      active_ = req.replicas;
      // Adopt the shard view BEFORE applying the batch below: a replica
      // that applies a release's deletes has, by then, already dropped
      // the shard, so it can never serve a false "absent" for a key it
      // silently deleted.
      shard_ = req.shard;
    }
    // With fencing disabled a (stale) primary keeps its role and epoch —
    // the reintroduced bug the chaos sweep must catch.
  }
  store_->StoreAll(std::move(req.entries));
  for (std::string& key : req.deletes) store_->Erase(std::move(key));
  return rpc::Void{};
}

sim::Co<Status> KvReplica::DrainWrites() {
  joining_ = true;
  for (int i = 0; i < 64 && inflight_writes_ > 0; ++i) {
    co_await sim::SleepFor(context_->scheduler(), Milliseconds(1));
  }
  if (inflight_writes_ == 0) co_return Status::Ok();
  joining_ = false;
  co_return UnavailableError("write drain timed out");
}

sim::Co<Result<JoinResponse>> KvReplica::HandleJoin(JoinRequest req) {
  if (role_ != ReplicaRole::kPrimary || syncing_) {
    co_return UnavailableError("not the primary");
  }
  // Pause writes while the snapshot is cut so the joiner cannot miss a
  // concurrently mirrored batch (writes racing the join fail unacked).
  const Status drained = co_await DrainWrites();
  if (!drained.ok()) co_return drained;
  if (!Contains(active_, req.joiner)) {
    // Re-admit in static-configuration order, primary first, so every
    // replica agrees on backup ranks (the promotion stagger).
    std::vector<core::ServiceBinding> next{self_};
    for (const auto& r : all_replicas_) {
      if (SameObject(r, self_)) continue;
      if (Contains(active_, r) || SameObject(r, req.joiner)) next.push_back(r);
    }
    active_ = std::move(next);
  }
  JoinResponse resp;
  resp.epoch = epoch_;
  resp.snapshot = store_->SnapshotState();
  resp.replicas = active_;
  resp.shard = shard_;
  joining_ = false;
  co_return resp;
}

// --- replica: shard migration handlers ---------------------------------
//
// All four run on the owning group's primary, driven by the rebalancer
// (shard_router.h), behind the write gate. Each one mirrors the resulting
// ShardConfig to every active backup before acknowledging, so the step
// survives promotion; each one is idempotent, so a rebalancer that lost
// an ack re-runs it.

Status KvReplica::CheckShardRange(std::uint32_t shard) const {
  if (shard_.sharded() && shard < shard_.num_shards) return Status::Ok();
  return FailedPreconditionError("group not sharded or shard " +
                                 std::to_string(shard) + " out of range");
}

std::vector<std::string> KvReplica::ShardKeys(std::uint32_t shard) const {
  std::vector<std::string> keys;
  for (std::string& key : store_->Keys("")) {
    if (ShardOf(key, shard_.num_shards) == shard) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

sim::Co<Result<ShardFreezeResponse>> KvReplica::HandleShardFreeze(
    ShardFreezeRequest req) {
  Status admitted = WriteGate();
  if (admitted.ok()) admitted = CheckShardRange(req.shard);
  if (!admitted.ok()) co_return admitted;
  if (!shard_.Owns(req.shard)) {
    co_return WrongShardError("freeze: shard " + std::to_string(req.shard) +
                              " not owned by this group");
  }
  // Freeze first: from this instant new writes to the shard refuse with
  // WRONG_SHARD, so the snapshot cut below cannot miss an acked write.
  shard_.Freeze(req.shard);
  // Drain in-flight writes (they passed CheckShard before the freeze and
  // may still be mirroring) under the same write pause a join uses.
  const Status drained = co_await DrainWrites();
  joining_ = false;
  if (!drained.ok()) {
    shard_.Unfreeze(req.shard);
    co_return drained;
  }
  // The freeze must reach every active backup before any data leaves:
  // if this primary dies after handing out the copy, its successor must
  // refuse shard writes too, or the installed copy silently goes stale.
  const Status mirrored = co_await Mirror({}, {}, obs::TraceContext{});
  if (!mirrored.ok()) {
    // Backups that did adopt the frozen view heal on the next mirrored
    // batch (the config rides every one of them, as state not deltas).
    shard_.Unfreeze(req.shard);
    co_return mirrored;
  }
  ShardFreezeResponse resp;
  resp.shard_epoch = shard_.EpochOf(req.shard);
  for (std::string& key : ShardKeys(req.shard)) {
    std::string value = store_->Lookup(key).value();
    resp.entries.emplace_back(std::move(key), std::move(value));
  }
  SpanEvent("froze shard " + std::to_string(req.shard) + " (" +
            std::to_string(resp.entries.size()) + " keys)");
  co_return resp;
}

sim::Co<Result<std::uint64_t>> KvReplica::HandleShardInstall(
    ShardInstallRequest req) {
  Status admitted = WriteGate();
  if (admitted.ok()) admitted = CheckShardRange(req.shard);
  if (!admitted.ok()) co_return admitted;
  if (req.shard_epoch < shard_.EpochOf(req.shard)) {
    // A duplicate of some older, long-committed move: refuse rather than
    // regress the ownership epoch.
    co_return FailedPreconditionError(
        "install epoch " + std::to_string(req.shard_epoch) + " behind held " +
        std::to_string(shard_.EpochOf(req.shard)));
  }
  // Re-runs repeat identical work: adopt (monotonic), re-apply the same
  // entries, re-mirror — so a retry after a lost ack also repairs any
  // backup that missed the first mirror.
  shard_.Adopt(req.shard, req.shard_epoch);
  shard_.Unfreeze(req.shard);
  // An install replaces the group's slice of the shard wholesale: a key
  // resident here but absent from the snapshot is left over from an
  // older, uncommitted install of the same shard and must not resurrect
  // (it may have been deleted at the group that stayed owner meanwhile).
  std::vector<std::string> stale;
  for (std::string& key : ShardKeys(req.shard)) {
    const bool in_snapshot =
        std::any_of(req.entries.begin(), req.entries.end(),
                    [&](const auto& e) { return e.first == key; });
    if (!in_snapshot) stale.push_back(std::move(key));
  }
  const InflightWrite inflight(inflight_writes_);
  for (const auto& key : stale) store_->Erase(key);
  store_->StoreAll(req.entries);
  const Status mirrored =
      co_await Mirror(req.entries, std::move(stale), obs::TraceContext{});
  if (!mirrored.ok()) co_return mirrored;
  SpanEvent("installed shard " + std::to_string(req.shard) + " @ epoch " +
            std::to_string(req.shard_epoch) + " (" +
            std::to_string(req.entries.size()) + " keys)");
  co_return shard_.EpochOf(req.shard);
}

sim::Co<Result<rpc::Void>> KvReplica::HandleShardRelease(
    ShardReleaseRequest req) {
  Status admitted = WriteGate();
  if (admitted.ok()) admitted = CheckShardRange(req.shard);
  if (!admitted.ok()) co_return admitted;
  if (shard_.Owns(req.shard)) {
    if (req.committed_epoch <= shard_.EpochOf(req.shard)) {
      // No proof the handoff committed — dropping now could lose the only
      // live copy of the shard.
      co_return FailedPreconditionError(
          "release without a newer committed epoch: " +
          std::to_string(req.committed_epoch) + " <= " +
          std::to_string(shard_.EpochOf(req.shard)));
    }
    shard_.Drop(req.shard);
  }
  // Delete whatever of the shard is still held. A retry after a partial
  // failure finds less (or nothing) to delete but still re-mirrors the
  // dropped config. Receivers adopt the config before applying these
  // deletes (HandleReplicateBatch), so no replica ever serves a false
  // "absent" for a key it deleted here.
  std::vector<std::string> deletes = ShardKeys(req.shard);
  const InflightWrite inflight(inflight_writes_);
  for (const auto& key : deletes) store_->Erase(key);
  const Status mirrored =
      co_await Mirror({}, std::move(deletes), obs::TraceContext{});
  if (!mirrored.ok()) co_return mirrored;
  SpanEvent("released shard " + std::to_string(req.shard) +
            " (committed epoch " + std::to_string(req.committed_epoch) + ")");
  co_return rpc::Void{};
}

sim::Co<Result<rpc::Void>> KvReplica::HandleShardUnfreeze(
    ShardUnfreezeRequest req) {
  const Status admitted = WriteGate();
  if (!admitted.ok()) co_return admitted;
  if (shard_.Frozen(req.shard)) {
    shard_.Unfreeze(req.shard);
    const Status mirrored = co_await Mirror({}, {}, obs::TraceContext{});
    if (!mirrored.ok()) co_return mirrored;
  }
  co_return rpc::Void{};
}

// --- replica: watchdog (promotion, rejoin, lease loss) -----------------

sim::Co<void> KvReplica::WatchdogLoop(std::shared_ptr<KvReplica> self) {
  sim::Scheduler& sched = self->context_->scheduler();
  for (;;) {
    co_await sim::SleepFor(sched, self->syncing_
                                      ? self->params_.rejoin_interval
                                      : self->params_.watch_interval);
    if (self->context_->crashed()) continue;
    if (self->syncing_) {
      co_await self->TryRejoin();
      continue;
    }
    if (self->role_ == ReplicaRole::kPrimary) {
      if (self->lease_ && self->lease_->lost() &&
          !self->params_.testing_disable_fencing) {
        // Renewal failed repeatedly: the record may have expired and a
        // backup may already own the name. Our data is complete up to
        // our last ack, so serve on as a backup; epoch fencing corrects
        // us if a successor exists.
        self->StepDown(/*resync=*/false);
        continue;
      }
      // Probe configured replicas that fell out of the active set: an
      // evicted replica that never saw its eviction (it was partitioned
      // at the time) learns from the empty announce that it must resync.
      const std::vector<core::ServiceBinding> probe_view =
          self->all_replicas_;
      for (const auto& peer : probe_view) {
        if (Contains(self->active_, peer)) continue;
        const ReplicateBatchRequest probe = self->ViewBatch();
        std::vector<core::ServiceBinding> to{peer};
        (void)co_await self->Replicate(std::move(to), probe,
                                       obs::TraceContext{});
        if (self->role_ != ReplicaRole::kPrimary) break;  // deposed mid-probe
      }
      continue;
    }
    co_await self->TryPromote();
  }
}

sim::Co<bool> KvReplica::ClaimName() {
  Result<naming::NameRecord> rec =
      co_await context_->names().Lookup(params_.name);
  if (rec.ok() || rec.status().code() != StatusCode::kNotFound) {
    co_return false;  // a primary holds the name, or the lookup flaked
  }
  naming::NameRecord claim;
  claim.kind = naming::RecordKind::kService;
  claim.binding = self_;
  claim.lease_ns = params_.lease.ttl_ns;
  Result<rpc::Void> won = co_await context_->names().Register(
      params_.name, claim, /*overwrite=*/false);
  // A claim that lost the race or the name service loses; one won by a
  // replica that crashed meanwhile expires unrenewed.
  co_return won.ok() && !context_->crashed();
}

sim::Co<KvReplica::PeerPoll> KvReplica::PollPeers(bool rescue) {
  PeerPoll poll;
  const std::vector<core::ServiceBinding> peers = all_replicas_;
  for (const auto& peer : peers) {
    if (SameObject(peer, self_)) continue;
    const Result<StatusResponse> st = co_await rpc::TypedCall(
        context_->client(), peer.server, peer.object, kvwire::kGetStatus,
        rpc::Void{}, params_.mirror);
    if (!st.ok()) {
      ++poll.unreachable;
    } else if (st->epoch > epoch_) {
      poll.ahead = true;
    } else if (!st->syncing) {
      poll.serving = true;
    }
    // A peer ahead settles both callers; a rescue also gives up at the
    // first peer that is unreachable or serving.
    if (poll.ahead || (rescue && (poll.unreachable > 0 || poll.serving))) {
      break;
    }
  }
  co_return poll;
}

void KvReplica::TakeOver(std::vector<core::ServiceBinding> view,
                         const char* how) {
  promotions_++;
  role_ = ReplicaRole::kPrimary;
  epoch_++;
  active_ = std::move(view);
  PROXY_LOG(kInfo, context_->scheduler().now(), "rkv",
            "replica " << self_.object.ToString() << " " << how
                       << " at epoch " << epoch_);
  SpanEvent(how + (" at epoch " + std::to_string(epoch_)));
}

sim::Co<void> KvReplica::TryPromote() {
  Result<naming::NameRecord> rec =
      co_await context_->names().Lookup(params_.name);
  if (rec.ok() || rec.status().code() != StatusCode::kNotFound) {
    // A primary is registered (possibly our own stale record, which will
    // expire unrenewed), or the name service is unreachable. Wait.
    co_return;
  }
  // The lease lapsed. Before claiming, poll the other replicas. The poll
  // enforces election safety under the crash-stop model (at most one
  // node down at a time):
  //   - a reachable peer under a newer epoch means we were evicted while
  //     cut off — promoting would resurrect stale data, so resync;
  //   - more than one unreachable peer means we cannot tell a partition
  //     from the one allowed crash — someone we cannot see may hold
  //     newer acknowledged writes, so wait;
  //   - with exactly one peer unreachable (presumed crashed) we still
  //     need one reachable *serving* peer as a witness that our data is
  //     current; a syncing peer knows nothing.
  const PeerPoll poll = co_await PollPeers(/*rescue=*/false);
  if (poll.ahead) {
    syncing_ = true;
    co_return;
  }
  if (poll.unreachable > 1) co_return;
  if (poll.unreachable == 1 && !poll.serving) co_return;
  // Stagger by backup rank so the lowest-ranked live backup claims first.
  std::size_t rank = active_.size();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (SameObject(active_[i], self_)) {
      rank = i;
      break;
    }
  }
  if (rank > 1) {
    co_await sim::SleepFor(context_->scheduler(),
                           static_cast<SimDuration>(rank - 1) *
                               params_.promote_stagger);
  }
  if (context_->crashed() || syncing_ || role_ != ReplicaRole::kBackup) {
    co_return;
  }
  const bool won = co_await ClaimName();
  // A batch that evicted us may have landed while the claim was parked,
  // so our data may be behind: leave the claimed record to expire
  // unrenewed, as a crashed claimant's does, and resync.
  if (!won || syncing_) co_return;

  // Promoted. Announce the new epoch to the previous view; peers that do
  // not answer (typically the dead old primary) are evicted.
  std::vector<core::ServiceBinding> view{self_};
  for (const auto& r : active_) {
    if (!SameObject(r, self_)) view.push_back(r);
  }
  TakeOver(std::move(view), "promoted to primary");
  ReplicateBatchRequest announce = ViewBatch();
  Fanout sent = co_await Replicate(active_, announce, obs::TraceContext{});
  if (sent.fenced) {
    // Someone is ahead of us after all: undo the claim and resync.
    StepDown(/*resync=*/true);
    co_return;
  }
  if (sent.lost > 0) {
    Evict(std::move(sent.acked), "old primary evicted on promote");
    announce.epoch = epoch_;
    announce.replicas = active_;
    (void)co_await Replicate(active_, announce, obs::TraceContext{});
  }
  // Keep the name from now on.
  lease_ = std::make_unique<core::LeaseMaintainer>(*context_, params_.name,
                                                   self_, params_.lease);
}

sim::Co<void> KvReplica::TryRejoin() {
  Result<naming::NameRecord> rec =
      co_await context_->names().Lookup(params_.name);
  if (!rec.ok()) {
    if (rec.status().code() == StatusCode::kNotFound &&
        ++rejoin_misses_ >= kRescueAfterMisses) {
      // No primary to join, repeatedly: the whole group may be deposed
      // (every replica syncing). See whether we are the one to revive it.
      co_await TryRescue();
    }
    co_return;
  }
  rejoin_misses_ = 0;
  if (rec->kind != naming::RecordKind::kService) co_return;
  if (SameObject(rec->binding, self_)) co_return;  // our own stale record

  JoinRequest req;
  req.joiner = self_;
  Result<JoinResponse> resp = co_await rpc::TypedCall(
      context_->client(), rec->binding.server, rec->binding.object,
      kvwire::kJoin, req, params_.mirror);
  if (!resp.ok()) co_return;
  if (context_->crashed()) co_return;  // crashed mid-join

  const Status installed = store_->RestoreState(View(resp->snapshot));
  if (!installed.ok()) co_return;
  epoch_ = resp->epoch;
  active_ = resp->replicas;
  shard_ = resp->shard;
  role_ = ReplicaRole::kBackup;
  syncing_ = false;
  PROXY_LOG(kInfo, context_->scheduler().now(), "rkv",
            "replica " << self_.object.ToString()
                       << " rejoined at epoch " << epoch_);
  SpanEvent("rejoined at epoch " + std::to_string(epoch_));
}

sim::Co<void> KvReplica::TryRescue() {
  // A crash-wiped replica (epoch 0, empty store) has nothing to offer;
  // it waits for a peer with data to claim. At least one such peer
  // exists in any all-syncing state: the last acknowledged write lives
  // on >= 2 replicas, and a replica only reaches syncing-with-data via
  // fencing/eviction, which preserves its store.
  if (epoch_ == 0) co_return;
  // Every configured peer must be reachable (otherwise wait for the
  // partition to heal: the missing peer may be strictly ahead), must
  // itself be syncing (a serving backup will promote through the normal
  // path), and must not be ahead of us (defer to the most current copy).
  const PeerPoll poll = co_await PollPeers(/*rescue=*/true);
  if (poll.unreachable > 0 || poll.ahead || poll.serving) co_return;
  // State may have moved while the polls were parked (a join completed,
  // a crash hit, a peer claimed first).
  if (context_->crashed() || !syncing_ || epoch_ == 0) co_return;
  const bool won = co_await ClaimName();
  if (!won) co_return;  // lost the race: rejoin the winner instead

  // Start alone; the peers (all syncing) rejoin through the name we just
  // registered, and writes stay unavailable until one does (the mirror
  // never acknowledges a write this replica alone holds).
  rescues_++;
  syncing_ = false;
  rejoin_misses_ = 0;
  TakeOver({self_}, "rescued deposed group");
  lease_ = std::make_unique<core::LeaseMaintainer>(*context_, params_.name,
                                                   self_, params_.lease);
}

// --- skeleton ----------------------------------------------------------

std::shared_ptr<rpc::Dispatch> MakeReplicatedKvDispatch(
    std::shared_ptr<KvReplica> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, kvwire::kSize,
                     [impl](rpc::Void) { return impl->KeyCount(); });
  rpc::RegisterTyped(*dispatch, kvwire::kList, [impl](ListRequest req) {
    return impl->Keys(req.prefix);
  });
  rpc::RegisterTyped(*dispatch, kvwire::kGetReplicas,
                     [impl](rpc::Void) { return impl->HandleGetReplicas(); });
  rpc::RegisterTyped(*dispatch, kvwire::kReplicateBatch,
                     [impl](ReplicateBatchRequest req) {
                       return impl->HandleReplicateBatch(std::move(req));
                     });
  rpc::RegisterTyped(*dispatch, kvwire::kJoin, [impl](JoinRequest req) {
    return impl->HandleJoin(std::move(req));
  });
  rpc::RegisterTyped(*dispatch, kvwire::kGetStatus,
                     [impl](rpc::Void) { return impl->HandleGetStatus(); });
  rpc::RegisterTyped(
      *dispatch, kvwire::kEpochPut,
      [impl](PutRequest req, const obs::TraceContext& trace)
          -> sim::Co<Result<EpochPutResponse>> {
        const std::string key = req.key;  // stamps the reply after the move
        std::uint64_t ack_epoch = 0;
        Result<rpc::Void> applied = co_await impl->Put(
            std::move(req.key), std::move(req.value), trace, &ack_epoch);
        if (!applied.ok()) co_return applied.status();
        co_return EpochPutResponse{ack_epoch, impl->ShardEpochOf(key)};
      });
  rpc::RegisterTyped(
      *dispatch, kvwire::kEpochDel,
      [impl](DelRequest req, const obs::TraceContext& trace)
          -> sim::Co<Result<EpochDelResponse>> {
        const std::string key = req.key;
        std::uint64_t ack_epoch = 0;
        Result<bool> existed =
            co_await impl->Del(std::move(req.key), trace, &ack_epoch);
        if (!existed.ok()) co_return existed.status();
        co_return EpochDelResponse{*existed, ack_epoch,
                                   impl->ShardEpochOf(key)};
      });
  rpc::RegisterTyped(
      *dispatch, kvwire::kEpochGet,
      [impl](GetRequest req) -> Result<EpochGetResponse> {
        Result<std::optional<std::string>> value = impl->Lookup(req.key);
        if (!value.ok()) return value.status();
        return EpochGetResponse{std::move(*value), impl->epoch(),
                                impl->ShardEpochOf(req.key)};
      });
  rpc::RegisterTyped(*dispatch, kvwire::kShardFreeze,
                     [impl](ShardFreezeRequest req) {
                       return impl->HandleShardFreeze(req);
                     });
  rpc::RegisterTyped(*dispatch, kvwire::kShardInstall,
                     [impl](ShardInstallRequest req) {
                       return impl->HandleShardInstall(std::move(req));
                     });
  rpc::RegisterTyped(*dispatch, kvwire::kShardRelease,
                     [impl](ShardReleaseRequest req) {
                       return impl->HandleShardRelease(req);
                     });
  rpc::RegisterTyped(*dispatch, kvwire::kShardUnfreeze,
                     [impl](ShardUnfreezeRequest req) {
                       return impl->HandleShardUnfreeze(req);
                     });
  return dispatch;
}

Result<ReplicatedKvExport> ExportReplicatedKv(
    core::Context& primary_ctx, std::vector<core::Context*> backup_ctxs,
    ReplicatedKvParams params) {
  ReplicatedKvExport out;
  std::vector<core::Context*> ctxs{&primary_ctx};
  ctxs.insert(ctxs.end(), backup_ctxs.begin(), backup_ctxs.end());

  std::vector<core::ServiceBinding> bindings;
  for (core::Context* ctx : ctxs) {
    auto impl = std::make_shared<KvReplica>(*ctx, params);
    auto dispatch = MakeReplicatedKvDispatch(impl);
    PROXY_ASSIGN_OR_RETURN(
        auto exported,
        core::ServiceExport<IKeyValue>::Create(*ctx, impl, dispatch,
                                               /*protocol=*/4));
    bindings.push_back(exported.binding());
    out.replicas.push_back(std::move(impl));
  }
  for (std::size_t i = 0; i < out.replicas.size(); ++i) {
    out.replicas[i]->Configure(
        bindings[i], bindings,
        i == 0 ? ReplicaRole::kPrimary : ReplicaRole::kBackup);
  }
  if (!params.name.empty()) {
    for (auto& replica : out.replicas) replica->StartFailover();
  }
  out.primary = out.replicas[0];
  out.binding = bindings[0];
  out.backup_bindings.assign(bindings.begin() + 1, bindings.end());
  out.backup_impls.assign(out.replicas.begin() + 1, out.replicas.end());
  return out;
}

// --- failover proxy ----------------------------------------------------

sim::Co<Status> KvFailoverProxy::LoadReplicaList(
    bool refresh, obs::TraceContext trace, rpc::AttemptBudget* budget) {
  const std::vector<core::ServiceBinding> known = replicas_;
  if (refresh) {
    replicas_.clear();
    list_refreshes_++;
    context().spans().Annotate(trace, context().scheduler().now(),
                               "replica list refresh");
  }
  rpc::CallOptions traced = options_;
  traced.trace = trace;
  traced.attempt_budget = budget;  // share the op's allowance
  // Ask the bound primary first; CallRaw re-resolves the service name if
  // the bound address stopped answering (the new primary re-registers
  // the name when it promotes).
  const rpc::Void none;  // named: see stub.h "GCC note"
  Result<ReplicaListResponse> resp =
      co_await Call(kvwire::kGetReplicas, none, traced);
  // The primary is dark and the name not (yet) re-registered: any
  // replica we already knew about can serve its view of the list.
  for (std::size_t i = 0; !resp.ok() && i < known.size(); ++i) {
    Result<ReplicaListResponse> alt =
        co_await rpc::TypedCall(context().client(), known[i].server,
                                known[i].object, kvwire::kGetReplicas, none,
                                traced);
    if (alt.ok()) resp = std::move(alt);
  }
  if (!resp.ok()) co_return resp.status();
  if (resp->replicas.empty()) {
    co_return FailedPreconditionError("empty replica list");
  }
  replicas_ = std::move(resp->replicas);
  preferred_ = 0;
  co_return Status::Ok();
}

template <typename Req, typename Resp, rpc::RequestOf<Req> A>
sim::Co<Result<Resp>> KvFailoverProxy::ReadCall(
    rpc::Method<Req, Resp> method, A req) {
  obs::SpanRecorder& spans = context().spans();
  const obs::TraceContext span =
      spans.Begin(options_.trace, "rkv.read m" + std::to_string(method.id),
                  context().scheduler().now());
  rpc::CallOptions opts = options_;
  if (span.active()) opts.trace = span;
  rpc::AttemptBudget budget = MintOpBudget();
  opts.attempt_budget = &budget;  // one allowance across all passes

  Result<Resp> outcome = UnavailableError("no replicas");
  bool done = false;
  if (replicas_.empty()) {
    const Status ready =
        co_await LoadReplicaList(false, span, opts.attempt_budget);
    if (!ready.ok()) {
      outcome = ready;
      done = true;
    }
  }
  Bytes args;
  if (!done) args = serde::EncodeToBytes(req);
  Status last = UnavailableError("no replicas");
  for (int pass = 0; pass < 2 && !done; ++pass) {
    for (std::size_t i = 0; i < replicas_.size() && !done; ++i) {
      const std::size_t idx = (preferred_ + i) % replicas_.size();
      const core::ServiceBinding& replica = replicas_[idx];
      Result<Resp> r = co_await rpc::TypedReply<Resp>(context().client().Call(
          replica.server, replica.object, method.id, args, opts));
      if (r.ok()) {
        if (idx != preferred_) {
          failovers_++;
          spans.Annotate(span, context().scheduler().now(),
                         "failover -> replica " + std::to_string(idx));
          preferred_ = idx;  // stick with the replica that answered
        }
        outcome = std::move(r);
        done = true;
        break;
      }
      // Only liveness failures trigger failover; semantic errors are
      // final.
      last = r.status();
      if (last.code() != StatusCode::kTimeout &&
          last.code() != StatusCode::kUnavailable) {
        outcome = last;
        done = true;
        break;
      }
    }
    if (!done && pass == 0) {
      // Every cached replica failed: the whole set may have moved on
      // (failover reshuffled it, or our list is from a dead epoch).
      // Re-fetch once and give the fresh set one more chance.
      const Status refreshed =
          co_await LoadReplicaList(true, span, opts.attempt_budget);
      if (!refreshed.ok()) {
        outcome = last;
        done = true;
      }
    } else if (!done && pass == 1) {
      outcome = last;
    }
  }
  spans.End(span, context().scheduler().now(), outcome.status());
  co_return outcome;
}

template <typename Req, typename Resp, rpc::RequestOf<Req> A>
sim::Co<Result<Resp>> KvFailoverProxy::WriteCall(
    rpc::Method<Req, Resp> method, A req) {
  obs::SpanRecorder& spans = context().spans();
  const obs::TraceContext span =
      spans.Begin(options_.trace, "rkv.write m" + std::to_string(method.id),
                  context().scheduler().now());
  rpc::CallOptions opts = options_;
  if (span.active()) opts.trace = span;
  rpc::AttemptBudget budget = MintOpBudget();
  opts.attempt_budget = &budget;  // one allowance across all passes

  const Bytes args = serde::EncodeToBytes(req);
  // If every pass fails, report the FIRST actual write attempt's status:
  // once that attempt times out, the client's circuit breaker to the dead
  // primary opens and later passes fast-fail with UNAVAILABLE ("circuit
  // open"), which would mask the honest diagnosis (e.g. TIMEOUT on a
  // partitioned primary).
  Status verdict = UnavailableError("no replicas");
  bool attempted = false;
  Result<Resp> outcome = UnavailableError("no replicas");
  bool done = false;
  for (int pass = 0; pass < kWritePasses && !done; ++pass) {
    if (pass > 0 || replicas_.empty()) {
      const Status ready =
          co_await LoadReplicaList(pass > 0, span, opts.attempt_budget);
      if (!ready.ok()) {
        if (!attempted) verdict = ready;
        continue;
      }
    }
    const core::ServiceBinding primary = replicas_[0];
    Result<Resp> r = co_await rpc::TypedReply<Resp>(context().client().Call(
        primary.server, primary.object, method.id, args, opts));
    if (r.ok()) {
      last_write_acker_ = primary.object;
      outcome = std::move(r);
      done = true;
      break;
    }
    const Status failed = r.status();
    const StatusCode code = failed.code();
    // FENCED means our primary is deposed; UNAVAILABLE/TIMEOUT may mean
    // the same (a backup refusing writes, a dead node). All three:
    // refresh the list and follow the new primary.
    if (code != StatusCode::kTimeout && code != StatusCode::kUnavailable &&
        code != StatusCode::kFenced) {
      outcome = failed;
      done = true;
      break;
    }
    if (code == StatusCode::kFenced) {
      spans.Annotate(span, context().scheduler().now(),
                     "primary fenced; following the new epoch");
    }
    if (!attempted) {
      verdict = failed;
      attempted = true;
    }
  }
  if (!done) outcome = verdict;
  spans.End(span, context().scheduler().now(), outcome.status());
  co_return outcome;
}

sim::Co<Result<std::optional<std::string>>> KvFailoverProxy::Get(
    std::string key) {
  GetRequest req{std::move(key)};  // named: see stub.h "GCC note"
  Result<EpochGetResponse> resp =
      co_await ReadCall(kvwire::kEpochGet, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return std::move(resp->value);
}

sim::Co<Result<std::vector<std::string>>> KvFailoverProxy::List(
    std::string prefix) {
  return ReadCall(kvwire::kList, ListRequest{std::move(prefix)});
}

sim::Co<Result<std::uint64_t>> KvFailoverProxy::Size() {
  return ReadCall(kvwire::kSize, rpc::Void{});
}

sim::Co<Result<rpc::Void>> KvFailoverProxy::Put(std::string key,
                                                std::string value) {
  PutRequest req{std::move(key), std::move(value), ObjectId{}};
  Result<EpochPutResponse> resp =
      co_await WriteCall(kvwire::kEpochPut, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return rpc::Void{};
}

sim::Co<Result<bool>> KvFailoverProxy::Del(std::string key) {
  DelRequest req{std::move(key), ObjectId{}};
  Result<EpochDelResponse> resp =
      co_await WriteCall(kvwire::kEpochDel, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return resp->existed;
}

}  // namespace proxy::services
