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
using kvwire::ListResponse;
using kvwire::PutRequest;
using kvwire::ReplicaListResponse;
using kvwire::ReplicateBatchRequest;
using kvwire::ShardFreezeRequest;
using kvwire::ShardFreezeResponse;
using kvwire::ShardInstallRequest;
using kvwire::ShardInstallResponse;
using kvwire::ShardReleaseRequest;
using kvwire::ShardUnfreezeRequest;
using kvwire::SizeResponse;
using kvwire::StatusResponse;

namespace {

bool SameObject(const core::ServiceBinding& a, const core::ServiceBinding& b) {
  return a.object == b.object;
}

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
    self->store_ = std::make_shared<KvService>(*self->context_);
    self->role_ = ReplicaRole::kBackup;
    self->syncing_ = true;
    self->joining_ = false;
    self->rejoin_misses_ = 0;
    self->inflight_writes_ = 0;
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
  (void)sim::Spawn(context_->scheduler(), WatchdogLoop(self));
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
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() + " step-down" +
                              (resync ? " (resync)" : ""));
}

bool KvReplica::InReplicaList(
    const std::vector<core::ServiceBinding>& list) const {
  return std::any_of(list.begin(), list.end(), [this](const auto& r) {
    return SameObject(r, self_);
  });
}

bool KvReplica::InActiveSet(const core::ServiceBinding& peer) const {
  return std::any_of(active_.begin(), active_.end(), [&](const auto& r) {
    return SameObject(r, peer);
  });
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

sim::Co<Result<std::optional<std::string>>> KvReplica::Get(std::string key) {
  if (syncing_) co_return UnavailableError("replica syncing");
  const Status owned = CheckShard(key);
  if (!owned.ok()) co_return owned;
  co_return co_await store_->Get(std::move(key));
}

sim::Co<Result<std::uint64_t>> KvReplica::Size() {
  if (syncing_) co_return UnavailableError("replica syncing");
  co_return co_await store_->Size();
}

sim::Co<Result<std::vector<std::string>>> KvReplica::List(std::string prefix) {
  if (syncing_) co_return UnavailableError("replica syncing");
  co_return co_await store_->List(std::move(prefix));
}

sim::Co<Status> KvReplica::SendBatch(const core::ServiceBinding& peer,
                                     const ReplicateBatchRequest& req,
                                     obs::TraceContext trace) {
  rpc::CallOptions mirror = params_.mirror;
  mirror.trace = trace;
  rpc::RpcResult r = co_await context_->client().Call(
      peer.server, peer.object, kvwire::kReplicateBatch,
      serde::EncodeToBytes(req), mirror);
  co_return r.status;
}

sim::Co<Status> KvReplica::Mirror(
    std::vector<std::pair<std::string, std::string>> entries,
    std::vector<std::string> deletes, obs::TraceContext trace,
    std::uint64_t* ack_epoch) {
  // The caller's role check ran before its first suspension; a
  // successor's announce may have deposed us while the frame was
  // parked in the local apply. A deposed replica must not push batches
  // under the successor's adopted epoch — the write stays applied
  // locally but unacknowledged (the ambiguity clients already absorb).
  if (role_ != ReplicaRole::kPrimary || syncing_) {
    co_return UnavailableError("deposed before mirroring");
  }
  const bool named = !params_.name.empty();
  ReplicateBatchRequest req;
  req.epoch = epoch_;
  req.replicas = active_;
  req.entries = std::move(entries);
  req.deletes = std::move(deletes);
  req.shard = shard_;

  // Write-all over the active set: every active peer must acknowledge
  // before the client does (so any active replica can later promote
  // without losing an acknowledged write).
  //
  // Iterate a snapshot: SendBatch suspends, and a concurrent write (or a
  // fencing response) can reassign active_ while this frame is parked —
  // a range-for over the member would read freed vector storage.
  std::vector<core::ServiceBinding> survivors{self_};
  bool lost_any = false;
  const std::vector<core::ServiceBinding> mirror_view = active_;
  for (const auto& peer : mirror_view) {
    if (SameObject(peer, self_)) continue;
    const Status st = co_await SendBatch(peer, req, trace);
    if (st.ok()) {
      survivors.push_back(peer);
      continue;
    }
    if (st.code() == StatusCode::kFenced) {
      if (req.epoch < epoch_ || role_ != ReplicaRole::kPrimary) {
        // This frame was superseded while it was parked (a concurrent
        // mirror bumped the epoch, or another frame already stepped us
        // down). The peer fenced the *stale frame*, not our current
        // claim — fail the write without abdicating.
        co_return UnavailableError("superseded mirror frame fenced at epoch " +
                                   std::to_string(req.epoch));
      }
      // A peer under a newer epoch refused us: we have been deposed.
      StepDown(/*resync=*/true);
      co_return FencedError("deposed: peer reports a newer epoch than " +
                            std::to_string(epoch_));
    }
    replication_failures_++;
    if (!named) {
      // Static mode keeps the strict PR-2 semantics: any unreachable
      // backup fails the write outright.
      co_return UnavailableError("backup unreachable: " + st.ToString());
    }
    lost_any = true;
  }

  if (lost_any) {
    if (role_ != ReplicaRole::kPrimary) {
      // Deposed while parked in the mirror fan-out: only a standing
      // primary may evict peers and mint a new epoch.
      co_return UnavailableError("deposed during mirror fan-out");
    }
    if (survivors.size() < 2) {
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
    epoch_++;
    context_->spans().Event(context_->scheduler().now(),
                            "rkv " + self_.object.ToString() +
                                " epoch bump -> " + std::to_string(epoch_) +
                                " (evicting unreachable backups)");
    active_ = std::move(survivors);
    req.epoch = epoch_;
    req.replicas = active_;
    std::vector<core::ServiceBinding> confirmed{self_};
    const std::vector<core::ServiceBinding> reannounce_view = active_;
    for (const auto& peer : reannounce_view) {
      if (SameObject(peer, self_)) continue;
      const Status st = co_await SendBatch(peer, req, trace);
      if (st.ok()) {
        confirmed.push_back(peer);
      } else if (st.code() == StatusCode::kFenced) {
        if (req.epoch < epoch_ || role_ != ReplicaRole::kPrimary) {
          co_return UnavailableError(
              "superseded re-announce frame fenced at epoch " +
              std::to_string(req.epoch));
        }
        StepDown(/*resync=*/true);
        co_return FencedError("deposed during eviction re-announce");
      } else {
        // Died between the two passes: evict it too. The remaining
        // peers learn the final view with the next mirrored batch.
        replication_failures_++;
      }
    }
    if (confirmed.size() < 2) {
      co_return UnavailableError("no reachable backup to mirror to");
    }
    if (role_ != ReplicaRole::kPrimary) {
      co_return UnavailableError("deposed during eviction re-announce");
    }
    if (confirmed.size() != reannounce_view.size()) {
      epoch_++;
      context_->spans().Event(context_->scheduler().now(),
                              "rkv " + self_.object.ToString() +
                                  " epoch bump -> " + std::to_string(epoch_) +
                                  " (peer died during re-announce)");
      active_ = std::move(confirmed);
    }
  }
  // The epoch the surviving peers actually confirmed the batch under
  // (req.epoch, not epoch_: a later bump by this frame's eviction tail
  // or by a concurrent frame is not the epoch this write was served at).
  if (ack_epoch != nullptr) *ack_epoch = req.epoch;
  co_return Status::Ok();
}

sim::Co<Result<rpc::Void>> KvReplica::Put(std::string key, std::string value) {
  co_return co_await Put(std::move(key), std::move(value), obs::TraceContext{});
}

sim::Co<Result<rpc::Void>> KvReplica::Put(std::string key, std::string value,
                                          obs::TraceContext trace,
                                          std::uint64_t* ack_epoch) {
  if (syncing_) co_return UnavailableError("replica syncing");
  if (role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
  const Status owned = CheckShard(key);
  if (!owned.ok()) co_return owned;
  inflight_writes_++;
  Result<rpc::Void> applied = co_await store_->Put(key, value);
  if (!applied.ok()) {
    inflight_writes_--;
    co_return applied.status();
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.emplace_back(std::move(key), std::move(value));
  const Status mirrored =
      co_await Mirror(std::move(entries), {}, trace, ack_epoch);
  inflight_writes_--;
  if (!mirrored.ok()) co_return mirrored;
  co_return rpc::Void{};
}

sim::Co<Result<bool>> KvReplica::Del(std::string key) {
  co_return co_await Del(std::move(key), obs::TraceContext{});
}

sim::Co<Result<bool>> KvReplica::Del(std::string key, obs::TraceContext trace,
                                     std::uint64_t* ack_epoch) {
  if (syncing_) co_return UnavailableError("replica syncing");
  if (role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
  const Status owned = CheckShard(key);
  if (!owned.ok()) co_return owned;
  inflight_writes_++;
  Result<bool> existed = co_await store_->Del(key);
  if (!existed.ok()) {
    inflight_writes_--;
    co_return existed.status();
  }
  std::vector<std::string> deletes;
  deletes.push_back(std::move(key));
  const Status mirrored =
      co_await Mirror({}, std::move(deletes), trace, ack_epoch);
  inflight_writes_--;
  if (!mirrored.ok()) co_return mirrored;
  co_return *existed;
}

// --- replica: wire handlers --------------------------------------------

sim::Co<Result<ReplicaListResponse>> KvReplica::HandleGetReplicas() {
  if (syncing_) co_return UnavailableError("replica syncing");
  ReplicaListResponse resp;
  resp.epoch = epoch_;
  resp.replicas = active_;
  co_return resp;
}

sim::Co<Result<StatusResponse>> KvReplica::HandleGetStatus() {
  StatusResponse resp;
  resp.epoch = epoch_;
  resp.is_primary = role_ == ReplicaRole::kPrimary && !syncing_;
  resp.syncing = syncing_;
  co_return resp;
}

sim::Co<Result<rpc::Void>> KvReplica::HandleReplicateBatch(
    ReplicateBatchRequest req) {
  if (syncing_) {
    // Mid-resync our store is a mix of old and new state; acknowledging
    // a batch we may later overwrite with the snapshot would fake
    // durability. Refuse until the join completes.
    co_return UnavailableError("replica syncing");
  }
  const bool fencing = !params_.testing_disable_fencing;
  if (fencing && req.epoch < epoch_) {
    fenced_rejections_++;
    context_->spans().Event(context_->scheduler().now(),
                            "rkv " + self_.object.ToString() +
                                " fenced stale batch: epoch " +
                                std::to_string(req.epoch) + " < " +
                                std::to_string(epoch_));
    co_return FencedError("stale epoch " + std::to_string(req.epoch) +
                          " < " + std::to_string(epoch_));
  }
  if (req.epoch >= epoch_) {
    if (!InReplicaList(req.replicas)) {
      if (fencing && role_ == ReplicaRole::kPrimary) {
        // An evicted ex-primary must fully step down: keeping the lease
        // maintainer alive would let its overwrite-renewals steal the
        // name back from the successor after a partition heals.
        StepDown(/*resync=*/true);
        co_return UnavailableError("evicted from the active set");
      }
      if (fencing || role_ != ReplicaRole::kPrimary) {
        // A newer view evicted us (our ack was lost, or we were cut
        // off): our data may be behind, so resync before serving again.
        syncing_ = true;
        co_return UnavailableError("evicted from the active set");
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
  if (!req.entries.empty()) {
    Result<rpc::Void> applied = co_await store_->BatchPut(req.entries);
    if (!applied.ok()) co_return applied.status();
  }
  for (const auto& key : req.deletes) {
    Result<bool> deleted = co_await store_->Del(key);
    if (!deleted.ok()) co_return deleted.status();
  }
  co_return rpc::Void{};
}

sim::Co<Result<JoinResponse>> KvReplica::HandleJoin(JoinRequest req) {
  if (role_ != ReplicaRole::kPrimary || syncing_) {
    co_return UnavailableError("not the primary");
  }
  // Pause writes while the snapshot is cut so the joiner cannot miss a
  // concurrently mirrored batch (writes racing the join fail unacked).
  joining_ = true;
  for (int i = 0; i < 64 && inflight_writes_ > 0; ++i) {
    co_await sim::SleepFor(context_->scheduler(), Milliseconds(1));
  }
  if (inflight_writes_ > 0) {
    joining_ = false;
    co_return UnavailableError("write drain timed out");
  }
  if (!std::any_of(active_.begin(), active_.end(), [&](const auto& r) {
        return SameObject(r, req.joiner);
      })) {
    // Re-admit in static-configuration order, primary first, so every
    // replica agrees on backup ranks (the promotion stagger).
    std::vector<core::ServiceBinding> next{self_};
    for (const auto& r : all_replicas_) {
      if (SameObject(r, self_)) continue;
      const bool was_active =
          std::any_of(active_.begin(), active_.end(), [&](const auto& a) {
            return SameObject(a, r);
          });
      if (was_active || SameObject(r, req.joiner)) next.push_back(r);
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
// (shard_router.h). Each one mirrors the resulting ShardConfig to every
// active backup before acknowledging, so the step survives promotion;
// each one is idempotent, so a rebalancer that lost an ack re-runs it.

sim::Co<Result<ShardFreezeResponse>> KvReplica::HandleShardFreeze(
    ShardFreezeRequest req) {
  if (syncing_ || role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
  if (!shard_.sharded() || req.shard >= shard_.num_shards) {
    co_return FailedPreconditionError("group not sharded or shard " +
                                      std::to_string(req.shard) +
                                      " out of range");
  }
  if (!shard_.Owns(req.shard)) {
    co_return WrongShardError("freeze: shard " + std::to_string(req.shard) +
                              " not owned by this group");
  }
  // Freeze first: from this instant new writes to the shard refuse with
  // WRONG_SHARD, so the snapshot cut below cannot miss an acked write.
  shard_.Freeze(req.shard);
  // Drain in-flight writes (they passed CheckShard before the freeze and
  // may still be mirroring) under the same write pause a join uses.
  joining_ = true;
  for (int i = 0; i < 64 && inflight_writes_ > 0; ++i) {
    co_await sim::SleepFor(context_->scheduler(), Milliseconds(1));
  }
  joining_ = false;
  if (inflight_writes_ > 0) {
    shard_.Unfreeze(req.shard);
    co_return UnavailableError("write drain timed out");
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
  Result<std::vector<std::string>> keys = co_await store_->List("");
  if (!keys.ok()) co_return keys.status();
  const std::vector<std::string> snapshot_keys = std::move(*keys);
  for (const auto& key : snapshot_keys) {
    if (ShardOf(key, shard_.num_shards) != req.shard) continue;
    Result<std::optional<std::string>> value = co_await store_->Get(key);
    if (!value.ok()) co_return value.status();
    if (value->has_value()) resp.entries.emplace_back(key, **value);
  }
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() + " froze shard " +
                              std::to_string(req.shard) + " (" +
                              std::to_string(resp.entries.size()) + " keys)");
  co_return resp;
}

sim::Co<Result<ShardInstallResponse>> KvReplica::HandleShardInstall(
    ShardInstallRequest req) {
  if (syncing_ || role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
  if (!shard_.sharded() || req.shard >= shard_.num_shards) {
    co_return FailedPreconditionError("group not sharded or shard " +
                                      std::to_string(req.shard) +
                                      " out of range");
  }
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
  Result<std::vector<std::string>> held = co_await store_->List("");
  if (!held.ok()) co_return held.status();
  const std::vector<std::string> held_keys = std::move(*held);
  for (const auto& key : held_keys) {
    if (ShardOf(key, shard_.num_shards) != req.shard) continue;
    const bool in_snapshot =
        std::any_of(req.entries.begin(), req.entries.end(),
                    [&](const auto& e) { return e.first == key; });
    if (!in_snapshot) stale.push_back(key);
  }
  inflight_writes_++;
  for (const auto& key : stale) {
    Result<bool> deleted = co_await store_->Del(key);
    if (!deleted.ok()) {
      inflight_writes_--;
      co_return deleted.status();
    }
  }
  if (!req.entries.empty()) {
    Result<rpc::Void> applied = co_await store_->BatchPut(req.entries);
    if (!applied.ok()) {
      inflight_writes_--;
      co_return applied.status();
    }
  }
  const Status mirrored =
      co_await Mirror(req.entries, std::move(stale), obs::TraceContext{});
  inflight_writes_--;
  if (!mirrored.ok()) co_return mirrored;
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() +
                              " installed shard " + std::to_string(req.shard) +
                              " @ epoch " + std::to_string(req.shard_epoch) +
                              " (" + std::to_string(req.entries.size()) +
                              " keys)");
  co_return ShardInstallResponse{shard_.EpochOf(req.shard)};
}

sim::Co<Result<rpc::Void>> KvReplica::HandleShardRelease(
    ShardReleaseRequest req) {
  if (syncing_ || role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
  if (!shard_.sharded() || req.shard >= shard_.num_shards) {
    co_return FailedPreconditionError("group not sharded or shard " +
                                      std::to_string(req.shard) +
                                      " out of range");
  }
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
  std::vector<std::string> deletes;
  Result<std::vector<std::string>> keys = co_await store_->List("");
  if (!keys.ok()) co_return keys.status();
  const std::vector<std::string> held_keys = std::move(*keys);
  for (const auto& key : held_keys) {
    if (ShardOf(key, shard_.num_shards) == req.shard) deletes.push_back(key);
  }
  inflight_writes_++;
  for (const auto& key : deletes) {
    Result<bool> deleted = co_await store_->Del(key);
    if (!deleted.ok()) {
      inflight_writes_--;
      co_return deleted.status();
    }
  }
  const Status mirrored =
      co_await Mirror({}, std::move(deletes), obs::TraceContext{});
  inflight_writes_--;
  if (!mirrored.ok()) co_return mirrored;
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() +
                              " released shard " + std::to_string(req.shard) +
                              " (committed epoch " +
                              std::to_string(req.committed_epoch) + ")");
  co_return rpc::Void{};
}

sim::Co<Result<rpc::Void>> KvReplica::HandleShardUnfreeze(
    ShardUnfreezeRequest req) {
  if (syncing_ || role_ != ReplicaRole::kPrimary) {
    co_return UnavailableError("not the primary");
  }
  if (joining_) co_return UnavailableError("snapshot join in progress");
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
  while (!self->stopped_) {
    co_await sim::SleepFor(sched, self->syncing_
                                      ? self->params_.rejoin_interval
                                      : self->params_.watch_interval);
    if (self->stopped_) co_return;
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
        if (self->InActiveSet(peer) || SameObject(peer, self->self_)) {
          continue;
        }
        ReplicateBatchRequest probe;
        probe.epoch = self->epoch_;
        probe.replicas = self->active_;
        probe.shard = self->shard_;
        (void)co_await self->SendBatch(peer, probe, obs::TraceContext{});
        if (self->role_ != ReplicaRole::kPrimary) break;  // deposed mid-probe
      }
      continue;
    }
    co_await self->TryPromote();
  }
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
  std::size_t unreachable = 0;
  bool serving_witness = false;
  const std::vector<core::ServiceBinding> poll_view = all_replicas_;
  for (const auto& peer : poll_view) {
    if (SameObject(peer, self_)) continue;
    rpc::RpcResult r = co_await context_->client().Call(
        peer.server, peer.object, kvwire::kGetStatus,
        serde::EncodeToBytes(rpc::Void{}), params_.mirror);
    if (!r.ok()) {
      ++unreachable;
      continue;
    }
    Result<StatusResponse> st =
        serde::DecodeFromBytes<StatusResponse>(View(r.payload));
    if (!st.ok()) {
      ++unreachable;
      continue;
    }
    if (st->epoch > epoch_) {
      syncing_ = true;
      co_return;
    }
    if (!st->syncing) serving_witness = true;
  }
  if (unreachable > 1) co_return;
  if (unreachable == 1 && !serving_witness) co_return;
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
  if (stopped_ || context_->crashed() || syncing_ ||
      role_ != ReplicaRole::kBackup) {
    co_return;
  }
  rec = co_await context_->names().Lookup(params_.name);
  if (rec.ok() || rec.status().code() != StatusCode::kNotFound) co_return;

  // Claim the name: first-register-wins arbitration at the name server.
  naming::NameRecord claim;
  claim.kind = naming::RecordKind::kService;
  claim.binding = self_;
  claim.lease_ns = params_.lease.ttl_ns;
  Result<rpc::Void> won = co_await context_->names().Register(
      params_.name, claim, /*overwrite=*/false);
  if (!won.ok()) co_return;  // lost the race, or the name service flaked

  // Promoted. Announce the new epoch to the previous view; peers that do
  // not answer (typically the dead old primary) are evicted.
  promotions_++;
  role_ = ReplicaRole::kPrimary;
  epoch_++;
  std::vector<core::ServiceBinding> view{self_};
  for (const auto& r : active_) {
    if (!SameObject(r, self_)) view.push_back(r);
  }
  active_ = std::move(view);
  PROXY_LOG(kInfo, context_->scheduler().now(), "rkv",
            "replica " << self_.object.ToString() << " promoted to primary"
                       << " at epoch " << epoch_);
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() +
                              " promoted to primary at epoch " +
                              std::to_string(epoch_));
  ReplicateBatchRequest announce;
  announce.epoch = epoch_;
  announce.replicas = active_;
  announce.shard = shard_;
  // Snapshot before the awaited loops: active_ can be reassigned by a
  // concurrent frame while SendBatch is suspended (see Mirror).
  const std::vector<core::ServiceBinding> announce_view = active_;
  std::vector<core::ServiceBinding> survivors{self_};
  for (const auto& peer : announce_view) {
    if (SameObject(peer, self_)) continue;
    const Status st = co_await SendBatch(peer, announce, obs::TraceContext{});
    if (st.ok()) {
      survivors.push_back(peer);
    } else if (st.code() == StatusCode::kFenced) {
      // Someone is ahead of us after all: undo the claim and resync.
      StepDown(/*resync=*/true);
      co_return;
    }
  }
  if (survivors.size() != announce_view.size()) {
    epoch_++;
    context_->spans().Event(context_->scheduler().now(),
                            "rkv " + self_.object.ToString() +
                                " epoch bump -> " + std::to_string(epoch_) +
                                " (old primary evicted on promote)");
    active_ = survivors;
    announce.epoch = epoch_;
    announce.replicas = active_;
    for (const auto& peer : survivors) {
      if (SameObject(peer, self_)) continue;
      (void)co_await SendBatch(peer, announce, obs::TraceContext{});
    }
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
  rpc::RpcResult r = co_await context_->client().Call(
      rec->binding.server, rec->binding.object, kvwire::kJoin,
      serde::EncodeToBytes(req), params_.mirror);
  if (!r.ok()) co_return;
  Result<JoinResponse> resp =
      serde::DecodeFromBytes<JoinResponse>(View(r.payload));
  if (!resp.ok()) co_return;
  if (context_->crashed() || stopped_) co_return;  // crashed mid-join

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
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() +
                              " rejoined at epoch " + std::to_string(epoch_));
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
  const std::vector<core::ServiceBinding> poll_view = all_replicas_;
  for (const auto& peer : poll_view) {
    if (SameObject(peer, self_)) continue;
    rpc::RpcResult r = co_await context_->client().Call(
        peer.server, peer.object, kvwire::kGetStatus,
        serde::EncodeToBytes(rpc::Void{}), params_.mirror);
    if (!r.ok()) co_return;
    Result<StatusResponse> st =
        serde::DecodeFromBytes<StatusResponse>(View(r.payload));
    if (!st.ok()) co_return;
    if (st->epoch > epoch_) co_return;
    if (!st->syncing) co_return;
  }
  // State may have moved while the polls were parked (a join completed,
  // a crash hit, a peer claimed first).
  if (stopped_ || context_->crashed() || !syncing_ || epoch_ == 0) co_return;
  Result<naming::NameRecord> rec =
      co_await context_->names().Lookup(params_.name);
  if (rec.ok() || rec.status().code() != StatusCode::kNotFound) co_return;

  naming::NameRecord claim;
  claim.kind = naming::RecordKind::kService;
  claim.binding = self_;
  claim.lease_ns = params_.lease.ttl_ns;
  Result<rpc::Void> won = co_await context_->names().Register(
      params_.name, claim, /*overwrite=*/false);
  if (!won.ok()) co_return;  // lost the race: rejoin the winner instead
  if (stopped_ || context_->crashed()) co_return;  // record expires unrenewed

  promotions_++;
  rescues_++;
  role_ = ReplicaRole::kPrimary;
  syncing_ = false;
  rejoin_misses_ = 0;
  epoch_++;
  // Start alone; the peers (all syncing) rejoin through the name we just
  // registered, and writes stay unavailable until one does (the mirror
  // never acknowledges a write this replica alone holds).
  std::vector<core::ServiceBinding> view{self_};
  active_ = std::move(view);
  PROXY_LOG(kInfo, context_->scheduler().now(), "rkv",
            "replica " << self_.object.ToString()
                       << " rescued deposed group as primary at epoch "
                       << epoch_);
  context_->spans().Event(context_->scheduler().now(),
                          "rkv " + self_.object.ToString() +
                              " rescued deposed group at epoch " +
                              std::to_string(epoch_));
  lease_ = std::make_unique<core::LeaseMaintainer>(*context_, params_.name,
                                                   self_, params_.lease);
}

// --- skeleton ----------------------------------------------------------

std::shared_ptr<rpc::Dispatch> MakeReplicatedKvDispatch(
    std::shared_ptr<KvReplica> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped<rpc::Void, SizeResponse>(
      *dispatch, kvwire::kSize,
      [impl](rpc::Void, const rpc::CallContext&)
          -> sim::Co<Result<SizeResponse>> {
        Result<std::uint64_t> size = co_await impl->Size();
        if (!size.ok()) co_return size.status();
        co_return SizeResponse{*size};
      });
  rpc::RegisterTyped<ListRequest, ListResponse>(
      *dispatch, kvwire::kList,
      [impl](ListRequest req,
             const rpc::CallContext&) -> sim::Co<Result<ListResponse>> {
        Result<std::vector<std::string>> keys =
            co_await impl->List(std::move(req.prefix));
        if (!keys.ok()) co_return keys.status();
        co_return ListResponse{std::move(*keys)};
      });
  rpc::RegisterTyped<rpc::Void, ReplicaListResponse>(
      *dispatch, kvwire::kGetReplicas,
      [impl](rpc::Void, const rpc::CallContext&) {
        return impl->HandleGetReplicas();
      });
  rpc::RegisterTyped<ReplicateBatchRequest, rpc::Void>(
      *dispatch, kvwire::kReplicateBatch,
      [impl](ReplicateBatchRequest req, const rpc::CallContext&) {
        return impl->HandleReplicateBatch(std::move(req));
      });
  rpc::RegisterTyped<JoinRequest, JoinResponse>(
      *dispatch, kvwire::kJoin,
      [impl](JoinRequest req, const rpc::CallContext&) {
        return impl->HandleJoin(std::move(req));
      });
  rpc::RegisterTyped<rpc::Void, StatusResponse>(
      *dispatch, kvwire::kGetStatus,
      [impl](rpc::Void, const rpc::CallContext&) {
        return impl->HandleGetStatus();
      });
  rpc::RegisterTyped<PutRequest, EpochPutResponse>(
      *dispatch, kvwire::kEpochPut,
      [impl](PutRequest req,
             const rpc::CallContext& ctx) -> sim::Co<Result<EpochPutResponse>> {
        const std::string key = req.key;  // stamps the reply after the move
        std::uint64_t ack_epoch = 0;
        Result<rpc::Void> applied = co_await impl->Put(
            std::move(req.key), std::move(req.value), ctx.trace, &ack_epoch);
        if (!applied.ok()) co_return applied.status();
        co_return EpochPutResponse{ack_epoch, impl->ShardEpochOf(key)};
      });
  rpc::RegisterTyped<DelRequest, EpochDelResponse>(
      *dispatch, kvwire::kEpochDel,
      [impl](DelRequest req,
             const rpc::CallContext& ctx) -> sim::Co<Result<EpochDelResponse>> {
        const std::string key = req.key;
        std::uint64_t ack_epoch = 0;
        Result<bool> existed = co_await impl->Del(std::move(req.key),
                                                  ctx.trace, &ack_epoch);
        if (!existed.ok()) co_return existed.status();
        co_return EpochDelResponse{*existed, ack_epoch,
                                   impl->ShardEpochOf(key)};
      });
  rpc::RegisterTyped<GetRequest, EpochGetResponse>(
      *dispatch, kvwire::kEpochGet,
      [impl](GetRequest req,
             const rpc::CallContext&) -> sim::Co<Result<EpochGetResponse>> {
        const std::string key = req.key;
        Result<std::optional<std::string>> value =
            co_await impl->Get(std::move(req.key));
        if (!value.ok()) co_return value.status();
        co_return EpochGetResponse{std::move(*value), impl->epoch(),
                                   impl->ShardEpochOf(key)};
      });
  rpc::RegisterTyped<ShardFreezeRequest, ShardFreezeResponse>(
      *dispatch, kvwire::kShardFreeze,
      [impl](ShardFreezeRequest req, const rpc::CallContext&) {
        return impl->HandleShardFreeze(req);
      });
  rpc::RegisterTyped<ShardInstallRequest, ShardInstallResponse>(
      *dispatch, kvwire::kShardInstall,
      [impl](ShardInstallRequest req, const rpc::CallContext&) {
        return impl->HandleShardInstall(std::move(req));
      });
  rpc::RegisterTyped<ShardReleaseRequest, rpc::Void>(
      *dispatch, kvwire::kShardRelease,
      [impl](ShardReleaseRequest req, const rpc::CallContext&) {
        return impl->HandleShardRelease(req);
      });
  rpc::RegisterTyped<ShardUnfreezeRequest, rpc::Void>(
      *dispatch, kvwire::kShardUnfreeze,
      [impl](ShardUnfreezeRequest req, const rpc::CallContext&) {
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

sim::Co<Status> KvFailoverProxy::EnsureReplicaList(
    bool force, obs::TraceContext trace,
    std::shared_ptr<rpc::AttemptBudget> budget) {
  if (!force && !replicas_.empty()) co_return Status::Ok();
  const std::vector<core::ServiceBinding> known = replicas_;
  if (force) {
    replicas_.clear();
    list_refreshes_++;
    context().spans().Annotate(trace, context().scheduler().now(),
                               "replica list refresh");
  }
  rpc::CallOptions traced = options_;
  traced.trace = trace;
  traced.attempt_budget = std::move(budget);  // share the op's allowance
  // Ask the bound primary first; CallRaw re-resolves the service name if
  // the bound address stopped answering (the new primary re-registers
  // the name when it promotes).
  Result<ReplicaListResponse> resp = FailedPreconditionError("unset");
  Result<Bytes> raw = co_await CallRaw(
      kvwire::kGetReplicas, serde::EncodeToBytes(rpc::Void{}), traced);
  if (raw.ok()) {
    resp = serde::DecodeFromBytes<ReplicaListResponse>(View(*raw));
  } else {
    resp = raw.status();
    // The primary is dark and the name not (yet) re-registered: any
    // replica we already knew about can serve its view of the list.
    for (const auto& replica : known) {
      rpc::RpcResult alt = co_await context().client().Call(
          replica.server, replica.object, kvwire::kGetReplicas,
          serde::EncodeToBytes(rpc::Void{}), traced);
      if (!alt.ok()) continue;
      Result<ReplicaListResponse> decoded =
          serde::DecodeFromBytes<ReplicaListResponse>(View(alt.payload));
      if (decoded.ok()) {
        resp = std::move(decoded);
        break;
      }
    }
  }
  if (!resp.ok()) co_return resp.status();
  if (resp->replicas.empty()) {
    co_return FailedPreconditionError("empty replica list");
  }
  replicas_ = std::move(resp->replicas);
  list_epoch_ = resp->epoch;
  preferred_ = 0;
  co_return Status::Ok();
}

template <typename Resp, typename Req>
sim::Co<Result<Resp>> KvFailoverProxy::ReadCall(std::uint32_t method,
                                                Req req) {
  obs::SpanRecorder& spans = context().spans();
  const obs::TraceContext span =
      spans.Begin(options_.trace, "rkv.read m" + std::to_string(method),
                  context().scheduler().now());
  rpc::CallOptions opts = options_;
  if (span.active()) opts.trace = span;
  opts.attempt_budget = MintOpBudget();  // one allowance across all passes

  Result<Resp> outcome = UnavailableError("no replicas");
  bool done = false;
  const Status ready =
      co_await EnsureReplicaList(false, span, opts.attempt_budget);
  if (!ready.ok()) {
    outcome = ready;
    done = true;
  }
  Bytes args;
  if (!done) args = serde::EncodeToBytes(req);
  Status last = UnavailableError("no replicas");
  for (int pass = 0; pass < 2 && !done; ++pass) {
    for (std::size_t i = 0; i < replicas_.size() && !done; ++i) {
      const std::size_t idx = (preferred_ + i) % replicas_.size();
      const core::ServiceBinding& replica = replicas_[idx];
      rpc::RpcResult raw = co_await context().client().Call(
          replica.server, replica.object, method, args, opts);
      if (raw.ok()) {
        if (idx != preferred_) {
          failovers_++;
          spans.Annotate(span, context().scheduler().now(),
                         "failover -> replica " + std::to_string(idx));
          preferred_ = idx;  // stick with the replica that answered
        }
        outcome = serde::DecodeFromBytes<Resp>(View(raw.payload));
        done = true;
        break;
      }
      // Only liveness failures trigger failover; semantic errors are
      // final.
      if (raw.status.code() != StatusCode::kTimeout &&
          raw.status.code() != StatusCode::kUnavailable) {
        outcome = raw.status;
        done = true;
        break;
      }
      last = raw.status;
    }
    if (!done && pass == 0) {
      // Every cached replica failed: the whole set may have moved on
      // (failover reshuffled it, or our list is from a dead epoch).
      // Re-fetch once and give the fresh set one more chance.
      const Status refreshed =
          co_await EnsureReplicaList(true, span, opts.attempt_budget);
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

template <typename Resp, typename Req>
sim::Co<Result<Resp>> KvFailoverProxy::WriteCall(std::uint32_t method,
                                                 Req req) {
  obs::SpanRecorder& spans = context().spans();
  const obs::TraceContext span =
      spans.Begin(options_.trace, "rkv.write m" + std::to_string(method),
                  context().scheduler().now());
  rpc::CallOptions opts = options_;
  if (span.active()) opts.trace = span;
  opts.attempt_budget = MintOpBudget();  // one allowance across all passes

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
    const Status ready =
        co_await EnsureReplicaList(pass > 0, span, opts.attempt_budget);
    if (!ready.ok()) {
      if (!attempted) verdict = ready;
      continue;
    }
    const core::ServiceBinding primary = replicas_[0];
    rpc::RpcResult raw = co_await context().client().Call(
        primary.server, primary.object, method, args, opts);
    if (raw.ok()) {
      last_write_acker_ = primary.object;
      outcome = serde::DecodeFromBytes<Resp>(View(raw.payload));
      done = true;
      break;
    }
    const StatusCode code = raw.status.code();
    // FENCED means our primary is deposed; UNAVAILABLE/TIMEOUT may mean
    // the same (a backup refusing writes, a dead node). All three:
    // refresh the list and follow the new primary.
    if (code != StatusCode::kTimeout && code != StatusCode::kUnavailable &&
        code != StatusCode::kFenced) {
      outcome = raw.status;
      done = true;
      break;
    }
    if (code == StatusCode::kFenced) {
      spans.Annotate(span, context().scheduler().now(),
                     "primary fenced; following the new epoch");
    }
    if (!attempted) {
      verdict = raw.status;
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
      co_await ReadCall<EpochGetResponse>(kvwire::kEpochGet, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return std::move(resp->value);
}

sim::Co<Result<std::vector<std::string>>> KvFailoverProxy::List(
    std::string prefix) {
  ListRequest req{std::move(prefix)};  // named: see stub.h "GCC note"
  Result<ListResponse> resp =
      co_await ReadCall<ListResponse>(kvwire::kList, std::move(req));
  if (!resp.ok()) co_return resp.status();
  co_return std::move(resp->keys);
}

sim::Co<Result<std::uint64_t>> KvFailoverProxy::Size() {
  Result<SizeResponse> resp =
      co_await ReadCall<SizeResponse>(kvwire::kSize, rpc::Void{});
  if (!resp.ok()) co_return resp.status();
  co_return resp->size;
}

sim::Co<Result<rpc::Void>> KvFailoverProxy::Put(std::string key,
                                                std::string value) {
  PutRequest req{std::move(key), std::move(value), ObjectId{}};
  Result<EpochPutResponse> resp =
      co_await WriteCall<EpochPutResponse>(kvwire::kEpochPut, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return rpc::Void{};
}

sim::Co<Result<bool>> KvFailoverProxy::Del(std::string key) {
  DelRequest req{std::move(key), ObjectId{}};
  Result<EpochDelResponse> resp =
      co_await WriteCall<EpochDelResponse>(kvwire::kEpochDel, std::move(req));
  if (!resp.ok()) co_return resp.status();
  last_op_epoch_ = resp->epoch;
  last_op_shard_epoch_ = resp->shard_epoch;
  co_return resp->existed;
}

}  // namespace proxy::services
