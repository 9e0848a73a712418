#include "services/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace proxy::services {

using kvwire::ShardFreezeRequest;
using kvwire::ShardFreezeResponse;
using kvwire::ShardInstallRequest;
using kvwire::ShardReleaseRequest;
using kvwire::ShardUnfreezeRequest;
using shardwire::CommitMoveRequest;
using shardwire::ShardMap;

// --- routing proxy -----------------------------------------------------

KvShardRouterProxy::KvShardRouterProxy(core::Context& context,
                                       core::ServiceBinding binding)
    : core::ProxyBase(context, std::move(binding)),
      metric_scope_(context.metrics()) {
  metric_scope_.Attach("svc.shard.router.map_refreshes", &map_refreshes_);
  metric_scope_.Attach("svc.shard.router.wrong_shard_retries",
                       &wrong_shard_retries_);
  metric_scope_.Attach("svc.shard.router.fanouts", &fanouts_);
  metric_scope_.Attach("svc.shard.router.shed_fail_fast", &shed_fail_fast_);
}

sim::Co<Status> KvShardRouterProxy::LoadMap(bool refresh,
                                            obs::TraceContext trace) {
  if (refresh) {
    map_refreshes_++;
    context().spans().Annotate(trace, context().scheduler().now(),
                               "shard map refresh");
  }
  rpc::CallOptions traced = options_;
  traced.trace = trace;
  rpc::Void none;  // named: see stub.h "GCC note"
  Result<ShardMap> fetched =
      co_await Call(shardwire::kGetShardMap, none, traced);
  if (!fetched.ok()) co_return fetched.status();
  if (!fetched->Valid()) co_return InternalError("invalid shard map");
  // Refreshes never regress: a reply raced by a newer fetch is dropped.
  if (fetched->version >= map_.version) map_ = std::move(*fetched);
  co_return Status::Ok();
}

std::shared_ptr<KvFailoverProxy> KvShardRouterProxy::CachedGroup(
    const std::string& name) const {
  const auto it = groups_.find(name);
  return it == groups_.end() ? nullptr : it->second;
}

sim::Co<Result<std::shared_ptr<KvFailoverProxy>>> KvShardRouterProxy::
    AcquireGroup(const std::string& name) {
  core::AcquireOptions opts;
  // Always bind the group's advertised failover proxy, never the raw
  // replica, even when the router happens to share a context with one.
  opts.allow_direct = false;
  // The router's own call policy (declared at *its* acquisition) flows
  // down to every group proxy, so per-op deadlines hold end to end.
  opts.call = options_;
  Result<std::shared_ptr<IKeyValue>> acquired =
      co_await core::Acquire<IKeyValue>(context(), name, opts);
  if (!acquired.ok()) co_return acquired.status();
  auto typed = std::dynamic_pointer_cast<KvFailoverProxy>(*acquired);
  if (!typed) {
    co_return FailedPreconditionError("group " + name +
                                      " is not a protocol-4 replicated KV");
  }
  groups_.emplace(name, typed);
  co_return typed;
}

SimDuration KvShardRouterProxy::GroupBackoffRemaining(
    const std::string& group) {
  const auto it = group_backoff_until_.find(group);
  if (it == group_backoff_until_.end()) return 0;
  const SimTime now = context().scheduler().now();
  if (now >= it->second) {
    group_backoff_until_.erase(it);
    return 0;
  }
  return it->second - now;
}

void KvShardRouterProxy::NoteGroupOutcome(const std::string& group,
                                          StatusCode code) {
  if (code != StatusCode::kResourceExhausted) return;
  const SimTime until = context().scheduler().now() + kGroupBackoff;
  SimTime& slot = group_backoff_until_[group];
  slot = std::max(slot, until);
}

Status KvShardRouterProxy::ShedFast(const std::string& group,
                                    SimDuration remaining) {
  shed_fail_fast_++;
  context().spans().Event(
      context().scheduler().now(),
      "router: shed-before-fanout, " + group + " backed off " +
          FormatDuration(remaining));
  return ResourceExhaustedError("group " + group + " shedding load (retry in " +
                                FormatDuration(remaining) + ")");
}

void KvShardRouterProxy::RecordOp(std::uint32_t shard,
                                  const std::string& group_name,
                                  const KvFailoverProxy& group, bool write) {
  last_op_shard_ = shard;
  last_op_group_ = group_name;
  last_op_shard_epoch_ = group.last_op_shard_epoch();
  last_op_epoch_ = group.last_op_epoch();
  if (write) last_write_acker_ = group.last_write_acker();
}

template <typename T, typename Op>
sim::Co<Result<T>> KvShardRouterProxy::Route(std::string key, bool write,
                                             Op op) {
  Status last = UnavailableError("no shard map");
  for (int pass = 0; pass < kRoutePasses; ++pass) {
    if (pass > 0) {
      // Give an in-flight migration a beat to commit before re-asking.
      co_await sim::SleepFor(context().scheduler(), Milliseconds(10));
    }
    if (pass > 0 || !map_.Valid()) {
      const Status ready = co_await LoadMap(pass > 0);
      if (!ready.ok()) co_return ready;
    }
    const std::uint32_t shard = ShardOf(key, map_.num_shards);
    const std::string group_name = map_.groups[map_.owner[shard]];
    // Shed-before-send: a group that just shed load gets no more work
    // from this router until its backoff window passes.
    if (const SimDuration left = GroupBackoffRemaining(group_name); left > 0) {
      co_return ShedFast(group_name, left);
    }
    std::shared_ptr<KvFailoverProxy> group = CachedGroup(group_name);
    if (!group) {
      Result<std::shared_ptr<KvFailoverProxy>> acquired =
          co_await AcquireGroup(group_name);
      if (!acquired.ok()) co_return acquired.status();
      group = std::move(*acquired);
    }
    Result<T> r = co_await op(*group, key);
    if (r.ok()) {
      RecordOp(shard, group_name, *group, write);
      co_return r;
    }
    NoteGroupOutcome(group_name, r.status().code());
    if (r.status().code() != StatusCode::kWrongShard) co_return r.status();
    wrong_shard_retries_++;
    last = r.status();
  }
  co_return last;
}

template <typename T, typename Op, typename Fold>
sim::Co<Result<T>> KvShardRouterProxy::FanOut(Op op, Fold fold) {
  if (!map_.Valid()) {
    const Status ready = co_await LoadMap(false);
    if (!ready.ok()) co_return ready;
  }
  // Snapshot: map_ can be refreshed by a concurrent op while a group
  // call below is suspended.
  const std::vector<std::string> group_names = map_.groups;
  // Shed-before-fanout: one overloaded group fails the whole fan-out, so
  // check them all up front rather than amplify N-1 wasted calls.
  for (const auto& name : group_names) {
    if (const SimDuration left = GroupBackoffRemaining(name); left > 0) {
      co_return ShedFast(name, left);
    }
  }
  fanouts_++;
  T acc{};
  for (const auto& name : group_names) {
    std::shared_ptr<KvFailoverProxy> group = CachedGroup(name);
    if (!group) {
      Result<std::shared_ptr<KvFailoverProxy>> acquired =
          co_await AcquireGroup(name);
      if (!acquired.ok()) co_return acquired.status();
      group = std::move(*acquired);
    }
    Result<T> part = co_await op(*group);
    if (!part.ok()) {
      // Abort on the first shed: the remaining groups get nothing.
      NoteGroupOutcome(name, part.status().code());
      co_return part.status();
    }
    fold(acc, std::move(*part));
  }
  co_return acc;
}

sim::Co<Result<std::optional<std::string>>> KvShardRouterProxy::Get(
    std::string key) {
  return Route<std::optional<std::string>>(
      std::move(key), /*write=*/false,
      [](KvFailoverProxy& group, const std::string& k) { return group.Get(k); });
}

sim::Co<Result<rpc::Void>> KvShardRouterProxy::Put(std::string key,
                                                   std::string value) {
  return Route<rpc::Void>(
      std::move(key), /*write=*/true,
      [value = std::move(value)](KvFailoverProxy& group, const std::string& k) {
        return group.Put(k, value);
      });
}

sim::Co<Result<bool>> KvShardRouterProxy::Del(std::string key) {
  return Route<bool>(
      std::move(key), /*write=*/true,
      [](KvFailoverProxy& group, const std::string& k) { return group.Del(k); });
}

sim::Co<Result<std::uint64_t>> KvShardRouterProxy::Size() {
  return FanOut<std::uint64_t>(
      [](KvFailoverProxy& group) { return group.Size(); },
      [](std::uint64_t& total, std::uint64_t part) { total += part; });
}

sim::Co<Result<std::vector<std::string>>> KvShardRouterProxy::List(
    std::string prefix) {
  return FanOut<std::vector<std::string>>(
      [prefix = std::move(prefix)](KvFailoverProxy& group) {
        return group.List(prefix);
      },
      [](std::vector<std::string>& merged, std::vector<std::string> part) {
        merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
        // Dedup: mid-migration a shard is momentarily listable at both
        // ends.
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      });
}

// --- rebalancer --------------------------------------------------------

ShardRebalancer::ShardRebalancer(core::Context& context,
                                 core::ServiceBinding map_binding,
                                 ShardRebalancerParams params)
    : context_(&context),
      map_binding_(std::move(map_binding)),
      params_(params),
      metric_scope_(context.metrics()) {
  metric_scope_.Attach("svc.shard.rebalancer.moves", &moves_);
  metric_scope_.Attach("svc.shard.rebalancer.move_failures", &move_failures_);
}

sim::Co<Result<ShardMap>> ShardRebalancer::FetchMap() {
  rpc::Void none;  // named: see stub.h "GCC note"
  Result<ShardMap> map = co_await rpc::TypedCall(
      context_->client(), map_binding_.server, map_binding_.object,
      shardwire::kGetShardMap, none, params_.call);
  if (!map.ok()) co_return map.status();
  if (!map->Valid()) co_return InternalError("invalid shard map");
  co_return std::move(map);
}

template <typename Req, typename Resp, rpc::RequestOf<Req> A>
sim::Co<Result<Resp>> ShardRebalancer::CallPrimary(
    const std::string& group, rpc::Method<Req, Resp> method, A req) {
  const Bytes args = serde::EncodeToBytes(req);
  Status last = UnavailableError("no attempt against " + group);
  for (int attempt = 0; attempt < params_.step_attempts; ++attempt) {
    if (attempt > 0) {
      co_await sim::SleepFor(context_->scheduler(), params_.step_pause);
    }
    // Re-resolve every attempt: a promotion mid-step moves the name.
    Result<naming::NameRecord> rec = co_await context_->names().Lookup(group);
    if (!rec.ok()) {
      last = rec.status();
      continue;
    }
    Result<Resp> r = co_await rpc::TypedReply<Resp>(context_->client().Call(
        rec->binding.server, rec->binding.object, method.id, args,
        params_.call));
    if (r.ok()) co_return r;
    last = r.status();
    const StatusCode code = last.code();
    if (code != StatusCode::kTimeout && code != StatusCode::kUnavailable &&
        code != StatusCode::kFenced) {
      co_return last;  // semantic error: final
    }
  }
  co_return last;
}

sim::Co<Status> ShardRebalancer::MigrateShard(std::uint32_t shard,
                                              std::uint32_t to_group) {
  Result<ShardMap> map = co_await FetchMap();
  if (!map.ok()) {
    move_failures_++;
    co_return map.status();
  }
  if (shard >= map->num_shards || to_group >= map->groups.size()) {
    move_failures_++;
    co_return InvalidArgumentError("shard or group out of range");
  }
  if (map->owner[shard] != to_group) {
    const std::string source = map->groups[map->owner[shard]];
    const std::string dest = map->groups[to_group];
    // 1. Freeze + copy at the source. Also the resume path: a re-run
    //    finds the shard already frozen and gets the same snapshot.
    ShardFreezeRequest freeze_req{shard};
    Result<ShardFreezeResponse> frozen =
        co_await CallPrimary(source, kvwire::kShardFreeze, freeze_req);
    if (!frozen.ok()) {
      move_failures_++;
      // Best-effort thaw: the freeze may have landed with its ack lost.
      ShardUnfreezeRequest thaw{shard};
      (void)co_await CallPrimary(source, kvwire::kShardUnfreeze, thaw);
      co_return frozen.status();
    }
    const std::uint64_t next_epoch = frozen->shard_epoch + 1;
    // 2. Install at the destination under the bumped ownership epoch.
    ShardInstallRequest install_req;
    install_req.shard = shard;
    install_req.shard_epoch = next_epoch;
    install_req.entries = std::move(frozen->entries);
    Result<std::uint64_t> installed =
        co_await CallPrimary(dest, kvwire::kShardInstall, install_req);
    if (!installed.ok()) {
      move_failures_++;
      ShardUnfreezeRequest thaw{shard};
      (void)co_await CallPrimary(source, kvwire::kShardUnfreeze, thaw);
      co_return installed.status();
    }
    // 3. Commit at the map service (version-checked CAS).
    CommitMoveRequest commit;
    commit.shard = shard;
    commit.to_group = to_group;
    commit.expect_version = map->version;
    commit.new_shard_epoch = next_epoch;
    Result<ShardMap> committed = co_await rpc::TypedCall(
        context_->client(), map_binding_.server, map_binding_.object,
        shardwire::kCommitMove, commit, params_.call);
    if (committed.ok()) {
      *map = std::move(*committed);
    } else {
      // A failed commit may be OUR earlier commit whose ack was lost (a
      // re-run after a crash): re-read before declaring defeat.
      Result<ShardMap> fresh = co_await FetchMap();
      if (!fresh.ok()) {
        move_failures_++;
        co_return fresh.status();
      }
      if (fresh->owner[shard] != to_group ||
          fresh->shard_epoch[shard] < next_epoch) {
        // A concurrent move really did win; abort cleanly.
        move_failures_++;
        ShardUnfreezeRequest thaw{shard};
        (void)co_await CallPrimary(source, kvwire::kShardUnfreeze, thaw);
        co_return committed.status();
      }
      *map = std::move(*fresh);
    }
  }
  // 4. Release everywhere but the committed owner: idempotent no-ops at
  // groups that never held the shard, so a re-run needs no memory of the
  // source. A failed release leaves the stale copy fenced (safe) and the
  // move incomplete — re-running MigrateShard finishes it.
  Status release_verdict = Status::Ok();
  const std::vector<std::string> group_names = map->groups;
  for (std::uint32_t g = 0; g < group_names.size(); ++g) {
    if (g == map->owner[shard]) continue;
    ShardReleaseRequest rel;
    rel.shard = shard;
    rel.committed_epoch = map->shard_epoch[shard];
    Result<rpc::Void> released =
        co_await CallPrimary(group_names[g], kvwire::kShardRelease, rel);
    if (!released.ok()) {
      if (released.status().code() == StatusCode::kFailedPrecondition) {
        // The group holds the shard under a *newer* epoch than our
        // committed proof: a later move's install landed there and its
        // commit is still in flight. That copy is not ours to release —
        // the later move's own (re-)run settles it with a higher proof.
        context_->spans().Event(
            context_->scheduler().now(),
            "rebalancer: release of shard " + std::to_string(shard) + " at " +
                group_names[g] + " deferred (newer resident epoch)");
        continue;
      }
      release_verdict = released.status();
    }
  }
  if (!release_verdict.ok()) {
    move_failures_++;
    co_return release_verdict;
  }
  moves_++;
  context_->spans().Event(context_->scheduler().now(),
                          "rebalancer: shard " + std::to_string(shard) +
                              " -> " + map->groups[to_group] + " @ epoch " +
                              std::to_string(map->shard_epoch[shard]));
  co_return Status::Ok();
}

// --- export ------------------------------------------------------------

sim::Co<Result<ShardedKvExport>> ExportShardedKv(
    core::Context& map_ctx, std::vector<std::vector<core::Context*>> group_ctxs,
    ShardedKvParams params) {
  if (params.name.empty() || group_ctxs.empty() || params.num_shards == 0) {
    co_return InvalidArgumentError(
        "sharded export needs a name, groups and shards");
  }
  ShardedKvExport out;
  for (std::size_t g = 0; g < group_ctxs.size(); ++g) {
    out.group_names.push_back(params.name + "/g" + std::to_string(g));
  }
  const ShardMap initial =
      MakeInitialShardMap(params.num_shards, out.group_names);
  for (std::size_t g = 0; g < group_ctxs.size(); ++g) {
    if (group_ctxs[g].empty()) {
      co_return InvalidArgumentError("group " + std::to_string(g) +
                                     " has no contexts");
    }
    ReplicatedKvParams group_params = params.group;
    group_params.name = out.group_names[g];
    const std::vector<core::Context*> backups(group_ctxs[g].begin() + 1,
                                              group_ctxs[g].end());
    Result<ReplicatedKvExport> exported =
        ExportReplicatedKv(*group_ctxs[g][0], backups, group_params);
    if (!exported.ok()) co_return exported.status();
    // Seed every replica's shard slice before any simulated time passes
    // (this function only suspends below, after all groups exist).
    const ShardConfig config =
        InitialShardConfig(initial, static_cast<std::uint32_t>(g));
    for (const auto& replica : exported->replicas) {
      replica->ConfigureShards(config);
    }
    out.groups.push_back(std::move(*exported));
  }
  auto map_service = std::make_shared<ShardMapService>(map_ctx, initial);
  const ObjectId map_object = map_ctx.MintObjectId();
  const Status exported_map =
      map_ctx.server().ExportObject(map_object, MakeShardMapDispatch(map_service));
  if (!exported_map.ok()) co_return exported_map;
  core::ServiceBinding binding;
  binding.server = map_ctx.server_address();
  binding.object = map_object;
  binding.interface = InterfaceIdOf(IKeyValue::kInterfaceName);
  binding.protocol = 5;
  // The base name is plain configuration (no lease): the map service
  // lives on a non-failing node; each group's *primary* holds the leased
  // group name underneath it.
  Result<rpc::Void> registered = co_await map_ctx.names().RegisterService(
      params.name, binding, /*lease_ns=*/0);
  if (!registered.ok()) co_return registered.status();
  out.binding = binding;
  out.map_service = std::move(map_service);
  co_return out;
}

}  // namespace proxy::services
