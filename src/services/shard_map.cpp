#include "services/shard_map.h"

#include <utility>

#include "common/log.h"

namespace proxy::services {

using shardwire::CommitMoveRequest;
using shardwire::ShardMap;

std::uint32_t ShardOf(std::string_view key,
                      std::uint32_t num_shards) noexcept {
  // FNV-1a 64: stable across processes and runs (never std::hash, whose
  // value is implementation-defined — routers and replicas must agree).
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h % num_shards);
}

ShardMap MakeInitialShardMap(std::uint32_t num_shards,
                             std::vector<std::string> groups) {
  ShardMap map;
  map.version = 1;
  map.num_shards = num_shards;
  map.groups = std::move(groups);
  map.owner.resize(num_shards);
  map.shard_epoch.assign(num_shards, 1);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    map.owner[s] = s % static_cast<std::uint32_t>(map.groups.size());
  }
  return map;
}

ShardConfig InitialShardConfig(const ShardMap& map, std::uint32_t index) {
  ShardConfig config;
  config.num_shards = map.num_shards;
  for (std::uint32_t s = 0; s < map.num_shards; ++s) {
    if (map.owner[s] == index) {
      config.owned.push_back(s);
      config.owned_epoch.push_back(map.shard_epoch[s]);
    }
  }
  return config;
}

ShardMapService::ShardMapService(core::Context& context, ShardMap initial)
    : context_(&context),
      map_(std::move(initial)),
      metric_scope_(context.metrics()) {
  metric_scope_.Attach("svc.shard.map.gets", &gets_);
  metric_scope_.Attach("svc.shard.map.commits", &commits_);
}

Result<ShardMap> ShardMapService::HandleGet() {
  gets_++;
  return map_;
}

Result<ShardMap> ShardMapService::HandleCommitMove(
    const CommitMoveRequest& req) {
  if (req.shard >= map_.num_shards || req.to_group >= map_.groups.size()) {
    return InvalidArgumentError("shard or group out of range");
  }
  if (req.expect_version != map_.version) {
    // A concurrent move committed first; the caller re-reads and retries
    // (or discovers its move already landed — commits are idempotent at
    // the rebalancer, not here).
    return FailedPreconditionError(
        "map version " + std::to_string(map_.version) + " != expected " +
        std::to_string(req.expect_version));
  }
  if (req.new_shard_epoch <= map_.shard_epoch[req.shard]) {
    return FailedPreconditionError(
        "shard epoch must advance: " + std::to_string(req.new_shard_epoch) +
        " <= " + std::to_string(map_.shard_epoch[req.shard]));
  }
  map_.version++;
  map_.owner[req.shard] = req.to_group;
  map_.shard_epoch[req.shard] = req.new_shard_epoch;
  commits_++;
  context_->spans().Event(context_->scheduler().now(),
                          "shard map v" + std::to_string(map_.version) +
                              ": shard " + std::to_string(req.shard) +
                              " -> " + map_.groups[req.to_group] +
                              " @ epoch " +
                              std::to_string(req.new_shard_epoch));
  return map_;
}

std::shared_ptr<rpc::Dispatch> MakeShardMapDispatch(
    std::shared_ptr<ShardMapService> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, shardwire::kGetShardMap,
                     [impl](rpc::Void) { return impl->HandleGet(); });
  rpc::RegisterTyped(*dispatch, shardwire::kCommitMove,
                     [impl](CommitMoveRequest req) {
                       return impl->HandleCommitMove(req);
                     });
  return dispatch;
}

}  // namespace proxy::services
