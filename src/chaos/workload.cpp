#include "chaos/workload.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "core/proxy.h"
#include "rpc/stub.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"
#include "sim/future.h"

namespace proxy::chaos {

namespace {

/// State shared between an open-loop lane and its in-flight operations.
/// Heap-held: the ops are detached coroutines that may outlive the body
/// of the spawning loop's stack frame between suspensions.
struct OpenLoopShared {
  OpenLoopStats* stats = nullptr;
  History* history = nullptr;
  std::uint32_t client_id = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t next_op = 0;
};

sim::Co<void> OpenLoopOp(sim::Scheduler& sched, services::IKeyValue& kv,
                         const OpenLoopParams params,
                         std::shared_ptr<OpenLoopShared> shared, bool write,
                         std::string key, std::string value) {
  const SimTime start = sched.now();
  const std::uint64_t op_index = shared->next_op++;
  shared->in_flight++;
  Status verdict = Status::Ok();
  bool found = false;
  std::string read_value;
  if (write) {
    Result<rpc::Void> r = co_await kv.Put(key, value);
    verdict = r.status();
  } else {
    Result<std::optional<std::string>> r = co_await kv.Get(key);
    verdict = r.status();
    if (r.ok() && r->has_value()) {
      found = true;
      read_value = std::move(**r);
    }
  }
  shared->in_flight--;
  const SimTime end = sched.now();
  if (verdict.ok()) {
    shared->stats->ok++;
    shared->stats->total_ok_latency += end - start;
    shared->stats->ok_latencies.push_back(end - start);
  } else if (verdict.code() == StatusCode::kResourceExhausted) {
    shared->stats->shed++;
  } else {
    shared->stats->failed++;
  }
  if (shared->history != nullptr) {
    OpRecord rec;
    rec.client = shared->client_id;
    rec.op = op_index;
    rec.kind = write ? OpKind::kKvPut : OpKind::kKvGet;
    rec.outcome = verdict.ok() ? OpOutcome::kOk
                  : verdict.code() == StatusCode::kResourceExhausted
                      ? OpOutcome::kShed
                      : OpOutcome::kFailed;
    rec.start = start;
    rec.end = end;
    rec.key = std::move(key);
    rec.value = write ? std::move(value) : std::move(read_value);
    rec.flag = found;
    rec.priority = static_cast<std::uint8_t>(params.priority);
    shared->history->Append(std::move(rec));
  }
}

}  // namespace

sim::Co<void> RunOpenLoop(sim::Scheduler& sched, services::IKeyValue& kv,
                          const OpenLoopParams& params, OpenLoopStats& stats,
                          History* history, std::uint32_t client_id) {
  auto shared = std::make_shared<OpenLoopShared>();
  shared->stats = &stats;
  shared->history = history;
  shared->client_id = client_id;
  Rng rng(SplitMix64(params.seed ^ 0x09e37779b97f4a7cULL).Next());
  ZipfGenerator zipf(params.keys, params.zipf_skew,
                     SplitMix64(params.seed ^ 0x21edd5a1ULL).Next());
  const SimTime deadline = sched.now() + params.duration;
  const double mean_gap_ns = 1e9 / params.rate_per_sec;
  while (sched.now() < deadline) {
    const bool write = rng.UniformU64(100) < params.write_percent;
    const std::string key =
        params.key_prefix + std::to_string(zipf.Next());
    std::string value;
    if (write) {
      value = params.value_tag + "-" + std::to_string(stats.offered);
    }
    stats.offered++;
    sim::Detach(sched, OpenLoopOp(sched, kv, params, shared, write, key,
                                  std::move(value)));
    // Poisson arrivals: exponential gaps, independent of completions —
    // the open loop. A zero gap still advances one scheduler grain.
    const auto gap =
        static_cast<SimDuration>(rng.Exponential(mean_gap_ns));
    co_await sim::SleepFor(sched, std::max<SimDuration>(gap, 1));
  }
  // Drain: per-call deadlines bound every op, so this terminates.
  while (shared->in_flight > 0) {
    co_await sim::SleepFor(sched, Milliseconds(1));
  }
}

std::shared_ptr<rpc::Dispatch> MakeThrottledKvDispatch(
    std::shared_ptr<services::KvService> impl, sim::Scheduler& sched,
    SimDuration service_time) {
  using services::kvwire::GetRequest;
  using services::kvwire::ListRequest;
  using services::kvwire::PutRequest;
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(
      *dispatch, services::kvwire::kGet,
      [impl, &sched, service_time](
          GetRequest req) -> sim::Co<Result<std::optional<std::string>>> {
        co_await sim::SleepFor(sched, service_time);
        co_return impl->Lookup(req.key);
      });
  rpc::RegisterTyped(
      *dispatch, services::kvwire::kPut,
      [impl, &sched, service_time](
          PutRequest req) -> sim::Co<Result<rpc::Void>> {
        co_await sim::SleepFor(sched, service_time);
        impl->Store(std::move(req.key), std::move(req.value),
                    req.exclude_sink);
        co_return rpc::Void{};
      });
  rpc::RegisterTyped(
      *dispatch, services::kvwire::kList,
      [impl, &sched, service_time](
          ListRequest req) -> sim::Co<Result<std::vector<std::string>>> {
        co_await sim::SleepFor(sched, service_time);
        co_return impl->Keys(req.prefix);
      });
  return dispatch;
}

sim::Co<Result<rpc::Void>> WorkloadClient::BindAll(
    const WorkloadParams& params) {
  core::AcquireOptions opts;
  opts.allow_direct = false;
  // Call policy is declared at acquisition: every proxy the workload
  // acquires gets the chaos-tuned options.
  opts.call = params.call;
  Result<std::shared_ptr<services::ICounter>> counter =
      co_await core::Acquire<services::ICounter>(*context_, "chaos/ctr", opts);
  if (!counter.ok()) co_return counter.status();
  counter_ = *counter;
  Result<std::shared_ptr<services::IKeyValue>> kv =
      co_await core::Acquire<services::IKeyValue>(*context_, "chaos/kv", opts);
  if (!kv.ok()) co_return kv.status();
  kv_ = *kv;
  Result<std::shared_ptr<services::ILockService>> lock =
      co_await core::Acquire<services::ILockService>(*context_, "chaos/lock",
                                                  opts);
  if (!lock.ok()) co_return lock.status();
  lock_ = *lock;

  kv_failover_ = dynamic_cast<services::KvFailoverProxy*>(kv_.get());
  kv_router_ = dynamic_cast<services::KvShardRouterProxy*>(kv_.get());
  co_return rpc::Void{};
}

OpRecord& WorkloadClient::Record(History& history, OpKind kind,
                                 SimTime start) {
  OpRecord r;
  r.client = index_;
  r.op = next_op_++;
  r.kind = kind;
  r.start = start;
  r.end = context_->scheduler().now();
  return history.Append(std::move(r));
}

sim::Co<void> WorkloadClient::Run(const WorkloadParams& params,
                                  History& history) {
  sim::Scheduler& sched = context_->scheduler();
  for (std::uint32_t i = 0; i < params.ops_per_client; ++i) {
    co_await sim::SleepFor(sched, rng_.UniformU64(params.max_think + 1));
    const std::uint64_t roll = rng_.UniformU64(100);
    const SimTime start = sched.now();

    if (roll < 40) {
      Result<std::int64_t> r = co_await counter_->Increment(1);
      OpRecord& rec = Record(history, OpKind::kCtrInc, start);
      rec.outcome = r.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
      if (r.ok()) rec.number = *r;
    } else if (roll < 55) {
      Result<std::int64_t> r = co_await counter_->Read();
      OpRecord& rec = Record(history, OpKind::kCtrRead, start);
      rec.outcome = r.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
      if (r.ok()) rec.number = *r;
    } else if (roll < 75) {
      const std::string key =
          "k" + std::to_string(rng_.UniformU64(params.kv_keys));
      const std::string value =
          "c" + std::to_string(index_) + "-o" + std::to_string(next_op_);
      Result<rpc::Void> r = co_await kv_->Put(key, value);
      OpRecord& rec = Record(history, OpKind::kKvPut, start);
      rec.outcome = r.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
      rec.key = key;
      rec.value = value;
      if (r.ok() && kv_router_ != nullptr) {
        rec.epoch = kv_router_->last_op_epoch();
        const ObjectId acker = kv_router_->last_write_acker();
        rec.acker = acker.hi ^ acker.lo;
        rec.shard = kv_router_->last_op_shard();
        rec.shard_epoch = kv_router_->last_op_shard_epoch();
        rec.group = kv_router_->last_op_group();
      } else if (r.ok() && kv_failover_ != nullptr) {
        rec.epoch = kv_failover_->last_op_epoch();
        const ObjectId acker = kv_failover_->last_write_acker();
        rec.acker = acker.hi ^ acker.lo;
      }
    } else if (roll < 90) {
      const std::string key =
          "k" + std::to_string(rng_.UniformU64(params.kv_keys));
      Result<std::optional<std::string>> r = co_await kv_->Get(key);
      OpRecord& rec = Record(history, OpKind::kKvGet, start);
      rec.outcome = r.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
      rec.key = key;
      if (r.ok() && r->has_value()) {
        rec.flag = true;
        rec.value = **r;
      }
      if (r.ok() && kv_router_ != nullptr) {
        rec.epoch = kv_router_->last_op_epoch();
        rec.shard = kv_router_->last_op_shard();
        rec.shard_epoch = kv_router_->last_op_shard_epoch();
        rec.group = kv_router_->last_op_group();
      } else if (r.ok() && kv_failover_ != nullptr) {
        rec.epoch = kv_failover_->last_op_epoch();
      }
    } else {
      const std::string name =
          "l" + std::to_string(rng_.UniformU64(params.lock_names));
      const std::uint64_t owner = index_ + 1;  // 0 is "no owner"
      Result<bool> acquired = co_await lock_->TryAcquire(name, owner);
      {
        OpRecord& rec = Record(history, OpKind::kLockTry, start);
        rec.outcome = acquired.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
        rec.key = name;
        rec.flag = acquired.ok() && *acquired;
      }
      if (acquired.ok() && *acquired) {
        co_await sim::SleepFor(sched, rng_.UniformU64(Milliseconds(3)));
        // The definite-hold interval ends at the *first* release attempt;
        // retry a couple of times so the lock usually frees for real.
        for (int attempt = 0; attempt < 3; ++attempt) {
          const SimTime rel_start = sched.now();
          Result<rpc::Void> released = co_await lock_->Release(name, owner);
          OpRecord& rec = Record(history, OpKind::kLockRelease, rel_start);
          rec.outcome = released.ok() ? OpOutcome::kOk : OpOutcome::kFailed;
          rec.key = name;
          if (released.ok()) break;
        }
      }
    }
  }
  done_ = true;
}

}  // namespace proxy::chaos
