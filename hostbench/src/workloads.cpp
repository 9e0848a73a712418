#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "core/factory.h"
#include "ledger.h"
#include "serde/wire.h"
#include "services/counter.h"
#include "services/kv.h"
#include "services/register_all.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"
#include "sim/future.h"
#include "sim/task.h"

namespace hostbench {

using namespace proxy;  // NOLINT
using ledger::Layer;

namespace {

// Timed-phase sizes: fixed per workload so every count is a function of
// the seed alone. Each is about a third of a second of host time.
constexpr std::uint64_t kRpcSmallOps = 100000;
constexpr std::uint64_t kRpcSmallWarmOps = 1000;
constexpr std::uint64_t kBulkOps = 1000;
constexpr std::size_t kBulkKeys = 16;
constexpr std::size_t kBulkValueBytes = 64 * 1024;
constexpr std::size_t kBulkPool = 8;
constexpr double kOpenRatePerSec = 20000.0;
constexpr SimDuration kOpenWindow = Milliseconds(1000);
constexpr std::uint32_t kOpenKeys = 256;
constexpr std::uint32_t kOpenWritePercent = 20;
constexpr std::uint64_t kCachedOps = 200000;
constexpr std::uint32_t kCachedClients = 4;
constexpr std::uint32_t kCachedKeys = 1024;
constexpr std::uint32_t kCachedWritePercent = 10;
constexpr std::uint64_t kCachedThinkNs = 10000;  // mean, per client

/// Every workload's links: 10 µs of jitter makes virtual latency depend
/// on the seed, as real links do.
sim::LinkParams Link(double bandwidth_bps) {
  sim::LinkParams link;
  link.bandwidth_bps = bandwidth_bps;
  link.jitter = Microseconds(10);
  return link;
}

std::unique_ptr<core::Runtime> MakeRuntime(std::uint64_t seed,
                                           const sim::LinkParams& link) {
  services::RegisterAllServices();
  core::Runtime::Params params;
  params.seed = seed;
  params.default_link = link;
  return std::make_unique<core::Runtime>(params);
}

/// Set-up steps cannot fail on a healthy simulated system; if one does,
/// the benchmark has nothing to measure.
void Require(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "hostbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

sim::Co<Status> Publish(core::Context& ctx, std::string name,
                        core::ServiceBinding binding) {
  Result<rpc::Void> r =
      co_await ctx.names().RegisterService(std::move(name), std::move(binding));
  co_return r.status();
}

template <typename I>
std::shared_ptr<I> AcquireOrDie(core::Runtime& rt, core::Context& ctx,
                                const std::string& path) {
  Result<std::shared_ptr<I>> r = rt.Run(core::Acquire<I>(ctx, path));
  Require(r.status(), "Acquire");
  return std::move(*r);
}

/// Drives the scheduler one event at a time (so the traced link sees
/// every Step) until `done` holds.
template <typename Done>
void StepUntil(sim::Scheduler& sched, Done done) {
  while (!done()) {
    if (!sched.Step()) {
      std::fprintf(stderr, "hostbench: simulation drained before completion\n");
      std::exit(2);
    }
  }
}

/// A key's accepted values, built from a write log after the run.
using Accepted = std::vector<std::unordered_set<std::string>>;

// --- rpc_small: remote ICounter::Increment through the protocol-1 stub ---

class RpcSmall final : public Workload {
 public:
  explicit RpcSmall(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    rt_ = MakeRuntime(seed_, Link(10e6));
    const NodeId server = rt_->AddNode("server");
    const NodeId client = rt_->AddNode("client");
    rt_->StartNameService(server);
    core::Context& sctx = rt_->CreateContext(server, "server");
    core::Context& cctx = rt_->CreateContext(client, "client");
    Result<services::CounterExport> exported =
        services::ExportCounterService(sctx, 1);
    Require(exported.status(), "ExportCounterService");
    Require(rt_->Run(Publish(sctx, "bench/counter", exported->binding)),
            "publish");
    counter_ = AcquireOrDie<services::ICounter>(*rt_, cctx, "bench/counter");
    latencies_.reserve(kRpcSmallOps);
    Drive(kRpcSmallWarmOps, false);
  }

  void Run() override { Drive(kRpcSmallOps, true); }

  void Check() override {
    Result<std::int64_t> value = rt_->Run(counter_->Read());
    if (!value.ok()) return Fail("final Read failed: " + value.status().ToString());
    if (*value != expected_) {
      Fail("final Read " + std::to_string(*value) + " != " +
           std::to_string(expected_) + " increments");
    }
  }

  double host_sensitivity() const override { return 1.1; }
  core::Runtime& runtime() override { return *rt_; }
  void SampleExtra(Counters&) override {}

 private:
  void Drive(std::uint64_t n, bool timed) {
    sim::Future<bool> lane = sim::Spawn(rt_->scheduler(), Lane(n, timed));
    StepUntil(rt_->scheduler(), [&] { return lane.ready(); });
  }

  sim::Co<void> Lane(std::uint64_t n, bool timed) {
    sim::Scheduler& sched = rt_->scheduler();
    for (std::uint64_t i = 0; i < n; ++i) {
      const SimTime start = sched.now();
      ledger::SetPhase(Layer::kProxy);
      Result<std::int64_t> r = co_await counter_->Increment(1);
      ledger::SetPhase(Layer::kNone);
      if (timed) {
        ops_++;
        latencies_.push_back(sched.now() - start);
      }
      if (!r.ok()) {
        if (timed) failed_++;
        continue;
      }
      ++expected_;
      if (*r != expected_) {
        Fail("Increment returned " + std::to_string(*r) + ", expected " +
             std::to_string(expected_));
      }
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<core::Runtime> rt_;
  std::shared_ptr<services::ICounter> counter_;
  std::int64_t expected_ = 0;
};

// --- kv_bulk: 64 KiB Put/Get through KvStub on a 1 Gb/s link ---

class KvBulk final : public Workload {
 public:
  explicit KvBulk(std::uint64_t seed) : seed_(seed), rng_(seed ^ 0xb01cULL) {}

  void Setup() override {
    rt_ = MakeRuntime(seed_, Link(1e9));
    const NodeId server = rt_->AddNode("server");
    const NodeId client = rt_->AddNode("client");
    rt_->StartNameService(server);
    core::Context& sctx = rt_->CreateContext(server, "server");
    core::Context& cctx = rt_->CreateContext(client, "client");
    Result<services::KvExport> exported = services::ExportKvService(sctx, 1);
    Require(exported.status(), "ExportKvService");
    Require(rt_->Run(Publish(sctx, "bench/kv", exported->binding)), "publish");
    kv_ = AcquireOrDie<services::IKeyValue>(*rt_, cctx, "bench/kv");
    for (std::size_t k = 0; k < kBulkKeys; ++k) {
      keys_.push_back("bulk-" + std::to_string(k));
    }
    for (std::size_t v = 0; v < kBulkPool; ++v) {
      Rng fill(seed_ * 1000003 + v);
      std::string value(kBulkValueBytes, '\0');
      for (char& c : value) c = static_cast<char>(fill.NextU64());
      pool_.push_back(std::move(value));
    }
    latencies_.reserve(kBulkOps);
    // Warm pass: every key gets a value, so every Get has one to compare.
    sim::Future<bool> warm = sim::Spawn(rt_->scheduler(), WarmPass());
    StepUntil(rt_->scheduler(), [&] { return warm.ready(); });
  }

  void Run() override {
    sim::Future<bool> lane = sim::Spawn(rt_->scheduler(), Lane());
    StepUntil(rt_->scheduler(), [&] { return lane.ready(); });
  }

  void Check() override {
    // Lane() compares every Get with the key's last Put as it runs; a
    // final pass re-reads every key the same way.
    for (std::size_t k = 0; k < kBulkKeys && correct(); ++k) {
      Result<std::optional<std::string>> got = rt_->Run(kv_->Get(keys_[k]));
      Verify(k, got);
    }
  }

  double host_sensitivity() const override { return 0.5; }  // a CRC loop: compute-bound
  core::Runtime& runtime() override { return *rt_; }
  void SampleExtra(Counters&) override {}

 private:
  sim::Co<void> WarmPass() {
    for (std::size_t k = 0; k < kBulkKeys; ++k) {
      std::string value = pool_[k % kBulkPool];
      Result<rpc::Void> r = co_await kv_->Put(keys_[k], std::move(value));
      Require(r.status(), "warm Put");
      last_[k] = static_cast<int>(k % kBulkPool);
    }
  }

  void Verify(std::size_t key,
              const Result<std::optional<std::string>>& got) {
    if (!got.ok() || last_[key] < 0) return;  // failures are counted, not checked
    if (!got->has_value() || **got != pool_[static_cast<std::size_t>(last_[key])]) {
      Fail("Get(" + keys_[key] + ") differs from its last Put");
    }
  }

  sim::Co<void> Lane() {
    sim::Scheduler& sched = rt_->scheduler();
    for (std::uint64_t i = 0; i < kBulkOps; ++i) {
      const std::size_t key = rng_.UniformU64(kBulkKeys);
      const SimTime start = sched.now();
      bool ok = false;
      if (i % 2 == 0) {
        const std::size_t v = rng_.UniformU64(kBulkPool);
        std::string value = pool_[v];
        writes_++;
        ledger::SetPhase(Layer::kProxy);
        Result<rpc::Void> r = co_await kv_->Put(keys_[key], std::move(value));
        ledger::SetPhase(Layer::kNone);
        ok = r.ok();
        // A failed Put may or may not have landed: stop checking the key.
        last_[key] = ok ? static_cast<int>(v) : -1;
      } else {
        ledger::SetPhase(Layer::kProxy);
        Result<std::optional<std::string>> r = co_await kv_->Get(keys_[key]);
        ledger::SetPhase(Layer::kNone);
        ok = r.ok();
        Verify(key, r);
      }
      ops_++;
      latencies_.push_back(sched.now() - start);
      if (!ok) failed_++;
    }
  }

  std::uint64_t seed_;
  Rng rng_;
  std::unique_ptr<core::Runtime> rt_;
  std::shared_ptr<services::IKeyValue> kv_;
  std::vector<std::string> keys_;
  std::vector<std::string> pool_;
  int last_[kBulkKeys] = {};
};

// --- kv_sharded_open: open-loop Poisson arrivals at the protocol-5 router ---

class KvShardedOpen final : public Workload {
 public:
  explicit KvShardedOpen(std::uint64_t seed)
      : seed_(seed),
        rng_(SplitMix64(seed ^ 0x09e37779b97f4a7cULL).Next()),
        zipf_(kOpenKeys, 1.1, SplitMix64(seed ^ 0x21edd5a1ULL).Next()) {}

  void Setup() override {
    rt_ = MakeRuntime(seed_, Link(10e6));
    rt_->StartNameService(rt_->AddNode("ns"));
    core::Context& map_ctx = rt_->CreateContext(rt_->AddNode("map"), "map");
    core::Context& cctx = rt_->CreateContext(rt_->AddNode("client"), "client");
    std::vector<std::vector<core::Context*>> groups;
    for (int g = 0; g < 2; ++g) {
      std::vector<core::Context*> replicas;
      for (int r = 0; r < 3; ++r) {
        const std::string label =
            "g" + std::to_string(g) + "-r" + std::to_string(r);
        replicas.push_back(&rt_->CreateContext(rt_->AddNode(label), label));
        // Admission on, with room well above the offered load.
        replicas.back()->server().set_admission(64, 256);
        if (r > 0) backups_.push_back(replicas.back());
      }
      groups.push_back(std::move(replicas));
    }
    services::ShardedKvParams params;
    params.name = "bench/kv";
    params.num_shards = 8;
    Result<services::ShardedKvExport> exported = rt_->Run(
        services::ExportShardedKv(map_ctx, std::move(groups), std::move(params)));
    Require(exported.status(), "ExportShardedKv");
    skv_ = std::move(*exported);
    // Let every group primary's lease publish its group name.
    rt_->scheduler().RunFor(Milliseconds(40));
    kv_ = AcquireOrDie<services::IKeyValue>(*rt_, cctx, "bench/kv");
    router_ = dynamic_cast<services::KvShardRouterProxy*>(kv_.get());
    for (std::uint32_t k = 0; k < kOpenKeys; ++k) {
      keys_.push_back("ov" + std::to_string(k));
    }
    const auto expected = static_cast<std::size_t>(
        kOpenRatePerSec * static_cast<double>(kOpenWindow) / 1e9 * 1.2);
    latencies_.reserve(expected);
    write_log_.reserve(expected);
    sim::Future<bool> warm = sim::Spawn(rt_->scheduler(), WarmPass());
    StepUntil(rt_->scheduler(), [&] { return warm.ready(); });
  }

  void Run() override {
    sim::Scheduler& sched = rt_->scheduler();
    sim::Future<bool> generator = sim::Spawn(sched, Generate());
    StepUntil(sched, [&] { return generator.ready() && in_flight_ == 0; });
  }

  void Check() override {
    Accepted accepted(kOpenKeys);
    for (std::uint32_t k = 0; k < kOpenKeys; ++k) accepted[k].insert("w");
    for (const auto& [key, n] : write_log_) {
      accepted[key].insert(std::to_string(n));
    }
    for (std::uint32_t k = 0; k < kOpenKeys && correct(); ++k) {
      Result<std::optional<std::string>> got = rt_->Run(kv_->Get(keys_[k]));
      if (!got.ok()) return Fail("read-back of " + keys_[k] + " failed");
      if (!got->has_value() || !accepted[k].contains(**got)) {
        Fail("read-back of " + keys_[k] + " returned a value never written to it");
      }
    }
  }

  double host_sensitivity() const override { return 1.1; }
  core::Runtime& runtime() override { return *rt_; }

  void SampleExtra(Counters& c) override {
    for (core::Context* ctx : backups_) {
      c.backup_requests += ctx->server().stats().requests_received;
    }
    if (router_ != nullptr) c.route_retries = router_->wrong_shard_retries();
  }

 private:
  sim::Co<void> WarmPass() {
    for (std::uint32_t k = 0; k < kOpenKeys; ++k) {
      Result<rpc::Void> r = co_await kv_->Put(keys_[k], "w");
      Require(r.status(), "warm Put");
    }
  }

  /// Poisson arrivals, independent of completions: each arrival is its
  /// own operation, timed from the instant it was due.
  sim::Co<void> Generate() {
    sim::Scheduler& sched = rt_->scheduler();
    const SimTime end = sched.now() + kOpenWindow;
    const double mean_gap_ns = 1e9 / kOpenRatePerSec;
    std::uint64_t arrival = 0;
    while (sched.now() < end) {
      const bool write = rng_.UniformU64(100) < kOpenWritePercent;
      const auto key = static_cast<std::uint32_t>(zipf_.Next());
      (void)sim::Spawn(sched, Op(key, write, arrival++));
      ledger::SetPhase(Layer::kNone);
      const auto gap = static_cast<SimDuration>(rng_.Exponential(mean_gap_ns));
      co_await sim::SleepFor(sched, std::max<SimDuration>(gap, 1));
    }
  }

  sim::Co<void> Op(std::uint32_t key, bool write, std::uint64_t arrival) {
    sim::Scheduler& sched = rt_->scheduler();
    const SimTime start = sched.now();
    in_flight_++;
    bool ok = false;
    if (write) {
      writes_++;
      write_log_.emplace_back(key, arrival);
      std::string value = std::to_string(arrival);
      ledger::SetPhase(Layer::kProxy);
      Result<rpc::Void> r = co_await kv_->Put(keys_[key], std::move(value));
      ledger::SetPhase(Layer::kNone);
      ok = r.ok();
    } else {
      ledger::SetPhase(Layer::kProxy);
      Result<std::optional<std::string>> r = co_await kv_->Get(keys_[key]);
      ledger::SetPhase(Layer::kNone);
      ok = r.ok();
    }
    in_flight_--;
    ops_++;
    latencies_.push_back(sched.now() - start);
    if (!ok) failed_++;
  }

  std::uint64_t seed_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::unique_ptr<core::Runtime> rt_;
  services::ShardedKvExport skv_;  // holds the replicas and the map service
  std::vector<core::Context*> backups_;
  std::shared_ptr<services::IKeyValue> kv_;
  services::KvShardRouterProxy* router_ = nullptr;
  std::vector<std::string> keys_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> write_log_;
  std::uint64_t in_flight_ = 0;
};

// --- kv_cached_zipf: four write-back caching proxies over one KV ---

class KvCachedZipf final : public Workload {
 public:
  explicit KvCachedZipf(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    rt_ = MakeRuntime(seed_, Link(10e6));
    const NodeId server = rt_->AddNode("server");
    rt_->StartNameService(server);
    core::Context& sctx = rt_->CreateContext(server, "server");
    Result<services::KvExport> exported = services::ExportKvService(sctx, 3);
    Require(exported.status(), "ExportKvService");
    impl_ = exported->impl;
    binding_ = exported->binding;
    Require(rt_->Run(Publish(sctx, "bench/kvc", binding_)), "publish");
    for (std::uint32_t k = 0; k < kCachedKeys; ++k) {
      keys_.push_back("z" + std::to_string(k));
      Result<rpc::Void> r = rt_->Run(impl_->Put(keys_.back(), "w"));
      Require(r.status(), "preload Put");
    }
    for (std::uint32_t c = 0; c < kCachedClients; ++c) {
      const std::string label = "client-" + std::to_string(c);
      core::Context& ctx = rt_->CreateContext(rt_->AddNode(label), label);
      clients_.push_back(AcquireOrDie<services::IKeyValue>(*rt_, ctx, "bench/kvc"));
      auto* wb = dynamic_cast<services::KvWriteBackProxy*>(clients_.back().get());
      if (wb == nullptr) Require(InternalError("not a write-back proxy"), "Acquire");
      write_back_.push_back(wb);
      rngs_.emplace_back(SplitMix64(seed_ ^ (0xcac4e000ULL + c)).Next());
      zipfs_.emplace_back(kCachedKeys, 0.99,
                          SplitMix64(seed_ ^ (0x21edd5a1ULL + c)).Next());
    }
    latencies_.reserve(kCachedOps);
    write_log_.reserve(kCachedOps / 5);
    // Warm pass: every client reads every key once, filling its cache
    // and subscribing it to invalidations.
    RunLanes(0);
  }

  void Run() override {
    RunLanes(kCachedOps / kCachedClients);
    std::vector<sim::Future<Status>> flushes;
    for (services::KvWriteBackProxy* wb : write_back_) {
      flushes.push_back(sim::Spawn(rt_->scheduler(), wb->FlushWrites()));
    }
    StepUntil(rt_->scheduler(), [&] {
      return std::all_of(flushes.begin(), flushes.end(),
                         [](const sim::Future<Status>& f) { return f.ready(); });
    });
    for (sim::Future<Status>& f : flushes) {
      const Status flushed = f.take();
      if (!flushed.ok()) Fail("FlushWrites failed: " + flushed.ToString());
    }
  }

  void Check() override {
    Accepted accepted(kCachedKeys);
    for (std::uint32_t k = 0; k < kCachedKeys; ++k) accepted[k].insert("w");
    for (const auto& [key, value] : write_log_) accepted[key].insert(value);
    // A fresh protocol-1 stub in a context of its own reads every key.
    core::Context& ctx = rt_->CreateContext(rt_->AddNode("checker"), "checker");
    core::ServiceBinding plain = binding_;
    plain.protocol = 1;
    services::KvStub stub(ctx, plain);
    for (std::uint32_t k = 0; k < kCachedKeys && correct(); ++k) {
      Result<std::optional<std::string>> got = rt_->Run(stub.Get(keys_[k]));
      if (!got.ok()) return Fail("read-back of " + keys_[k] + " failed");
      if (!got->has_value() || !accepted[k].contains(**got)) {
        Fail("read-back of " + keys_[k] + " returned a value never written to it");
      }
    }
  }

  double host_sensitivity() const override { return 1.5; }  // four clients' caches: memory-bound
  core::Runtime& runtime() override { return *rt_; }

  void SampleExtra(Counters& c) override {
    for (services::KvWriteBackProxy* wb : write_back_) {
      c.cache_hits += wb->cache_stats().hits.value();
      c.cache_misses += wb->cache_stats().misses.value();
      c.batch_items += wb->batch_stats().items.value();
      c.batches += wb->batch_stats().batches.value();
    }
    c.invalidations_sent = impl_->invalidations_sent();
  }

 private:
  /// `ops_per_lane` == 0 is the warm pass.
  void RunLanes(std::uint64_t ops_per_lane) {
    std::vector<sim::Future<bool>> lanes;
    for (std::uint32_t c = 0; c < kCachedClients; ++c) {
      lanes.push_back(sim::Spawn(rt_->scheduler(), Lane(c, ops_per_lane)));
    }
    StepUntil(rt_->scheduler(), [&] {
      return std::all_of(lanes.begin(), lanes.end(),
                         [](const sim::Future<bool>& f) { return f.ready(); });
    });
  }

  sim::Co<void> Lane(std::uint32_t client, std::uint64_t ops) {
    sim::Scheduler& sched = rt_->scheduler();
    services::IKeyValue& kv = *clients_[client];
    if (ops == 0) {
      for (std::uint32_t k = 0; k < kCachedKeys; ++k) {
        Result<std::optional<std::string>> r = co_await kv.Get(keys_[k]);
        Require(r.status(), "warm Get");
      }
      co_return;
    }
    Rng& rng = rngs_[client];
    ZipfGenerator& zipf = zipfs_[client];
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto key = static_cast<std::uint32_t>(zipf.Next());
      const bool write = rng.UniformU64(100) < kCachedWritePercent;
      const SimTime start = sched.now();
      bool ok = false;
      if (write) {
        writes_++;
        std::string value = std::to_string(client) + "." + std::to_string(i);
        write_log_.emplace_back(key, value);
        ledger::SetPhase(Layer::kCache);
        Result<rpc::Void> r = co_await kv.Put(keys_[key], std::move(value));
        ledger::SetPhase(Layer::kNone);
        ok = r.ok();
      } else {
        ledger::SetPhase(Layer::kCache);
        Result<std::optional<std::string>> r = co_await kv.Get(keys_[key]);
        ledger::SetPhase(Layer::kNone);
        ok = r.ok();
      }
      ops_++;
      latencies_.push_back(sched.now() - start);
      if (!ok) failed_++;
      // Think time: cache hits and buffered writes take no virtual time,
      // so without it the clients would never let the clock (and with
      // it flushes and invalidations) move.
      co_await sim::SleepFor(sched, 1 + rng.UniformU64(2 * kCachedThinkNs));
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<core::Runtime> rt_;
  std::shared_ptr<services::KvService> impl_;
  core::ServiceBinding binding_;
  std::vector<std::string> keys_;
  std::vector<std::shared_ptr<services::IKeyValue>> clients_;
  std::vector<services::KvWriteBackProxy*> write_back_;
  std::vector<Rng> rngs_;
  std::vector<ZipfGenerator> zipfs_;
  std::vector<std::pair<std::uint32_t, std::string>> write_log_;
};

}  // namespace

Counters Counters::operator-(const Counters& b) const {
  Counters d = *this;
  d.events -= b.events;
  d.datagrams -= b.datagrams;
  d.wire_bytes -= b.wire_bytes;
  d.delivered -= b.delivered;
  d.coalesced -= b.coalesced;
  d.rejected_datagrams -= b.rejected_datagrams;
  d.server_requests -= b.server_requests;
  d.server_duplicates -= b.server_duplicates;
  d.server_queued -= b.server_queued;
  d.server_rejected -= b.server_rejected;
  d.proxy_calls -= b.proxy_calls;
  d.proxy_rebinds -= b.proxy_rebinds;
  d.proxy_pushbacks -= b.proxy_pushbacks;
  d.rpc_calls -= b.rpc_calls;
  d.rpc_retransmits -= b.rpc_retransmits;
  d.rpc_failed -= b.rpc_failed;
  d.bytes_copied -= b.bytes_copied;
  d.failovers -= b.failovers;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.invalidations_sent -= b.invalidations_sent;
  d.batch_items -= b.batch_items;
  d.batches -= b.batches;
  d.backup_requests -= b.backup_requests;
  d.route_retries -= b.route_retries;
  return d;
}

Counters Workload::Sample() {
  core::Runtime& rt = runtime();
  Counters c;
  c.events = rt.scheduler().events_run();
  const sim::NetStats& net = rt.network().stats();
  c.datagrams = net.messages_sent;
  c.wire_bytes = net.bytes_sent;
  c.delivered = net.messages_delivered;
  c.coalesced = net.messages_coalesced;
  for (std::uint32_t n = 0; n < rt.network().node_count(); ++n) {
    c.rejected_datagrams += rt.stack(NodeId(n)).rejected_datagrams();
  }
  for (const auto& ctx : rt.contexts()) {
    const rpc::ServerStats& s = ctx->server().stats();
    c.server_requests += s.requests_received;
    c.server_duplicates += s.duplicate_suppressed;
    c.server_queued += s.admission_queued;
    c.server_rejected += s.admission_rejected;
  }
  for (const obs::MetricSnapshot& m : rt.metrics().Snapshot()) {
    if (m.name == "core.proxy.calls") c.proxy_calls = m.counter;
    if (m.name == "core.proxy.rebinds") c.proxy_rebinds = m.counter;
    if (m.name == "core.proxy.pushback_backoffs") c.proxy_pushbacks = m.counter;
    if (m.name == "rpc.client.calls_started") c.rpc_calls = m.counter;
    if (m.name == "rpc.client.retransmissions") c.rpc_retransmits = m.counter;
    if (m.name == "rpc.client.calls_failed") c.rpc_failed = m.counter;
    if (m.name == "svc.rkv.proxy.failovers") c.failovers = m.counter;
  }
  c.bytes_copied = serde::WireCopyCounter().value();
  SampleExtra(c);
  return c;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "rpc_small", "kv_bulk", "kv_sharded_open", "kv_cached_zipf"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "rpc_small") return std::make_unique<RpcSmall>(seed);
  if (name == "kv_bulk") return std::make_unique<KvBulk>(seed);
  if (name == "kv_sharded_open") return std::make_unique<KvShardedOpen>(seed);
  if (name == "kv_cached_zipf") return std::make_unique<KvCachedZipf>(seed);
  return nullptr;
}

}  // namespace hostbench
