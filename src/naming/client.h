// Name service clients.
//
// NameClient is the plain stub. CachingNameClient is the same interface
// *as a proxy*: it keeps a TTL'd local cache of lookups, illustrating the
// proxy principle applied to the name service itself (experiment F4
// measures the difference).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "naming/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/stub.h"

namespace proxy::naming {

/// The plain stub. Register, Lookup, Unregister, List and RegisterService
/// are forwards: each sends its call when invoked and returns the typed
/// reply, which the caller awaits.
class NameClient : public rpc::StubBase {
 public:
  NameClient(rpc::RpcClient& client, net::Address name_server)
      : rpc::StubBase(client, name_server, kNameServiceObject) {}

  rpc::TypedReply<rpc::Void> Register(std::string name, NameRecord record,
                                      bool overwrite = false);
  rpc::TypedReply<NameRecord> Lookup(std::string name);
  rpc::TypedReply<rpc::Void> Unregister(std::string name);
  rpc::TypedReply<std::vector<std::pair<std::string, NameRecord>>> List(
      std::string prefix);

  /// Referrals one path resolution follows at most.
  static constexpr int kMaxReferralHops = 16;

  /// Resolves a '/'-separated path, following directory referrals across
  /// federated name servers. At most kMaxReferralHops referrals. When
  /// `trace` is active, every lookup of the walk carries it — nested
  /// re-resolution shows up as children in the caller's span tree.
  sim::Co<Result<core::ServiceBinding>> ResolvePath(
      std::string path, obs::TraceContext trace = {});

  /// Convenience: registers a service-binding leaf record.
  rpc::TypedReply<rpc::Void> RegisterService(std::string name,
                                             core::ServiceBinding binding,
                                             std::uint64_t lease_ns = 0);
};

/// Caching proxy over the name service. Positive lookups are cached for
/// kTtl; entries are dropped eagerly when a consumer reports a stale
/// binding (Invalidate).
class CachingNameClient {
 public:
  /// How long a positive lookup stays cached.
  static constexpr SimDuration kTtl = Seconds(10);

  CachingNameClient(rpc::RpcClient& client, net::Address name_server)
      : inner_(client, name_server), scheduler_(&client.scheduler()) {}

  sim::Co<Result<core::ServiceBinding>> ResolvePath(
      std::string path, obs::TraceContext trace = {});

  /// Drops a cached path (on OBJECT_MOVED / UNAVAILABLE, callers should
  /// invalidate and re-resolve).
  void Invalidate(const std::string& path) { cache_.erase(path); }

  void Clear() { cache_.clear(); }

  /// Attaches the cache tallies through `scope` as naming.cache.*.
  void BindMetrics(obs::MetricScope& scope) {
    scope.Attach("naming.cache.hits", &hits_);
    scope.Attach("naming.cache.misses", &misses_);
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  [[nodiscard]] NameClient& inner() noexcept { return inner_; }

 private:
  struct CacheEntry {
    core::ServiceBinding binding;
    SimTime expires_at = 0;
  };

  NameClient inner_;
  sim::Scheduler* scheduler_;
  std::unordered_map<std::string, CacheEntry> cache_;
  obs::Counter hits_;
  obs::Counter misses_;
};

}  // namespace proxy::naming
