// Key-value store service.
//
// The workhorse service of the experiment suite. One abstract interface
// (IKeyValue), one server implementation, and three *proxy protocols*
// that clients absorb transparently through Acquire<IKeyValue>():
//
//   protocol 1 — KvStub           plain RPC per operation (the baseline)
//   protocol 2 — KvCachingProxy   client-side read cache, write-through,
//                                 server-driven invalidation
//   protocol 3 — KvWriteBackProxy caching + buffered writes flushed in
//                                 batches (write-behind)
//
// Protocols 2 and 3 stay coherent through core's invalidation callbacks
// (core/coherence.h): the server notifies every subscribed sink when a
// key changes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batcher.h"
#include "core/cache.h"
#include "core/coherence.h"
#include "core/export.h"
#include "core/proxy.h"
#include "core/runtime.h"
#include "rpc/stub.h"
#include "sim/task.h"

namespace proxy::services {

/// Abstract key-value interface — all a client ever sees.
class IKeyValue {
 public:
  static constexpr std::string_view kInterfaceName = "proxy.services.KeyValue";

  virtual ~IKeyValue() = default;

  virtual sim::Co<Result<std::optional<std::string>>> Get(std::string key) = 0;
  virtual sim::Co<Result<rpc::Void>> Put(std::string key,
                                         std::string value) = 0;
  /// Returns true if the key existed.
  virtual sim::Co<Result<bool>> Del(std::string key) = 0;
  virtual sim::Co<Result<std::uint64_t>> Size() = 0;
  /// All keys starting with `prefix`, sorted ascending ("" = every key).
  /// A sharded implementation fans this out across every owning group
  /// and merges; single-store implementations answer locally.
  virtual sim::Co<Result<std::vector<std::string>>> List(
      std::string prefix) = 0;
};

// --- wire protocol ---

namespace kvwire {

struct GetRequest {
  std::string key;
  PROXY_SERDE_FIELDS(key)
};
struct PutRequest {
  std::string key;
  std::string value;
  ObjectId exclude_sink;  // writer's own sink: skipped by invalidation
  PROXY_SERDE_FIELDS(key, value, exclude_sink)
};
struct DelRequest {
  std::string key;
  ObjectId exclude_sink;
  PROXY_SERDE_FIELDS(key, exclude_sink)
};
struct BatchPutRequest {
  std::vector<std::pair<std::string, std::string>> entries;
  ObjectId exclude_sink;
  PROXY_SERDE_FIELDS(entries, exclude_sink)
};
struct ListRequest {
  std::string prefix;
  PROXY_SERDE_FIELDS(prefix)
};
struct InvalidateMessage {
  std::vector<std::string> keys;
  PROXY_SERDE_FIELDS(keys)
};

inline constexpr rpc::Method<GetRequest, std::optional<std::string>> kGet{1};
inline constexpr rpc::Method<PutRequest, rpc::Void> kPut{2};
/// Answers whether the key existed.
inline constexpr rpc::Method<DelRequest, bool> kDel{3};
inline constexpr rpc::Method<rpc::Void, std::uint64_t> kSize{4};
inline constexpr core::SubscribeMethod kSubscribe{5};
inline constexpr rpc::Method<BatchPutRequest, rpc::Void> kBatchPut{7};
/// Answers the keys under the prefix, sorted ascending.
inline constexpr rpc::Method<ListRequest, std::vector<std::string>> kList{8};

/// The method on a subscriber's sink object.
inline constexpr rpc::Method<InvalidateMessage, rpc::Void> kInvalidate{1};

}  // namespace kvwire

// --- server ---

/// Server implementation. Also usable directly (same-context binding).
class KvService : public IKeyValue, public core::IMigratable {
 public:
  explicit KvService(core::Context& context) : context_(&context) {}

  // IKeyValue, for same-context callers.
  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override {
    co_return Lookup(key);
  }
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override {
    Store(std::move(key), std::move(value));
    co_return rpc::Void{};
  }
  sim::Co<Result<bool>> Del(std::string key) override {
    co_return Erase(std::move(key));
  }
  sim::Co<Result<std::uint64_t>> Size() override { co_return key_count(); }
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override {
    co_return Keys(prefix);
  }

  // The synchronous core. An in-memory map neither suspends nor fails, so
  // the coroutine methods above only wrap these; the skeleton and
  // KvReplica, which owns its store, call them directly. A mutation
  // skips the invalidation of sink `exclude`: the writer's proxy already
  // reflects its own write.
  [[nodiscard]] std::optional<std::string> Lookup(const std::string& key) const;
  void Store(std::string key, std::string value, ObjectId exclude = ObjectId{});
  /// Returns true if the key existed.
  bool Erase(std::string key, ObjectId exclude = ObjectId{});
  /// Applies many puts as one unit (the write-back flush path).
  void StoreAll(std::vector<std::pair<std::string, std::string>> entries,
                ObjectId exclude = ObjectId{});
  /// Keys starting with `prefix`, sorted ascending.
  [[nodiscard]] std::vector<std::string> Keys(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t key_count() const noexcept {
    return data_.size();
  }

  [[nodiscard]] core::SubscriberList& subscribers() noexcept {
    return subscribers_;
  }

  // IMigratable: data plus subscriber list travel together.
  [[nodiscard]] Bytes SnapshotState() const override;
  Status RestoreState(BytesView state);

  [[nodiscard]] std::uint64_t invalidations_sent() const noexcept {
    return invalidations_sent_;
  }

 private:
  /// Invalidates `keys` at every subscriber but the writer's sink.
  void NotifyInvalidate(std::vector<std::string> keys, ObjectId exclude);

  core::Context* context_;
  std::map<std::string, std::string> data_;
  core::SubscriberList subscribers_;
  std::uint64_t invalidations_sent_ = 0;
};

/// Builds the skeleton (dispatch table) for a KvService.
std::shared_ptr<rpc::Dispatch> MakeKvDispatch(std::shared_ptr<KvService> impl);

/// Creates, exports and optionally publishes a KV service in `context`,
/// advertising proxy protocol `protocol` (1, 2 or 3).
struct KvExport {
  std::shared_ptr<KvService> impl;
  core::ServiceBinding binding;
};
Result<KvExport> ExportKvService(core::Context& context,
                                 std::uint32_t protocol = 1);

// --- proxies ---

/// Protocol 1: the classic stub. Marshal, send, unmarshal — nothing else.
class KvStub : public IKeyValue, public core::ProxyBase {
 public:
  KvStub(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {}

  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override;
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override;
};

/// Tuning for the caching proxies.
struct KvCacheParams {
  std::size_t capacity = 1024;
};

/// Protocol 2: read cache + write-through + server invalidation.
///
/// Graceful degradation: when the server sheds a Get (RESOURCE_EXHAUSTED
/// after the proxy's bounded pushback retries), the proxy answers from a
/// last-observed-value cache instead of failing. Stale by construction —
/// its entries deliberately survive invalidation — so it trades freshness
/// for availability, exactly and only under overload.
class KvCachingProxy : public IKeyValue, public core::ProxyBase {
 public:
  static constexpr std::size_t kStaleCapacity = 1024;

  KvCachingProxy(core::Context& context, core::ServiceBinding binding,
                 KvCacheParams params = {});

  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override;
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override;

  [[nodiscard]] const core::CacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }

  /// Gets answered from the stale cache because the server shed the call.
  [[nodiscard]] std::uint64_t stale_served() const noexcept {
    return stale_served_.value();
  }

 protected:
  // Cached values: present-with-value or known-absent (negative entry).
  core::LruCache<std::string, std::optional<std::string>> cache_;
  // Last value ever observed per key. NOT kept coherent: invalidations
  // skip it on purpose, so it can answer when the server sheds load.
  core::LruCache<std::string, std::optional<std::string>> stale_;
  obs::Counter stale_served_;
  core::InvalidationSink sink_;

 private:
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// Protocol 3: caching + write-behind. Puts accumulate locally and flush
/// as BatchPut; reads of dirty keys are served from the buffer. A batch
/// that fails takes its writes out of the buffer and the caches, so the
/// next read asks the server.
class KvWriteBackProxy : public KvCachingProxy {
 public:
  /// A batch flushes at kMaxBatch puts or kFlushWindow after its first.
  static constexpr std::size_t kMaxBatch = 16;
  static constexpr SimDuration kFlushWindow = Milliseconds(5);

  KvWriteBackProxy(core::Context& context, core::ServiceBinding binding);

  sim::Co<Result<std::optional<std::string>>> Get(std::string key) override;
  sim::Co<Result<rpc::Void>> Put(std::string key, std::string value) override;
  sim::Co<Result<bool>> Del(std::string key) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<std::vector<std::string>>> List(std::string prefix) override;

  /// The write-behind barrier: returns once every write buffered so far
  /// has landed, or with the first batch failure. Del, Size and List
  /// run behind it.
  sim::Co<Status> FlushWrites() { return batcher_.Drain(); }

  [[nodiscard]] const core::BatcherStats& batch_stats() const noexcept {
    return batcher_.stats();
  }

 private:
  sim::Co<Status> FlushBatch(
      std::vector<std::pair<std::string, std::string>> batch);

  std::map<std::string, std::string> dirty_;  // newest value per key
  core::Batcher<std::pair<std::string, std::string>> batcher_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

}  // namespace proxy::services
