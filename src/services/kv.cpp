#include "services/kv.h"

#include <utility>

#include "common/log.h"
#include "serde/reader.h"
#include "serde/traits.h"
#include "serde/writer.h"

namespace proxy::services {

using kvwire::BatchPutRequest;
using kvwire::DelRequest;
using kvwire::GetRequest;
using kvwire::InvalidateMessage;
using kvwire::ListRequest;
using kvwire::PutRequest;

// --- server ---

std::optional<std::string> KvService::Lookup(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void KvService::Store(std::string key, std::string value, ObjectId exclude) {
  data_[key] = std::move(value);
  NotifyInvalidate({std::move(key)}, exclude);
}

bool KvService::Erase(std::string key, ObjectId exclude) {
  const bool existed = data_.erase(key) > 0;
  if (existed) NotifyInvalidate({std::move(key)}, exclude);
  return existed;
}

void KvService::StoreAll(
    std::vector<std::pair<std::string, std::string>> entries,
    ObjectId exclude) {
  std::vector<std::string> changed;
  changed.reserve(entries.size());
  for (auto& [key, value] : entries) {
    data_[key] = std::move(value);
    changed.push_back(key);
  }
  NotifyInvalidate(std::move(changed), exclude);
}

std::vector<std::string> KvService::Keys(const std::string& prefix) const {
  std::vector<std::string> keys;
  // data_ is an ordered map, so the range scan yields sorted keys.
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

void KvService::NotifyInvalidate(std::vector<std::string> keys,
                                 ObjectId exclude) {
  if (keys.empty()) return;
  invalidations_sent_ += subscribers_.Notify(
      context_->client(), kvwire::kInvalidate,
      InvalidateMessage{std::move(keys)}, exclude);
}

Bytes KvService::SnapshotState() const {
  serde::Writer w;
  serde::Serialize(w, data_);
  serde::Serialize(w, subscribers_);
  return w.Take();
}

Status KvService::RestoreState(BytesView state) {
  serde::Reader r(state);
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, data_));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, subscribers_));
  return r.ExpectEnd();
}

std::shared_ptr<rpc::Dispatch> MakeKvDispatch(
    std::shared_ptr<KvService> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, kvwire::kGet, [impl](GetRequest req) {
    return impl->Lookup(req.key);
  });
  rpc::RegisterTyped(*dispatch, kvwire::kPut, [impl](PutRequest req) {
    impl->Store(std::move(req.key), std::move(req.value), req.exclude_sink);
    return rpc::Void{};
  });
  rpc::RegisterTyped(*dispatch, kvwire::kDel, [impl](DelRequest req) {
    return impl->Erase(std::move(req.key), req.exclude_sink);
  });
  rpc::RegisterTyped(*dispatch, kvwire::kSize,
                     [impl](rpc::Void) { return impl->key_count(); });
  core::RegisterSubscribe(*dispatch, kvwire::kSubscribe, impl);
  rpc::RegisterTyped(*dispatch, kvwire::kBatchPut, [impl](BatchPutRequest req) {
    impl->StoreAll(std::move(req.entries), req.exclude_sink);
    return rpc::Void{};
  });
  rpc::RegisterTyped(*dispatch, kvwire::kList, [impl](ListRequest req) {
    return impl->Keys(req.prefix);
  });
  return dispatch;
}

Result<KvExport> ExportKvService(core::Context& context,
                                 std::uint32_t protocol) {
  auto impl = std::make_shared<KvService>(context);
  auto dispatch = MakeKvDispatch(impl);
  PROXY_ASSIGN_OR_RETURN(
      auto exported,
      core::ServiceExport<IKeyValue>::Create(context, impl, dispatch, protocol,
                                             impl));
  return KvExport{std::move(impl), exported.binding()};
}

// --- protocol 1: stub ---

sim::Co<Result<std::optional<std::string>>> KvStub::Get(std::string key) {
  return Call(kvwire::kGet, GetRequest{std::move(key)});
}

sim::Co<Result<rpc::Void>> KvStub::Put(std::string key, std::string value) {
  return Call(kvwire::kPut,
              PutRequest{std::move(key), std::move(value), ObjectId{}});
}

sim::Co<Result<bool>> KvStub::Del(std::string key) {
  return Call(kvwire::kDel, DelRequest{std::move(key), ObjectId{}});
}

sim::Co<Result<std::uint64_t>> KvStub::Size() {
  return Call(kvwire::kSize, rpc::Void{});
}

sim::Co<Result<std::vector<std::string>>> KvStub::List(std::string prefix) {
  return Call(kvwire::kList, ListRequest{std::move(prefix)});
}

// --- protocol 2: caching proxy ---

KvCachingProxy::KvCachingProxy(core::Context& context,
                               core::ServiceBinding binding,
                               KvCacheParams params)
    : core::ProxyBase(context, std::move(binding)),
      cache_(params.capacity),
      stale_(kStaleCapacity),
      sink_(*this, kvwire::kSubscribe),
      metric_scope_(context.metrics()) {
  sink_.Handle(kvwire::kInvalidate, [this](const InvalidateMessage& msg) {
    for (const auto& key : msg.keys) cache_.Invalidate(key);
  });
  cache_.BindMetrics(metric_scope_, "svc.kv.cache");
  metric_scope_.Attach("svc.kv.cache.stale_served", &stale_served_);
}

sim::Co<Result<std::optional<std::string>>> KvCachingProxy::Get(
    std::string key) {
  if (sink_.needs_subscribe()) {
    const Status sub = co_await sink_.Subscribe();
    if (!sub.ok()) co_return sub;
  }
  if (auto cached = cache_.Get(key)) co_return std::move(*cached);

  GetRequest req{key};
  Result<std::optional<std::string>> resp =
      co_await Call(kvwire::kGet, std::move(req));
  if (!resp.ok()) {
    // Graceful degradation: the server shed this read (and the proxy's
    // bounded pushback retries did not get through). Serve the last value
    // we ever observed rather than fail — stale beats unavailable, and
    // only the overload path pays the staleness.
    if (resp.status().code() == StatusCode::kResourceExhausted) {
      if (auto stale = stale_.Get(key)) {
        stale_served_++;
        co_return std::move(*stale);
      }
    }
    co_return resp.status();
  }
  cache_.Put(key, *resp);  // negative results are cached too
  stale_.Put(key, *resp);
  co_return std::move(resp);
}

sim::Co<Result<rpc::Void>> KvCachingProxy::Put(std::string key,
                                               std::string value) {
  if (sink_.needs_subscribe()) {
    const Status sub = co_await sink_.Subscribe();
    if (!sub.ok()) co_return sub;
  }
  PutRequest req{key, value, sink_.id()};
  Result<rpc::Void> resp = co_await Call(kvwire::kPut, std::move(req));
  if (!resp.ok()) co_return resp.status();
  // Write-through: the cache reflects the acknowledged write immediately.
  stale_.Put(key, std::optional<std::string>(value));
  cache_.Put(std::move(key), std::optional<std::string>(std::move(value)));
  co_return rpc::Void{};
}

sim::Co<Result<bool>> KvCachingProxy::Del(std::string key) {
  DelRequest req{key, sink_.id()};
  Result<bool> existed = co_await Call(kvwire::kDel, std::move(req));
  if (!existed.ok()) co_return existed;
  stale_.Put(key, std::optional<std::string>{});
  cache_.Put(std::move(key), std::optional<std::string>{});
  co_return existed;
}

sim::Co<Result<std::uint64_t>> KvCachingProxy::Size() {
  return Call(kvwire::kSize, rpc::Void{});
}

sim::Co<Result<std::vector<std::string>>> KvCachingProxy::List(
    std::string prefix) {
  // Listings are not cached: the invalidation protocol is per-key, so a
  // cached listing could silently miss keys written by other clients.
  return Call(kvwire::kList, ListRequest{std::move(prefix)});
}

// --- protocol 3: write-back proxy ---

KvWriteBackProxy::KvWriteBackProxy(core::Context& context,
                                   core::ServiceBinding binding)
    : KvCachingProxy(context, std::move(binding)),
      batcher_(
          context.scheduler(),
          [this](std::vector<std::pair<std::string, std::string>> batch) {
            return FlushBatch(std::move(batch));
          },
          kMaxBatch, kFlushWindow),
      metric_scope_(context.metrics()) {
  batcher_.BindMetrics(metric_scope_, "svc.kv.writeback");
}

sim::Co<Status> KvWriteBackProxy::FlushBatch(
    std::vector<std::pair<std::string, std::string>> batch) {
  // Later puts to the same key may have superseded buffered values; ship
  // the freshest value per key, preserving first-write order.
  for (auto& [key, value] : batch) {
    const auto it = dirty_.find(key);
    if (it != dirty_.end()) value = it->second;
  }
  BatchPutRequest req{batch, sink_.id()};
  Result<rpc::Void> landed = co_await Call(kvwire::kBatchPut, std::move(req));
  // A key is settled unless a Put re-dirtied it while the flush was in
  // flight: compare the buffered value against what we shipped. A
  // settled key whose batch failed is forgotten: the server never stored
  // it, so neither the buffer nor the caches may serve it.
  for (const auto& [key, shipped] : batch) {
    const auto it = dirty_.find(key);
    if (it == dirty_.end() || it->second != shipped) continue;
    dirty_.erase(it);
    if (!landed.ok()) {
      cache_.Invalidate(key);
      stale_.Invalidate(key);
    }
  }
  co_return landed.status();
}

namespace {
/// A dirty key's read: the newest buffered value.
sim::Co<Result<std::optional<std::string>>> Buffered(std::string value) {
  co_return std::optional<std::string>(std::move(value));
}
}  // namespace

sim::Co<Result<std::optional<std::string>>> KvWriteBackProxy::Get(
    std::string key) {
  // Read-your-writes: dirty keys are served from the buffer.
  if (const auto it = dirty_.find(key); it != dirty_.end()) {
    return Buffered(it->second);
  }
  return KvCachingProxy::Get(std::move(key));
}

sim::Co<Result<rpc::Void>> KvWriteBackProxy::Put(std::string key,
                                                 std::string value) {
  dirty_[key] = value;
  // Keep the read cache coherent ourselves: the server will skip our
  // sink when this write's invalidation fans out.
  cache_.Put(key, std::optional<std::string>(value));
  stale_.Put(key, std::optional<std::string>(value));
  // Write-behind: acknowledge immediately; callers needing durability
  // use FlushWrites().
  batcher_.Add(std::make_pair(std::move(key), std::move(value)));
  co_return rpc::Void{};
}

// Del is ordering-sensitive, and Size and List must count this proxy's
// own buffered writes: each runs behind the write barrier.
sim::Co<Result<bool>> KvWriteBackProxy::Del(std::string key) {
  return batcher_.After(KvCachingProxy::Del(std::move(key)));
}

sim::Co<Result<std::uint64_t>> KvWriteBackProxy::Size() {
  return batcher_.After(KvCachingProxy::Size());
}

sim::Co<Result<std::vector<std::string>>> KvWriteBackProxy::List(
    std::string prefix) {
  return batcher_.After(KvCachingProxy::List(std::move(prefix)));
}

}  // namespace proxy::services
