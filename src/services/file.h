// File service.
//
// A remote byte array with read/write/size/truncate — the service the
// 1986 literature's canonical proxy example (a caching file proxy) is
// about. Three proxy protocols behind one IFile interface:
//
//   protocol 1 — FileStub          every operation is one RPC
//   protocol 2 — FileCachingProxy  4 KiB block cache with sequential
//                                  prefetch and server-driven
//                                  range invalidation
//   protocol 3 — FileBatchProxy    caching + coalesced write-behind
//
// The protocol-swap experiment (T4) runs byte-identical client code
// against all three: only the service's advertised protocol changes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>
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

class IFile {
 public:
  static constexpr std::string_view kInterfaceName = "proxy.services.File";

  virtual ~IFile() = default;

  /// Reads up to `length` bytes at `offset` (short read at EOF).
  virtual sim::Co<Result<Bytes>> Read(std::uint64_t offset,
                                      std::uint32_t length) = 0;
  virtual sim::Co<Result<rpc::Void>> Write(std::uint64_t offset,
                                           Bytes data) = 0;
  virtual sim::Co<Result<std::uint64_t>> Size() = 0;
  virtual sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size) = 0;
};

namespace filewire {

struct ReadRequest {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  PROXY_SERDE_FIELDS(offset, length)
};
struct WriteRequest {
  std::uint64_t offset = 0;
  Bytes data;
  ObjectId exclude_sink;  // writer's own sink: skipped by invalidation
  PROXY_SERDE_FIELDS(offset, data, exclude_sink)
};
struct TruncateRequest {
  std::uint64_t size = 0;
  ObjectId exclude_sink;
  PROXY_SERDE_FIELDS(size, exclude_sink)
};
struct WriteVecRequest {
  std::vector<WriteRequest> writes;
  PROXY_SERDE_FIELDS(writes)
};
struct InvalidateRangeMessage {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;  // 0 = to end of file (truncate)
  PROXY_SERDE_FIELDS(offset, length)
};

inline constexpr rpc::Method<ReadRequest, Bytes> kRead{1};
inline constexpr rpc::Method<WriteRequest, rpc::Void> kWrite{2};
inline constexpr rpc::Method<rpc::Void, std::uint64_t> kSize{3};
inline constexpr rpc::Method<TruncateRequest, rpc::Void> kTruncate{4};
inline constexpr core::SubscribeMethod kSubscribe{5};
inline constexpr rpc::Method<WriteVecRequest, rpc::Void> kWriteVec{6};

/// The method on a subscriber's sink object.
inline constexpr rpc::Method<InvalidateRangeMessage, rpc::Void>
    kInvalidateRange{1};

}  // namespace filewire

class FileService : public IFile, public core::IMigratable {
 public:
  explicit FileService(core::Context& context) : context_(&context) {}

  // IFile, for same-context callers.
  sim::Co<Result<Bytes>> Read(std::uint64_t offset,
                              std::uint32_t length) override {
    co_return ReadAt(offset, length);
  }
  sim::Co<Result<rpc::Void>> Write(std::uint64_t offset, Bytes data) override {
    co_return WriteExcluding(offset, data, ObjectId{});
  }
  sim::Co<Result<std::uint64_t>> Size() override { co_return size(); }
  sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size) override {
    co_return TruncateExcluding(size, ObjectId{});
  }

  // The synchronous core the coroutines above and the skeleton call. A
  // mutation skips the invalidation of sink `exclude` (see kv.h).
  /// Up to `length` bytes at `offset` (short read at EOF).
  [[nodiscard]] Bytes ReadAt(std::uint64_t offset, std::uint32_t length) const;
  Result<rpc::Void> WriteExcluding(std::uint64_t offset, const Bytes& data,
                                   ObjectId exclude);
  Result<rpc::Void> TruncateExcluding(std::uint64_t size, ObjectId exclude);
  /// Applies a batch of writes; one invalidation covers them all.
  Result<rpc::Void> WriteVec(const std::vector<filewire::WriteRequest>& writes);
  [[nodiscard]] std::uint64_t size() const noexcept { return content_.size(); }

  [[nodiscard]] core::SubscriberList& subscribers() noexcept {
    return subscribers_;
  }

  [[nodiscard]] Bytes SnapshotState() const override;
  Status RestoreState(BytesView state);

  /// Test/bench helper: fills the file with `size` deterministic bytes.
  void FillPattern(std::uint64_t size, std::uint8_t seed = 7);

  static constexpr std::uint64_t kMaxFileSize = 64ULL << 20;  // 64 MiB

 private:
  void NotifyInvalidate(std::uint64_t offset, std::uint64_t length,
                        ObjectId exclude);
  Status ApplyWrite(std::uint64_t offset, const Bytes& data);

  core::Context* context_;
  Bytes content_;
  core::SubscriberList subscribers_;
};

std::shared_ptr<rpc::Dispatch> MakeFileDispatch(
    std::shared_ptr<FileService> impl);

struct FileExport {
  std::shared_ptr<FileService> impl;
  core::ServiceBinding binding;
};
Result<FileExport> ExportFileService(core::Context& context,
                                     std::uint32_t protocol = 1);

/// Protocol 1: plain stub.
class FileStub : public IFile, public core::ProxyBase {
 public:
  FileStub(core::Context& context, core::ServiceBinding binding)
      : core::ProxyBase(context, std::move(binding)) {}

  sim::Co<Result<Bytes>> Read(std::uint64_t offset,
                              std::uint32_t length) override;
  sim::Co<Result<rpc::Void>> Write(std::uint64_t offset, Bytes data) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size) override;
};

struct FileCacheParams {
  std::size_t block_size = 4096;
  std::size_t capacity_blocks = 256;
  bool prefetch_next = true;
};

/// Protocol 2: block cache + prefetch + range invalidation.
class FileCachingProxy : public IFile, public core::ProxyBase {
 public:
  FileCachingProxy(core::Context& context, core::ServiceBinding binding,
                   FileCacheParams params = {});

  sim::Co<Result<Bytes>> Read(std::uint64_t offset,
                              std::uint32_t length) override;
  sim::Co<Result<rpc::Void>> Write(std::uint64_t offset, Bytes data) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size) override;

  [[nodiscard]] const core::CacheStats& cache_stats() const noexcept {
    return blocks_.stats();
  }

 protected:
  void OnInvalidateRange(std::uint64_t offset, std::uint64_t length);

  /// Fetches one block (block_size bytes at block*block_size) remotely.
  sim::Co<Result<Bytes>> FetchBlock(std::uint64_t block);

  /// Kicks an asynchronous prefetch of `block` (fire and forget).
  void Prefetch(std::uint64_t block);
  sim::Co<void> PrefetchTask(std::uint64_t block);

  /// Applies one of our own writes to the cached blocks in place, so a
  /// write does not evict data we can keep coherent ourselves.
  void PatchBlocks(std::uint64_t offset, const Bytes& data);

  FileCacheParams params_;
  core::LruCache<std::uint64_t, Bytes> blocks_;  // block index -> data
  // Blocks with a prefetch in flight: a demand read awaits the existing
  // fetch instead of issuing a duplicate. (One waiter suffices: demand
  // reads are serialized per proxy.)
  std::unordered_map<std::uint64_t, sim::Future<bool>> inflight_;
  core::InvalidationSink sink_;
  obs::Counter prefetches_;

 private:
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

/// Protocol 3: caching + coalesced write-behind. A batch that fails drops
/// the cached blocks its writes patched, so the next read asks the server.
class FileBatchProxy : public FileCachingProxy {
 public:
  /// A batch flushes at kMaxBatch writes or kFlushWindow after its first.
  static constexpr std::size_t kMaxBatch = 8;
  static constexpr SimDuration kFlushWindow = Milliseconds(5);

  FileBatchProxy(core::Context& context, core::ServiceBinding binding);

  sim::Co<Result<Bytes>> Read(std::uint64_t offset,
                              std::uint32_t length) override;
  sim::Co<Result<rpc::Void>> Write(std::uint64_t offset, Bytes data) override;
  sim::Co<Result<std::uint64_t>> Size() override;
  sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size) override;

  sim::Co<Status> FlushWrites() { return batcher_.Drain(); }

  [[nodiscard]] const core::BatcherStats& batch_stats() const noexcept {
    return batcher_.stats();
  }

 private:
  sim::Co<Status> FlushBatch(std::vector<filewire::WriteRequest> batch);

  core::Batcher<filewire::WriteRequest> batcher_;
  obs::MetricScope metric_scope_;  // after the cells it attaches
};

}  // namespace proxy::services
