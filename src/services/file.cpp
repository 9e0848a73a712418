#include "services/file.h"

#include <algorithm>

#include "serde/reader.h"
#include "serde/traits.h"
#include "serde/writer.h"

namespace proxy::services {

using filewire::InvalidateRangeMessage;
using filewire::ReadRequest;
using filewire::TruncateRequest;
using filewire::WriteRequest;
using filewire::WriteVecRequest;

// --- server ---

Bytes FileService::ReadAt(std::uint64_t offset, std::uint32_t length) const {
  if (offset >= content_.size()) return Bytes{};
  const std::uint64_t end =
      std::min<std::uint64_t>(offset + length, content_.size());
  return Bytes(content_.begin() + static_cast<std::ptrdiff_t>(offset),
               content_.begin() + static_cast<std::ptrdiff_t>(end));
}

Status FileService::ApplyWrite(std::uint64_t offset, const Bytes& data) {
  const std::uint64_t end = offset + data.size();
  if (end > kMaxFileSize) {
    return ResourceExhaustedError("write exceeds max file size");
  }
  if (end > content_.size()) content_.resize(end, 0);
  std::copy(data.begin(), data.end(),
            content_.begin() + static_cast<std::ptrdiff_t>(offset));
  return Status::Ok();
}

Result<rpc::Void> FileService::WriteExcluding(std::uint64_t offset,
                                              const Bytes& data,
                                              ObjectId exclude) {
  const Status st = ApplyWrite(offset, data);
  if (!st.ok()) return st;
  NotifyInvalidate(offset, data.size(), exclude);
  return rpc::Void{};
}

Result<rpc::Void> FileService::TruncateExcluding(std::uint64_t size,
                                                 ObjectId exclude) {
  if (size > kMaxFileSize) {
    return ResourceExhaustedError("truncate exceeds max file size");
  }
  content_.resize(size, 0);
  NotifyInvalidate(size, 0, exclude);  // 0 length = "to end of file"
  return rpc::Void{};
}

Result<rpc::Void> FileService::WriteVec(
    const std::vector<WriteRequest>& writes) {
  for (const auto& w : writes) {
    const Status st = ApplyWrite(w.offset, w.data);
    if (!st.ok()) return st;
  }
  // One invalidation covering the whole touched range; the writes in a
  // batch share one excluded sink (they come from one proxy).
  if (!writes.empty()) {
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const auto& w : writes) {
      lo = std::min(lo, w.offset);
      hi = std::max(hi, w.offset + w.data.size());
    }
    NotifyInvalidate(lo, hi - lo, writes.front().exclude_sink);
  }
  return rpc::Void{};
}

void FileService::NotifyInvalidate(std::uint64_t offset,
                                   std::uint64_t length, ObjectId exclude) {
  (void)subscribers_.Notify(context_->client(), filewire::kInvalidateRange,
                            InvalidateRangeMessage{offset, length}, exclude);
}

Bytes FileService::SnapshotState() const {
  serde::Writer w;
  serde::Serialize(w, content_);
  serde::Serialize(w, subscribers_);
  return w.Take();
}

Status FileService::RestoreState(BytesView state) {
  serde::Reader r(state);
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, content_));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, subscribers_));
  return r.ExpectEnd();
}

void FileService::FillPattern(std::uint64_t size, std::uint8_t seed) {
  content_.resize(size);
  std::uint8_t v = seed;
  for (auto& b : content_) {
    b = v;
    v = static_cast<std::uint8_t>(v * 31 + 7);
  }
}

std::shared_ptr<rpc::Dispatch> MakeFileDispatch(
    std::shared_ptr<FileService> impl) {
  auto dispatch = std::make_shared<rpc::Dispatch>();
  rpc::RegisterTyped(*dispatch, filewire::kRead, [impl](ReadRequest req) {
    return impl->ReadAt(req.offset, req.length);
  });
  rpc::RegisterTyped(*dispatch, filewire::kWrite, [impl](WriteRequest req) {
    return impl->WriteExcluding(req.offset, req.data, req.exclude_sink);
  });
  rpc::RegisterTyped(*dispatch, filewire::kSize,
                     [impl](rpc::Void) { return impl->size(); });
  rpc::RegisterTyped(*dispatch, filewire::kTruncate,
                     [impl](TruncateRequest req) {
                       return impl->TruncateExcluding(req.size,
                                                      req.exclude_sink);
                     });
  core::RegisterSubscribe(*dispatch, filewire::kSubscribe, impl);
  rpc::RegisterTyped(*dispatch, filewire::kWriteVec,
                     [impl](WriteVecRequest req) {
                       return impl->WriteVec(req.writes);
                     });
  return dispatch;
}

Result<FileExport> ExportFileService(core::Context& context,
                                     std::uint32_t protocol) {
  auto impl = std::make_shared<FileService>(context);
  auto dispatch = MakeFileDispatch(impl);
  PROXY_ASSIGN_OR_RETURN(
      auto exported,
      core::ServiceExport<IFile>::Create(context, impl, dispatch, protocol,
                                         impl));
  return FileExport{std::move(impl), exported.binding()};
}

// --- protocol 1: stub ---

sim::Co<Result<Bytes>> FileStub::Read(std::uint64_t offset,
                                      std::uint32_t length) {
  return Call(filewire::kRead, ReadRequest{offset, length});
}

sim::Co<Result<rpc::Void>> FileStub::Write(std::uint64_t offset, Bytes data) {
  return Call(filewire::kWrite,
              WriteRequest{offset, std::move(data), ObjectId{}});
}

sim::Co<Result<std::uint64_t>> FileStub::Size() {
  return Call(filewire::kSize, rpc::Void{});
}

sim::Co<Result<rpc::Void>> FileStub::Truncate(std::uint64_t size) {
  return Call(filewire::kTruncate, TruncateRequest{size, ObjectId{}});
}

// --- protocol 2: caching proxy ---

FileCachingProxy::FileCachingProxy(core::Context& context,
                                   core::ServiceBinding binding,
                                   FileCacheParams params)
    : core::ProxyBase(context, std::move(binding)),
      params_(params),
      blocks_(params.capacity_blocks),
      sink_(*this, filewire::kSubscribe),
      metric_scope_(context.metrics()) {
  sink_.Handle(filewire::kInvalidateRange,
               [this](const InvalidateRangeMessage& msg) {
                 OnInvalidateRange(msg.offset, msg.length);
               });
  blocks_.BindMetrics(metric_scope_, "svc.file.cache");
  metric_scope_.Attach("svc.file.prefetches", &prefetches_);
}

void FileCachingProxy::OnInvalidateRange(std::uint64_t offset,
                                         std::uint64_t length) {
  const std::uint64_t bs = params_.block_size;
  if (length == 0) {
    // Truncate: everything at or after `offset` is suspect.
    std::vector<std::uint64_t> doomed;
    blocks_.ForEach([&](std::uint64_t block, const Bytes&) {
      if ((block + 1) * bs > offset) doomed.push_back(block);
    });
    for (const auto block : doomed) blocks_.Invalidate(block);
    return;
  }
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (offset + length - 1) / bs;
  for (std::uint64_t block = first; block <= last; ++block) {
    blocks_.Invalidate(block);
  }
}

sim::Co<Result<Bytes>> FileCachingProxy::FetchBlock(std::uint64_t block) {
  const std::uint64_t bs = params_.block_size;
  return Call(filewire::kRead,
              ReadRequest{block * bs, static_cast<std::uint32_t>(bs)});
}

void FileCachingProxy::Prefetch(std::uint64_t block) {
  if (!params_.prefetch_next) return;
  if (blocks_.Peek(block) != nullptr) return;
  if (inflight_.contains(block)) return;  // already on the wire
  prefetches_++;
  sim::Detach(context().scheduler(), PrefetchTask(block));
}

sim::Co<void> FileCachingProxy::PrefetchTask(std::uint64_t block) {
  sim::Promise<bool> done(context().scheduler());
  inflight_.emplace(block, done.future());
  Result<Bytes> data = co_await FetchBlock(block);
  if (data.ok() && !data->empty()) blocks_.Put(block, std::move(*data));
  inflight_.erase(block);
  done.Set(true);
}

sim::Co<Result<Bytes>> FileCachingProxy::Read(std::uint64_t offset,
                                              std::uint32_t length) {
  if (sink_.needs_subscribe()) {
    const Status sub = co_await sink_.Subscribe();
    if (!sub.ok()) co_return sub;
  }

  const std::uint64_t bs = params_.block_size;
  Bytes out;
  out.reserve(length);
  std::uint64_t pos = offset;
  const std::uint64_t want_end = offset + length;

  while (pos < want_end) {
    const std::uint64_t block = pos / bs;
    const std::uint64_t in_block = pos % bs;

    std::optional<Bytes> cached = blocks_.Get(block);
    if (!cached) {
      // A prefetch may already be fetching this block: wait for it
      // rather than issuing a duplicate transfer.
      const auto inflight = inflight_.find(block);
      if (inflight != inflight_.end()) {
        sim::Future<bool> landed = inflight->second;
        (void)co_await landed;
        cached = blocks_.Get(block);
      }
    }
    if (!cached) {
      Result<Bytes> fetched = co_await FetchBlock(block);
      if (!fetched.ok()) co_return fetched.status();
      cached = std::move(*fetched);
      blocks_.Put(block, *cached);
    }
    if (pos / bs == block) Prefetch(block + 1);
    // Short block = EOF inside this block.
    if (in_block >= cached->size()) break;
    const std::uint64_t take =
        std::min<std::uint64_t>(want_end - pos, cached->size() - in_block);
    out.insert(out.end(),
               cached->begin() + static_cast<std::ptrdiff_t>(in_block),
               cached->begin() + static_cast<std::ptrdiff_t>(in_block + take));
    pos += take;
    if (cached->size() < bs) break;  // EOF block
  }
  co_return out;
}

sim::Co<Result<rpc::Void>> FileCachingProxy::Write(std::uint64_t offset,
                                                   Bytes data) {
  if (sink_.needs_subscribe()) {
    const Status sub = co_await sink_.Subscribe();
    if (!sub.ok()) co_return sub;
  }
  // Write-through with in-place patching: our own data is authoritative,
  // so cached blocks are updated rather than dropped, and the server
  // skips our sink in its invalidation fan-out.
  PatchBlocks(offset, data);
  WriteRequest req{offset, std::move(data), sink_.id()};
  co_return co_await Call(filewire::kWrite, std::move(req));
}

void FileCachingProxy::PatchBlocks(std::uint64_t offset, const Bytes& data) {
  if (data.empty()) return;
  const std::uint64_t bs = params_.block_size;
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (offset + data.size() - 1) / bs;
  for (std::uint64_t block = first; block <= last; ++block) {
    Bytes* cached = blocks_.Mutable(block);
    if (cached == nullptr) continue;
    const std::uint64_t block_start = block * bs;
    const std::uint64_t lo = std::max(offset, block_start);
    const std::uint64_t hi =
        std::min<std::uint64_t>(offset + data.size(), block_start + bs);
    const std::uint64_t local_hi = hi - block_start;
    // A write may extend the file into this block: grow the cached copy
    // with the same zero fill the server applies.
    if (cached->size() < local_hi) cached->resize(local_hi, 0);
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(lo - offset),
              data.begin() + static_cast<std::ptrdiff_t>(hi - offset),
              cached->begin() + static_cast<std::ptrdiff_t>(lo - block_start));
  }
}

sim::Co<Result<std::uint64_t>> FileCachingProxy::Size() {
  return Call(filewire::kSize, rpc::Void{});
}

sim::Co<Result<rpc::Void>> FileCachingProxy::Truncate(std::uint64_t size) {
  // Truncation is rare: dropping the tail locally is simpler than
  // trimming blocks, and self-exclusion keeps the fan-out quiet.
  OnInvalidateRange(size, 0);
  TruncateRequest req{size, sink_.id()};
  co_return co_await Call(filewire::kTruncate, std::move(req));
}

// --- protocol 3: batching proxy ---

FileBatchProxy::FileBatchProxy(core::Context& context,
                               core::ServiceBinding binding)
    : FileCachingProxy(context, std::move(binding)),
      batcher_(
          context.scheduler(),
          [this](std::vector<WriteRequest> batch) {
            return FlushBatch(std::move(batch));
          },
          kMaxBatch, kFlushWindow),
      metric_scope_(context.metrics()) {
  batcher_.BindMetrics(metric_scope_, "svc.file.writeback");
}

sim::Co<Status> FileBatchProxy::FlushBatch(std::vector<WriteRequest> batch) {
  WriteVecRequest req{std::move(batch)};
  Result<rpc::Void> landed = co_await Call(filewire::kWriteVec, req);
  // Write patched each buffered write into the cached blocks. The server
  // never stored this batch, so those blocks go and are fetched again.
  if (!landed.ok()) {
    for (const WriteRequest& w : req.writes) {
      if (!w.data.empty()) OnInvalidateRange(w.offset, w.data.size());
    }
  }
  co_return landed.status();
}

// Reads, Size and Truncate run behind the write barrier (no dependency
// tracking: every buffered write lands first).
sim::Co<Result<Bytes>> FileBatchProxy::Read(std::uint64_t offset,
                                            std::uint32_t length) {
  return batcher_.After(FileCachingProxy::Read(offset, length));
}

sim::Co<Result<rpc::Void>> FileBatchProxy::Write(std::uint64_t offset,
                                                 Bytes data) {
  PatchBlocks(offset, data);
  batcher_.Add(WriteRequest{offset, std::move(data), sink_.id()});
  co_return rpc::Void{};
}

sim::Co<Result<std::uint64_t>> FileBatchProxy::Size() {
  return batcher_.After(FileCachingProxy::Size());
}

sim::Co<Result<rpc::Void>> FileBatchProxy::Truncate(std::uint64_t size) {
  return batcher_.After(FileCachingProxy::Truncate(size));
}

}  // namespace proxy::services
