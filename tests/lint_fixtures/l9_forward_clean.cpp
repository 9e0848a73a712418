// Rule L9's clean forms: a forward returns its callee's awaitable, and a
// coroutine that does anything besides relaying one await is not idle.
// Zero findings expected. Not compiled — exercised by proxy_lint_test.
#include "core/proxy.h"

namespace services {

class FileProxy : public core::ProxyBase {
 public:
  sim::Co<Result<rpc::Void>> Write(std::uint64_t offset, Bytes data);
  sim::Co<Result<rpc::Void>> Truncate(std::uint64_t size);
  sim::Co<Result<Bytes>> Read(std::uint64_t offset, std::uint32_t length);
  sim::Co<Result<std::uint64_t>> Size();

 private:
  void DropTail(std::uint64_t size);
  sim::Co<Status> Subscribe();
};

// The forward: a plain function returning the callee's coroutine.
sim::Co<Result<rpc::Void>> FileProxy::Write(std::uint64_t offset,
                                            Bytes data) {
  return Call<rpc::Void>(kWrite, WriteRequest{offset, std::move(data)});
}

// A side effect before the call: the body runs when first resumed.
sim::Co<Result<rpc::Void>> FileProxy::Truncate(std::uint64_t size) {
  DropTail(size);
  TruncateRequest req{size};
  co_return co_await Call<rpc::Void>(kTruncate, std::move(req));
}

// Two awaits: the first one's outcome decides whether the second runs.
sim::Co<Result<Bytes>> FileProxy::Read(std::uint64_t offset,
                                       std::uint32_t length) {
  const Status sub = co_await Subscribe();
  if (!sub.ok()) co_return sub;
  ReadRequest req{offset, length};
  co_return co_await Call<Bytes>(kRead, std::move(req));
}

// The awaited result is inspected, not relayed.
sim::Co<Result<std::uint64_t>> FileProxy::Size() {
  Result<std::uint64_t> size = co_await Call<std::uint64_t>(kSize, none);
  if (size.ok()) ++sizes_;
  co_return size;
}

void Drive(core::Runtime& rt, FileProxy& file) {
  Result<std::uint64_t> size = Status();
  auto read = [&]() -> sim::Co<void> { size = co_await file.Size(); };
  rt.Run(read());
}

}  // namespace services
