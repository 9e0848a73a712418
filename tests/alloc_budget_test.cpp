// Heap allocations of the warm per-call paths, pinned the way
// EventBudget (core_test.cpp) pins scheduler events: one warm remote
// Increment through the protocol-1 stub (also past the server's
// reply-cache bound), and one warm read hit through the protocol-2
// caching proxy and through the protocol-3 write-back proxy, each driven
// through Runtime::Run.
//
// This binary replaces the global operator new with a counting one, so
// it is a test binary of its own: no other test shares the counter. Like
// bench/BENCH_host.json, the counts pin the CI toolchain's libstdc++.
// Coroutine frames and the per-call objects (future states, pending-call
// and reply-cache nodes) come from the scheduler's slabs (sim/frames.h),
// which the warm-up call has already carved, so none of them is counted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "rpc/server.h"
#include "services/counter.h"
#include "services/kv.h"
#include "test_util.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// All three out of line: GCC otherwise inlines the malloc() or the
// free() into a caller and reports the pair as mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace proxy::core {
namespace {

using proxy::testing::TestWorld;

/// Allocations `body` makes. The body both creates the call's coroutine
/// and runs it, so the call's own frame is counted.
template <typename F>
std::uint64_t AllocationsOf(F&& body) {
  const std::uint64_t before = g_allocations;
  body();
  return g_allocations - before;
}

// A warm remote Increment through the protocol-1 stub allocates its
// buffers and nothing else:
// - datagrams (2): the CRC envelope of the request and of the reply;
// - message buffers (4): the args, the encoded request, the result and
//   the encoded reply.
// From the slabs, and so not counted: the frames (ProxyBase::CallRaw,
// which the forward CounterStub::Increment returns, and Runtime::Run's
// root; on the server RpcServer::Execute, its detached root and the typed
// skeleton); the future state Runtime::Run's Spawn shares with Await;
// RpcClient's pending-call node and its promise state; the server's
// in-progress and reply-cache nodes and its reply FIFO. Not allocated at
// all: each datagram's delivery event, whose 64-byte closure (network,
// node and datagram record) fits the scheduler's inline callback
// storage, and CallRaw's AttemptBudget, a local of its frame.
constexpr std::uint64_t kWarmIncrementAllocations = 6;

TEST(AllocBudget, WarmStubIncrement) {
  TestWorld w;
  Result<services::CounterExport> exported =
      services::ExportCounterService(*w.server_ctx);
  ASSERT_OK(exported);
  services::CounterStub stub(*w.client_ctx, exported->binding);
  Result<std::int64_t> value = w.rt->Run(stub.Increment(1));  // warm-up
  ASSERT_OK(value);
  EXPECT_EQ(AllocationsOf([&] { value = w.rt->Run(stub.Increment(1)); }),
            kWarmIncrementAllocations);
  ASSERT_OK(value);
  EXPECT_EQ(*value, 2);
}

TEST(AllocBudget, WarmStubIncrementPastTheReplyCacheBound) {
  TestWorld w;
  Result<services::CounterExport> exported =
      services::ExportCounterService(*w.server_ctx);
  ASSERT_OK(exported);
  services::CounterStub stub(*w.client_ctx, exported->binding);
  // Past the bound, every call's cached reply evicts the oldest one. Three
  // times the bound also takes the reply FIFO's block map to its steady
  // size, and every slab the eviction cycle reuses is carved.
  const std::uint64_t bound =
      rpc::RpcServer::Params{}.reply_cache_per_client;
  Result<std::int64_t> value = 0;
  for (std::uint64_t i = 0; i < 3 * bound; ++i) {
    value = w.rt->Run(stub.Increment(1));
    ASSERT_OK(value);
  }
  // Eviction frees a reply-cache node and, every 64 calls, a FIFO block,
  // and the next call takes them back from the slabs: 64 calls cost 64
  // single calls, not one FIFO block more.
  constexpr std::uint64_t kCalls = 64;
  EXPECT_EQ(AllocationsOf([&] {
              for (std::uint64_t i = 0; i < kCalls; ++i) {
                value = w.rt->Run(stub.Increment(1));
              }
            }),
            kCalls * kWarmIncrementAllocations);
  ASSERT_OK(value);
  EXPECT_EQ(*value, static_cast<std::int64_t>(3 * bound + kCalls));
}

TEST(AllocBudget, WarmCachingGetHit) {
  TestWorld w;
  Result<services::KvExport> exported =
      services::ExportKvService(*w.server_ctx, 2);
  ASSERT_OK(exported);
  exported->impl->Store("k", "v");
  services::KvCachingProxy proxy(*w.client_ctx, exported->binding);
  Result<std::optional<std::string>> hit = w.rt->Run(proxy.Get("k"));
  ASSERT_OK(hit);  // subscribed, "k" cached
  // Nothing: KvCachingProxy::Get's frame, Spawn's root frame and the
  // future state Spawn shares with Runtime::Run come from the slabs, and
  // the cached value is a short string, copied without allocating.
  EXPECT_EQ(AllocationsOf([&] { hit = w.rt->Run(proxy.Get("k")); }), 0u);
  ASSERT_OK(hit);
  EXPECT_EQ(*hit, std::optional<std::string>("v"));
  EXPECT_EQ(proxy.cache_stats().hits, 1u);
}

TEST(AllocBudget, WarmWriteBackGetHitCostsWhatTheCachingHitCosts) {
  TestWorld w;
  Result<services::KvExport> exported =
      services::ExportKvService(*w.server_ctx, 3);
  ASSERT_OK(exported);
  exported->impl->Store("k", "v");
  services::KvWriteBackProxy proxy(*w.client_ctx, exported->binding);
  Result<std::optional<std::string>> hit = w.rt->Run(proxy.Get("k"));
  ASSERT_OK(hit);  // subscribed, "k" cached
  // "k" is clean, so Get is KvCachingProxy::Get's coroutine: no
  // allocation, as in WarmCachingGetHit, and no frame of its own.
  EXPECT_EQ(AllocationsOf([&] { hit = w.rt->Run(proxy.Get("k")); }), 0u);
  ASSERT_OK(hit);
  EXPECT_EQ(*hit, std::optional<std::string>("v"));
  EXPECT_EQ(proxy.cache_stats().hits, 1u);
}

}  // namespace
}  // namespace proxy::core
