// Heap allocations of the warm per-call paths, pinned the way
// EventBudget (core_test.cpp) pins scheduler events: one warm remote
// Increment through the protocol-1 stub, and one warm read hit through
// the protocol-2 caching proxy and through the protocol-3 write-back
// proxy, each driven through Runtime::Run.
//
// This binary replaces the global operator new with a counting one, so
// it is a test binary of its own: no other test shares the counter. Like
// bench/BENCH_host.json, the counts pin the CI toolchain's libstdc++.
// Coroutine frames come from the scheduler's slabs (sim/frames.h), which
// the warm-up call has already carved, so no frame is counted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

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

TEST(AllocBudget, WarmStubIncrement) {
  TestWorld w;
  Result<services::CounterExport> exported =
      services::ExportCounterService(*w.server_ctx);
  ASSERT_OK(exported);
  services::CounterStub stub(*w.client_ctx, exported->binding);
  Result<std::int64_t> value = w.rt->Run(stub.Increment(1));  // warm-up
  ASSERT_OK(value);
  // By kind. Roots (1): the future state Runtime::Run's Spawn shares
  //   with Await. The frames (CounterStub::Increment, ProxyBase::CallRaw,
  //   Runtime::Run's root; on the server RpcServer::Execute, its
  //   detached root and the typed skeleton) come from the slabs, and
  //   CallRaw's AttemptBudget is a local of its frame.
  // Datagrams (6), for the request and again for the reply: the CRC
  //   envelope, and Network::ScheduleDelivery's batch node and delivery
  //   record.
  // Per-call bookkeeping (4): RpcClient's pending-call node and its
  //   promise state, and the server's in-progress and reply-cache nodes.
  // Message buffers (4): the args, the encoded request, the result and
  //   the encoded reply.
  EXPECT_EQ(AllocationsOf([&] { value = w.rt->Run(stub.Increment(1)); }),
            15u);
  ASSERT_OK(value);
  EXPECT_EQ(*value, 2);
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
  // The future state Spawn shares with Runtime::Run. KvCachingProxy::Get's
  // frame and Spawn's root frame come from the slabs, and the cached
  // value is a short string, copied without allocating.
  EXPECT_EQ(AllocationsOf([&] { hit = w.rt->Run(proxy.Get("k")); }), 1u);
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
  // "k" is clean, so Get is KvCachingProxy::Get's coroutine: the same
  // one allocation as WarmCachingGetHit, and no frame of its own.
  EXPECT_EQ(AllocationsOf([&] { hit = w.rt->Run(proxy.Get("k")); }), 1u);
  ASSERT_OK(hit);
  EXPECT_EQ(*hit, std::optional<std::string>("v"));
  EXPECT_EQ(proxy.cache_stats().hits, 1u);
}

}  // namespace
}  // namespace proxy::core
