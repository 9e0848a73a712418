// Tests for the proxy building blocks: LRU cache and batcher.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batcher.h"
#include "core/cache.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace proxy::core {
namespace {

TEST(LruCache, GetMissThenHit) {
  LruCache<std::string, int> cache(4);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1);
  const auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCache, OverwriteKeepsSize) {
  LruCache<std::string, int> cache(4);
  cache.Put("a", 1);
  cache.Put("a", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("a"), 2);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(3);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Put(3, 3);
  (void)cache.Get(1);  // 1 is now most recent; 2 is LRU
  cache.Put(4, 4);     // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCache, InvalidateRemovesAndCounts) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  EXPECT_TRUE(cache.Invalidate(1));
  EXPECT_FALSE(cache.Invalidate(1));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(LruCache, PeekDoesNotTouchStatsOrRecency) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_NE(cache.Peek(1), nullptr);  // no recency bump
  cache.Put(3, 30);                   // evicts 1 (still LRU despite Peek)
  EXPECT_EQ(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(LruCache, ZeroCapacityStoresNothing) {
  LruCache<int, int> cache(0);
  cache.Put(1, 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1).has_value());
}

TEST(LruCache, ClearAndForEach) {
  LruCache<int, int> cache(4);
  cache.Put(1, 10);
  cache.Put(2, 20);
  std::vector<int> keys;
  cache.ForEach([&](int k, int) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{2, 1}));  // most recent first
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, HitRate) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  (void)cache.Get(1);
  (void)cache.Get(1);
  (void)cache.Get(2);
  EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-9);
}

// --- batcher ---

struct BatcherFixture : public ::testing::Test {
  BatcherFixture()
      : batcher(
            sched,
            [this](std::vector<int> batch) { return Flush(std::move(batch)); },
            /*max_items=*/3, /*window=*/Milliseconds(10)) {}

  sim::Co<Status> Flush(std::vector<int> batch) {
    co_await sim::SleepFor(sched, Microseconds(100));
    if (fail_next) {
      fail_next = false;
      co_return UnavailableError("flush failed");
    }
    flushed.push_back(std::move(batch));
    co_return Status::Ok();
  }

  sim::Scheduler sched;
  std::vector<std::vector<int>> flushed;
  bool fail_next = false;
  Batcher<int> batcher;
};

TEST_F(BatcherFixture, SizeTriggeredFlush) {
  batcher.Add(1);
  batcher.Add(2);
  EXPECT_EQ(batcher.pending(), 2u);
  batcher.Add(3);  // hits max_items
  EXPECT_EQ(batcher.pending(), 0u);
  sched.Run();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(batcher.stats().size_flushes, 1u);
}

TEST_F(BatcherFixture, WindowTriggeredFlush) {
  batcher.Add(7);
  sched.Run();  // window timer fires at 10ms
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], (std::vector<int>{7}));
  EXPECT_EQ(batcher.stats().window_flushes, 1u);
  EXPECT_GE(sched.now(), Milliseconds(10));
}

TEST_F(BatcherFixture, ManualFlushShipsEarly) {
  batcher.Add(9);
  sim::Future<Status> done = sim::Spawn(sched, batcher.Drain());
  sched.RunUntil([&] { return done.ready(); });
  EXPECT_TRUE(done.take().ok());
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_LT(sched.now(), Milliseconds(10));  // did not wait for the window
  EXPECT_EQ(batcher.stats().manual_flushes, 1u);
}

TEST_F(BatcherFixture, ManualFlushOnEmptyIsImmediateOk) {
  sim::Future<Status> done = sim::Spawn(sched, batcher.Drain());
  sched.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_TRUE(done.take().ok());
  EXPECT_EQ(sched.now(), 0u);  // nothing to wait for: done at t = 0
  EXPECT_EQ(batcher.stats().batches, 0u);
}

TEST_F(BatcherFixture, ItemsDuringFlightFormNextBatch) {
  batcher.Add(1);
  batcher.Add(2);
  batcher.Add(3);  // flush #1 departs (takes 100us)
  batcher.Add(4);
  batcher.Add(5);
  sched.Run();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(flushed[1], (std::vector<int>{4, 5}));
}

TEST_F(BatcherFixture, DrainWaitsOutItemsAddedDuringAFlush) {
  batcher.Add(1);
  sim::Future<Status> drained = sim::Spawn(sched, batcher.Drain());
  // Lands while batch {1} is on the wire, so it rides a second round.
  sched.PostAfter(Microseconds(50), [this] { batcher.Add(2); })
      .Detach();
  sched.Run();
  ASSERT_TRUE(drained.ready());
  EXPECT_TRUE(drained.take().ok());
  EXPECT_EQ(flushed, (std::vector<std::vector<int>>{{1}, {2}}));
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST_F(BatcherFixture, DrainStopsAtTheFirstFailedBatch) {
  batcher.Add(1);
  fail_next = true;
  sim::Future<Status> drained = sim::Spawn(sched, batcher.Drain());
  sched.Run();
  ASSERT_TRUE(drained.ready());
  EXPECT_EQ(drained.take().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(flushed.empty());
}

TEST_F(BatcherFixture, DrainWaitsForABatchAlreadyOnTheWire) {
  batcher.Add(1);
  batcher.Add(2);
  batcher.Add(3);  // size flush: nothing pending, one batch in flight
  sim::Future<Status> drained = sim::Spawn(sched, batcher.Drain());
  sched.RunFor(Microseconds(99));
  EXPECT_FALSE(drained.ready());
  EXPECT_TRUE(flushed.empty());
  sched.Run();
  ASSERT_TRUE(drained.ready());
  EXPECT_TRUE(drained.take().ok());
  EXPECT_EQ(flushed, (std::vector<std::vector<int>>{{1, 2, 3}}));
  EXPECT_EQ(batcher.stats().manual_flushes, 0u);
}

TEST_F(BatcherFixture, AFailingInFlightBatchFailsTheDrain) {
  fail_next = true;
  for (int i = 1; i <= 3; ++i) batcher.Add(i);
  sim::Future<Status> drained = sim::Spawn(sched, batcher.Drain());
  sched.Run();
  ASSERT_TRUE(drained.ready());
  EXPECT_EQ(drained.take().code(), StatusCode::kUnavailable);
}

TEST_F(BatcherFixture, AnEarlierFailureFailsTheNextDrainOnly) {
  fail_next = true;
  for (int i = 1; i <= 3; ++i) batcher.Add(i);
  sched.Run();  // the batch fails before anyone drains
  sim::Future<Status> first = sim::Spawn(sched, batcher.Drain());
  sched.Run();
  ASSERT_TRUE(first.ready());
  EXPECT_EQ(first.take().code(), StatusCode::kUnavailable);
  sim::Future<Status> second = sim::Spawn(sched, batcher.Drain());
  sched.Run();
  ASSERT_TRUE(second.ready());
  EXPECT_TRUE(second.take().ok());
}

/// The operation After() orders behind the barrier: counts its runs.
sim::Co<Result<int>> CountRun(int* runs) {
  ++*runs;
  co_return *runs;
}

TEST_F(BatcherFixture, AfterIsTheOperationItselfWhenIdle) {
  int runs = 0;
  sim::Future<Result<int>> done =
      sim::Spawn(sched, batcher.After(CountRun(&runs)));
  sched.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(*done.take(), 1);
  // One event, the operation's completion resuming the Spawn root: no
  // drain coroutine ran in front of it.
  EXPECT_EQ(sched.events_run(), 1u);
}

TEST_F(BatcherFixture, AfterRunsTheOperationOnceTheBufferLands) {
  batcher.Add(1);
  int runs = 0;
  std::size_t flushed_when_run = 0;
  auto op = [&]() -> sim::Co<Result<int>> {
    flushed_when_run = flushed.size();
    co_return ++runs;
  };
  sim::Future<Result<int>> done = sim::Spawn(sched, batcher.After(op()));
  sched.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(*done.take(), 1);
  EXPECT_EQ(flushed_when_run, 1u);  // {1} landed before the op ran
  EXPECT_LT(sched.now(), Milliseconds(10));  // shipped, not windowed
}

TEST_F(BatcherFixture, AfterFailsWithoutRunningWhenTheDrainFails) {
  fail_next = true;
  batcher.Add(1);
  int runs = 0;
  sim::Future<Result<int>> done =
      sim::Spawn(sched, batcher.After(CountRun(&runs)));
  sched.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(runs, 0);
}

TEST_F(BatcherFixture, StatsCountItemsAndBatches) {
  for (int i = 0; i < 7; ++i) batcher.Add(i);
  sched.Run();
  EXPECT_EQ(batcher.stats().items, 7u);
  EXPECT_EQ(batcher.stats().batches, 3u);  // 3+3+1
}

}  // namespace
}  // namespace proxy::core
