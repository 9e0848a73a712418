// Unit tests for the timer-wheel discrete-event scheduler and the RAII
// sim::Timer handle (DESIGN.md §17).
//
// The ordering tests pin the contract the chaos fingerprints depend on:
// events run in (timestamp, monotonic sequence) order with FIFO among
// equal timestamps — including across wheel-cascade boundaries, where a
// naive wheel would reorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace proxy::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.PostAt(300, [&] { order.push_back(3); }).Detach();
  s.PostAt(100, [&] { order.push_back(1); }).Detach();
  s.PostAt(200, [&] { order.push_back(2); }).Detach();
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300u);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.PostAt(50, [&order, i] { order.push_back(i); }).Detach();
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, FifoAmongEqualTimestampsTenThousand) {
  // 10k events at one instant, with a cancelled event between every two
  // live ones to stress the slot list, must run in exact posting order.
  Scheduler s;
  constexpr int kEvents = 10000;
  std::vector<int> order;
  order.reserve(kEvents);
  std::vector<Timer> doomed;
  doomed.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    s.PostAt(777, [&order, i] { order.push_back(i); }).Detach();
    doomed.push_back(s.PostAt(777, [] { FAIL() << "cancelled event ran"; }));
  }
  for (auto& t : doomed) EXPECT_TRUE(t.Cancel());
  s.Run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(s.events_run(), static_cast<std::uint64_t>(kEvents));
}

TEST(Scheduler, FifoWhenPostedDuringTheSameInstant) {
  // Events posted *at the current instant from inside a handler* append
  // after everything already queued for that instant.
  Scheduler s;
  std::vector<int> order;
  s.PostAt(10, [&] {
     order.push_back(0);
     s.Post([&] { order.push_back(2); }).Detach();  // behind event "1"
   }).Detach();
  s.PostAt(10, [&] { order.push_back(1); }).Detach();
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.now(), 10u);
}

TEST(Scheduler, PostAtClampsPastTimestampsToNow) {
  // Documented forever, untested until now: a PostAt in the past runs at
  // the *current* instant, after events already queued there.
  Scheduler s;
  s.RunFor(100);  // advance time with no events
  ASSERT_EQ(s.now(), 100u);
  std::vector<std::pair<int, SimTime>> seen;
  s.Post([&] { seen.emplace_back(0, s.now()); }).Detach();
  s.PostAt(10, [&] { seen.emplace_back(1, s.now()); }).Detach();  // the past
  s.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<int, SimTime>{0, 100}));  // FIFO kept
  EXPECT_EQ(seen[1], (std::pair<int, SimTime>{1, 100}));  // clamped
}

TEST(Scheduler, PostInThePastFromHandlerClampsToNow) {
  Scheduler s;
  SimTime seen = 1;
  s.PostAt(100, [&] {
     s.PostAt(10, [&] { seen = s.now(); }).Detach();  // 10 < now
   }).Detach();
  s.Run();
  EXPECT_EQ(seen, 100u);
}

TEST(Scheduler, OrderingAcrossWheelCascadeBoundaries) {
  // Timestamps chosen to straddle every wheel level boundary (byte
  // carries at 2^8, 2^16, 2^24, 2^32), with duplicates to exercise FIFO
  // after a cascade. The observed order must equal a stable sort by time.
  Scheduler s;
  const std::vector<SimTime> times = {
      255,        256,        257,         511,        512,
      65535,      65536,      65537,       65536,      131071,
      16777215,   16777216,   16777217,    16777216,   4294967295ULL,
      4294967296ULL, 4294967297ULL, 300,    65800,      16778000,
      255,        65536,      4294967296ULL};
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<std::pair<SimTime, int>> observed;
  for (int i = 0; i < static_cast<int>(times.size()); ++i) {
    expected.emplace_back(times[i], i);
    s.PostAt(times[i], [&observed, t = times[i], i, &s] {
       EXPECT_EQ(s.now(), t);
       observed.emplace_back(t, i);
     }).Detach();
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  s.Run();
  EXPECT_EQ(observed, expected);
}

TEST(Scheduler, HandlersMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.PostAfter(10, recurse).Detach();
  };
  s.PostAfter(10, recurse).Detach();
  s.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 50u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  Timer t = s.PostAt(10, [&] { ran = true; });
  EXPECT_TRUE(t.armed());
  EXPECT_TRUE(t.Cancel());
  EXPECT_FALSE(t.armed());
  s.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.events_run(), 0u);
}

TEST(Scheduler, CancelOfFiredTimerIsNoop) {
  Scheduler s;
  Timer t = s.PostAt(10, [] {});
  s.Run();
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(t.Cancel());
}

TEST(Scheduler, DefaultTimerIsEmpty) {
  Timer t;
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(t.Cancel());
}

TEST(Scheduler, DoubleCancelReturnsFalse) {
  Scheduler s;
  Timer t = s.PostAt(10, [] {});
  EXPECT_TRUE(t.Cancel());
  EXPECT_FALSE(t.Cancel());
}

TEST(Scheduler, DroppingTheHandleCancels) {
  Scheduler s;
  bool ran = false;
  {
    Timer t = s.PostAt(10, [&] { ran = true; });
    EXPECT_EQ(s.pending(), 1u);
  }
  EXPECT_EQ(s.pending(), 0u);
  s.Run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, DetachedTimerStillFires) {
  Scheduler s;
  bool ran = false;
  {
    Timer t = s.PostAt(10, [&] { ran = true; });
    t.Detach();
    EXPECT_FALSE(t.armed());  // detached handles report unarmed
  }
  s.Run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, MoveTransfersOwnership) {
  Scheduler s;
  bool ran = false;
  Timer a = s.PostAt(10, [&] { ran = true; });
  Timer b = std::move(a);
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move): pinned empty
  EXPECT_TRUE(b.armed());
  EXPECT_TRUE(b.Cancel());
  s.Run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, MoveAssignmentCancelsTheOldTimer) {
  Scheduler s;
  bool first = false;
  bool second = false;
  Timer t = s.PostAt(10, [&] { first = true; });
  t = s.PostAt(20, [&] { second = true; });  // re-arm: old one cancels
  s.Run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Scheduler, SlabReuseAfterCancel) {
  // Cancel + repost thousands of times: the slab must recycle nodes (the
  // cancelled callbacks never run, the live ones all do, and pending()
  // tracks exactly the live count).
  Scheduler s;
  int ran = 0;
  for (int round = 0; round < 2000; ++round) {
    Timer doomed = s.PostAt(10 + round, [] { FAIL() << "cancelled ran"; });
    s.PostAt(10 + round, [&ran] { ++ran; }).Detach();
    EXPECT_TRUE(doomed.Cancel());
    EXPECT_EQ(s.pending(), static_cast<std::size_t>(round + 1));
  }
  s.Run();
  EXPECT_EQ(ran, 2000);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, GenerationStampDefeatsABA) {
  // A stale handle whose slab slot was recycled must not touch the new
  // occupant: the generation stamp makes the old handle miss.
  Scheduler s;
  Timer stale = s.PostAt(10, [] {});
  s.Run();  // fires; `stale` now refers to a dead generation
  // The freed slot is recycled by the very next Post (LIFO freelist).
  bool ran = false;
  Timer fresh = s.PostAt(20, [&] { ran = true; });
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  EXPECT_FALSE(stale.Cancel());  // must not cancel `fresh`
  EXPECT_TRUE(fresh.armed());
  s.Run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, DestructorOfStaleHandleLeavesRecycledSlotAlone) {
  Scheduler s;
  bool ran = false;
  Timer fresh;
  {
    Timer stale = s.PostAt(10, [] {});
    s.Run();
    fresh = s.PostAt(20, [&] { ran = true; });
    // `stale` destructs here, after its slot was recycled for `fresh`.
  }
  EXPECT_TRUE(fresh.armed());
  s.Run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, SelfCancelFromInsideTheCallbackIsNoop) {
  Scheduler s;
  Timer t;
  bool cancel_result = true;
  t = s.PostAt(10, [&] { cancel_result = t.Cancel(); });
  s.Run();
  EXPECT_FALSE(cancel_result);  // already consumed by firing
  EXPECT_EQ(s.events_run(), 1u);
}

TEST(Scheduler, StepSkipsCancelledWithoutAdvancingTime) {
  Scheduler s;
  Timer t = s.PostAt(500, [] {});
  EXPECT_TRUE(t.Cancel());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.Step());  // nothing live: no step, no time travel
  EXPECT_EQ(s.now(), 0u);
}

TEST(Scheduler, StepHookSeesMonotonicSequenceNumbers) {
  Scheduler s;
  std::vector<std::pair<SimTime, std::uint64_t>> hook;
  s.SetStepHook([&](SimTime t, std::uint64_t seq) { hook.emplace_back(t, seq); });
  s.PostAt(20, [] {}).Detach();  // seq 1
  s.PostAt(10, [] {}).Detach();  // seq 2
  s.PostAt(20, [] {}).Detach();  // seq 3
  s.Run();
  ASSERT_EQ(hook.size(), 3u);
  EXPECT_EQ(hook[0], (std::pair<SimTime, std::uint64_t>{10, 2}));
  EXPECT_EQ(hook[1], (std::pair<SimTime, std::uint64_t>{20, 1}));
  EXPECT_EQ(hook[2], (std::pair<SimTime, std::uint64_t>{20, 3}));
}

TEST(Scheduler, RunUntilStopsAtPredicate) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.PostAt(static_cast<SimTime>(i) * 10, [&] { ++count; }).Detach();
  }
  const bool reached = s.RunUntil([&] { return count == 4; });
  EXPECT_TRUE(reached);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.now(), 40u);
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RunUntilReturnsFalseWhenQueueDrains) {
  Scheduler s;
  s.PostAt(10, [] {}).Detach();
  EXPECT_FALSE(s.RunUntil([] { return false; }));
}

TEST(Scheduler, RunForAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.RunFor(Milliseconds(5));
  EXPECT_EQ(s.now(), Milliseconds(5));
}

TEST(Scheduler, RunForExecutesOnlyEventsWithinWindow) {
  Scheduler s;
  int ran = 0;
  s.PostAt(100, [&] { ++ran; }).Detach();
  s.PostAt(200, [&] { ++ran; }).Detach();
  s.PostAt(300, [&] { ++ran; }).Detach();
  s.RunFor(250);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), 250u);
  EXPECT_EQ(s.pending(), 1u);
  s.Run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(s.now(), 300u);
}

TEST(Scheduler, RunForStopsCleanlyAcrossCascadeBoundaries) {
  // A deadline strictly inside a higher wheel level: events beyond it
  // stay queued and run — in order — on the next drive.
  Scheduler s;
  std::vector<SimTime> fired;
  for (const SimTime t : {200u, 65000u, 66000u, 70000u, 16777300u}) {
    s.PostAt(t, [&fired, &s] { fired.push_back(s.now()); }).Detach();
  }
  s.RunFor(65500);
  EXPECT_EQ(fired, (std::vector<SimTime>{200, 65000}));
  EXPECT_EQ(s.now(), 65500u);
  EXPECT_EQ(s.pending(), 3u);
  s.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{200, 65000, 66000, 70000, 16777300}));
}

TEST(Scheduler, DriveFamily) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 6; ++i) {
    s.PostAt(static_cast<SimTime>(i) * 100, [&] { ++count; }).Detach();
  }
  EXPECT_TRUE(s.RunUntil([&] { return count == 2; }));
  EXPECT_EQ(s.now(), 200u);
  s.RunFor(250);  // through t=450
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.now(), 450u);
  s.RunFor(50);  // through t=500
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 500u);
  s.Run();
  EXPECT_EQ(count, 6);
  // A drained queue: RunUntil reports the unmet predicate, and an empty
  // RunFor leaves time where it is.
  EXPECT_FALSE(s.RunUntil([&] { return count == 7; }));
  s.RunFor(0);
  EXPECT_EQ(s.now(), 600u);
  // Every drive loop makes its scheduler current, even one that runs
  // no event.
  Scheduler other;
  other.MakeCurrent();
  s.RunFor(0);
  EXPECT_EQ(Scheduler::Current(), &s);
  other.MakeCurrent();
  EXPECT_TRUE(s.RunUntil([] { return true; }));
  EXPECT_EQ(Scheduler::Current(), &s);
  other.MakeCurrent();
  s.Run();
  EXPECT_EQ(Scheduler::Current(), &s);
}

TEST(Scheduler, EventsRunCounter) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.Post([] {}).Detach();
  s.Run();
  EXPECT_EQ(s.events_run(), 7u);
}

TEST(Scheduler, CurrentIsSetWhileStepping) {
  Scheduler s;
  Scheduler* seen = nullptr;
  s.Post([&] { seen = Scheduler::Current(); }).Detach();
  s.Run();
  EXPECT_EQ(seen, &s);
}

TEST(Scheduler, DestroyingTheCurrentSchedulerClearsCurrent) {
  Scheduler outer;
  {
    Scheduler inner;
    inner.Post([] {}).Detach();  // posting makes it current
    EXPECT_EQ(Scheduler::Current(), &inner);
  }
  // Never a dangling pointer: frame allocation draws from Current().
  EXPECT_EQ(Scheduler::Current(), nullptr);
  outer.MakeCurrent();
  {
    Scheduler bystander;
  }  // was never current, so Current() is left alone
  EXPECT_EQ(Scheduler::Current(), &outer);
}

TEST(Scheduler, StepReturnsFalseOnEmptyQueue) {
  Scheduler s;
  EXPECT_FALSE(s.Step());
  s.Post([] {}).Detach();
  EXPECT_TRUE(s.Step());
  EXPECT_FALSE(s.Step());
}

TEST(Scheduler, LargeCallbacksFallBackToTheHeapCorrectly) {
  // Captures bigger than the inline buffer still work (heap fallback).
  Scheduler s;
  std::vector<std::uint64_t> big(32);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  std::uint64_t sum = 0;
  struct Fat {
    std::uint64_t words[12];
  } fat{};
  fat.words[11] = 42;
  s.PostAt(10, [big = std::move(big), fat, &sum] {
     for (const auto v : big) sum += v;
     sum += fat.words[11];
   }).Detach();
  s.Run();
  EXPECT_EQ(sum, 31u * 32u / 2u + 42u);
}

}  // namespace
}  // namespace proxy::sim
