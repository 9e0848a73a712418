// Unit tests for coroutine tasks, futures, promises and sleep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/future.h"
#include "sim/task.h"

namespace proxy::sim {
namespace {

Co<int> ReturnImmediately(int v) { co_return v; }

Co<int> AwaitFuture(Future<int> f) {
  const int v = co_await f;
  co_return v * 2;
}

Co<int> Chain(Future<int> f) {
  const int v = co_await AwaitFuture(f);
  co_return v + 1;
}

Co<void> SleepThenSet(Scheduler& s, SimDuration d, bool& flag) {
  co_await SleepFor(s, d);
  flag = true;
}

TEST(Task, ImmediateCompletionDeliveredViaFuture) {
  Scheduler s;
  Future<int> f = Spawn(s, ReturnImmediately(42));
  // Completion is posted, not synchronous — the value lands after a step.
  EXPECT_FALSE(f.ready());
  s.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.take(), 42);
}

TEST(Task, AwaitedFutureResumesCoroutine) {
  Scheduler s;
  Promise<int> p(s);
  Future<int> done = Spawn(s, AwaitFuture(p.future()));
  s.Run();
  EXPECT_FALSE(done.ready());  // still parked on the promise
  p.Set(21);
  s.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take(), 42);
}

TEST(Task, NestedCoroutinesChain) {
  Scheduler s;
  Promise<int> p(s);
  Future<int> done = Spawn(s, Chain(p.future()));
  p.Set(10);
  s.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take(), 21);
}

TEST(Task, VoidCoroutineReportsCompletion) {
  Scheduler s;
  bool flag = false;
  Future<bool> done = Spawn(s, SleepThenSet(s, Milliseconds(3), flag));
  EXPECT_FALSE(flag);
  s.Run();
  EXPECT_TRUE(flag);
  EXPECT_TRUE(done.ready());
  EXPECT_EQ(s.now(), Milliseconds(3));
}

TEST(Future, ReadyBeforeAwaitShortCircuits) {
  Scheduler s;
  Promise<int> p(s);
  p.Set(5);
  Future<int> done = Spawn(s, AwaitFuture(p.future()));
  s.Run();
  ASSERT_TRUE(done.ready());
  EXPECT_EQ(done.take(), 10);
}

TEST(Future, SecondSetIsIgnored) {
  Scheduler s;
  Promise<int> p(s);
  EXPECT_TRUE(p.Set(1));
  EXPECT_FALSE(p.Set(2));
  Future<int> f = p.future();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 1);
}

TEST(Sleep, ZeroDurationDoesNotSuspend) {
  Scheduler s;
  bool flag = false;
  (void)Spawn(s, SleepThenSet(s, 0, flag));
  // Zero sleep is ready immediately; the body runs without any event.
  EXPECT_TRUE(flag);
}

Co<void> GatherOrder(Scheduler& s, std::vector<int>& order, int tag,
                     SimDuration d) {
  co_await SleepFor(s, d);
  order.push_back(tag);
}

TEST(Task, ConcurrentCoroutinesInterleaveDeterministically) {
  Scheduler s;
  std::vector<int> order;
  (void)Spawn(s, GatherOrder(s, order, 1, Milliseconds(30)));
  (void)Spawn(s, GatherOrder(s, order, 2, Milliseconds(10)));
  (void)Spawn(s, GatherOrder(s, order, 3, Milliseconds(20)));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

Co<std::string> BuildString(Scheduler& s) {
  std::string out = "a-fairly-long-string-that-heap-allocates-for-sure";
  co_await SleepFor(s, 10);
  out += "-suffix";
  co_return out;
}

TEST(Task, LocalsSurviveSuspension) {
  Scheduler s;
  Future<std::string> f = Spawn(s, BuildString(s));
  s.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.take(),
            "a-fairly-long-string-that-heap-allocates-for-sure-suffix");
}

Co<int> AwaitTwice(Scheduler& s) {
  co_await SleepFor(s, 5);
  co_await SleepFor(s, 5);
  co_return static_cast<int>(s.now());
}

TEST(Task, MultipleSuspensionsAccumulateTime) {
  Scheduler s;
  Future<int> f = Spawn(s, AwaitTwice(s));
  s.Run();
  EXPECT_EQ(f.take(), 10);
}

// Deep chain: completion posting keeps native stack bounded; this would
// overflow with naive recursive resumption.
Co<int> DeepChain(Scheduler& s, int depth) {
  if (depth == 0) {
    co_await SleepFor(s, 1);
    co_return 0;
  }
  const int below = co_await DeepChain(s, depth - 1);
  co_return below + 1;
}

TEST(Task, DeepChainCompletesWithoutStackOverflow) {
  Scheduler s;
  Future<int> f = Spawn(s, DeepChain(s, 2000));
  s.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.take(), 2000);
}

}  // namespace
}  // namespace proxy::sim
