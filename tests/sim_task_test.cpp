// Unit tests for coroutine tasks, futures, promises and sleep.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/future.h"
#include "sim/task.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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

// --- frame ownership (sim/frames.h) ---

/// A local whose destructor proves its frame was destroyed.
struct DestroyFlag {
  bool* destroyed;
  ~DestroyFlag() { *destroyed = true; }
};

Co<int> ParkOnFuture(Future<int> f, bool* destroyed) {
  DestroyFlag flag{destroyed};
  const int v = co_await f;
  co_return v;
}

Co<void> ParkInSleep(Scheduler& s, bool* destroyed) {
  DestroyFlag flag{destroyed};
  co_await SleepFor(s, Seconds(1));
}

TEST(FrameOwnership, ParkedRootsAreDestroyedWithTheirScheduler) {
  bool on_future = false;
  bool in_sleep = false;
  std::size_t left = 99;
  {
    Scheduler s;
    s.MakeCurrent();  // every frame below comes from its pool
    s.SetTeardownHook([&left](std::size_t live) { left = live; });
    Promise<int> never(s);
    Future<int> parked = Spawn(s, ParkOnFuture(never.future(), &on_future));
    Detach(s, ParkInSleep(s, &in_sleep));
    s.RunFor(Milliseconds(1));
    EXPECT_FALSE(parked.ready());
    EXPECT_FALSE(on_future);
    EXPECT_FALSE(in_sleep);
    EXPECT_EQ(s.live_frames(), 4u);  // two roots, each over one frame
  }
  EXPECT_TRUE(on_future);
  EXPECT_TRUE(in_sleep);
  EXPECT_EQ(left, 0u);
}

TEST(FrameOwnership, DestroyRootsTakesTheAwaitedChainAlong) {
  Scheduler s;
  s.MakeCurrent();
  Promise<int> never(s);
  Future<int> parked = Spawn(s, Chain(never.future()));
  s.Run();
  EXPECT_EQ(s.live_frames(), 3u);  // the root, Chain, AwaitFuture
  s.DestroyRoots();
  EXPECT_EQ(s.live_frames(), 0u);
  EXPECT_FALSE(parked.ready());
}

/// Awaiting it records the awaiting coroutine's frame address and
/// continues without suspending.
struct FrameAddress {
  void** out;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Co<int> RecordFrame(void** out) {
  const FrameAddress here{out};
  co_await here;
  co_return 1;
}

Co<int> RecordTwice(void** first, void** second) {
  const int a = co_await RecordFrame(first);
  const int b = co_await RecordFrame(second);
  co_return a + b;
}

TEST(FrameOwnership, SameSizeFramesReuseOneSlot) {
  Scheduler s;
  s.MakeCurrent();
  void* first = nullptr;
  void* second = nullptr;
  Future<int> f = Spawn(s, RecordTwice(&first, &second));
  s.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.take(), 2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);  // the first frame's slot, reissued
  EXPECT_EQ(s.live_frames(), 0u);
}

TEST(FrameOwnership, AFreedSlotIsPoisoned) {
#if defined(__SANITIZE_ADDRESS__)
  Scheduler s;
  s.MakeCurrent();  // so the recorded frame is a slot, not heap
  void* frame = nullptr;
  Future<int> f = Spawn(s, RecordFrame(&frame));
  s.Run();
  ASSERT_TRUE(f.ready());
  ASSERT_NE(frame, nullptr);
  // A use of the destroyed frame would be reported, as on the heap.
  EXPECT_NE(__asan_address_is_poisoned(frame), 0);
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(FrameOwnership, AFrameComesFromTheCurrentPoolOrTheHeap) {
  {
    Scheduler gone;
    gone.MakeCurrent();
  }  // destroying it cleared Current()
  Scheduler s;
  ASSERT_EQ(Scheduler::Current(), nullptr);
  Co<int> from_heap = ReturnImmediately(1);  // created, never started
  EXPECT_EQ(s.live_frames(), 0u);
  s.MakeCurrent();
  {
    Co<int> from_pool = ReturnImmediately(2);
    EXPECT_EQ(s.live_frames(), 1u);
  }
  EXPECT_EQ(s.live_frames(), 0u);
}

}  // namespace
}  // namespace proxy::sim
