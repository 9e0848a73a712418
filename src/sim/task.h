// Coroutine task types.
//
// Co<T> is a *lazy* coroutine: creating one does nothing until it is
// co_awaited (which chains it onto the awaiting coroutine via symmetric
// transfer) or handed to Spawn(), which starts it as a root activity and
// exposes its result as a Future<T>, or to Detach(), which starts it as a
// root whose result nobody reads.
//
// Every frame comes from the current scheduler's slab pool, and every
// root is registered with its scheduler until it completes: a Co owns
// the frame it will await, so destroying the parked roots at teardown
// destroys every frame below them (sim/frames.h, DESIGN.md §17).
//
// Exceptions escaping a coroutine terminate the program by design:
// expected failures travel as Result values, so an exception here is a
// programmer error (see DESIGN.md design rules).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/future.h"
#include "sim/scheduler.h"

namespace proxy::sim {

template <typename T>
class Co;

namespace detail {

/// Frame storage for every promise type: the current scheduler's pool,
/// else the heap. The slot remembers its pool, so freeing consults
/// nothing else.
struct FrameAllocation {
  static void* operator new(std::size_t n) {
    return FramePool::Allocate(CurrentFramePool(), n);
  }
  static void operator delete(void* frame, std::size_t n) noexcept {
    FramePool::Free(frame, n);
  }
};

// The continuation is *posted* to the scheduler rather than resumed by
// symmetric transfer. Besides keeping completion ordering queue-driven,
// this is load-bearing: GCC 12's symmetric transfer lets a continuation
// destroy the completed coroutine's frame while that coroutine's actor
// invocation is still on the native stack, double-destroying by-value
// parameters (reproduced in isolation; see DESIGN.md "toolchain notes").
// Posting means the actor always returns to the event loop before the
// continuation — and therefore any frame destruction — runs.
struct FinalAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename P>
  void await_suspend(std::coroutine_handle<P> h) const noexcept {
    if (auto cont = h.promise().continuation) {
      Scheduler::Current()->Post([cont] { cont.resume(); }).Detach();
    }
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct CoPromiseBase : FrameAllocation {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  [[noreturn]] void unhandled_exception() { std::terminate(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase<T> {
    std::optional<T> value;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Co(Co&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~Co() {
    if (h_) h_.destroy();
  }

  // --- awaitable interface (transfers execution into this coroutine) ---
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    assert(h_.promise().value.has_value());
    return std::move(*h_.promise().value);
  }

 private:
  template <typename U>
  friend Future<U> Spawn(Scheduler& sched, Co<U> co);

  explicit Co(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase<void> {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Co(Co&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~Co() {
    if (h_) h_.destroy();
  }

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() const noexcept {}

 private:
  friend Future<bool> Spawn(Scheduler& sched, Co<void> co);

  explicit Co(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

namespace detail {

struct RootTask;

/// Promise of a root frame. The frame links itself into the registry of
/// the scheduler it is started on (the root's first parameter) and
/// unlinks when it completes or is destroyed at teardown.
struct RootPromise : FrameAllocation, RootLink {
  template <typename... Args>
  explicit RootPromise(Scheduler& sched, Args&... /*unused*/) noexcept {
    frame = std::coroutine_handle<RootPromise>::from_promise(*this);
    sched.AdoptRoot(*this);
  }
  RootTask get_return_object() noexcept;
  std::suspend_never initial_suspend() noexcept { return {}; }
  std::suspend_never final_suspend() noexcept { return {}; }
  void return_void() noexcept {}
  [[noreturn]] void unhandled_exception() { std::terminate(); }
};

/// Self-destroying eager coroutine used as the root of a started chain.
struct RootTask {
  using promise_type = RootPromise;
};

inline RootTask RootPromise::get_return_object() noexcept { return {}; }

template <typename T>
RootTask RunRoot(Scheduler& /*sched*/, Co<T> co, Promise<T> done) {
  done.Set(co_await std::move(co));
}

inline RootTask RunRootVoid(Scheduler& /*sched*/, Co<void> co,
                            Promise<bool> done) {
  co_await std::move(co);
  done.Set(true);
}

template <typename T>
RootTask RunDetached(Scheduler& /*sched*/, Co<T> co) {
  (void)co_await std::move(co);
}

}  // namespace detail

/// Starts `co` as a root activity on `sched`. The coroutine begins
/// executing immediately (up to its first suspension point); its result
/// is delivered through the returned future.
template <typename T>
Future<T> Spawn(Scheduler& sched, Co<T> co) {
  sched.MakeCurrent();  // completions posted before the first Step
  Promise<T> done(sched);
  detail::RunRoot(sched, std::move(co), done);
  return done.future();
}

/// Void overload: the future reports completion as `true`.
inline Future<bool> Spawn(Scheduler& sched, Co<void> co) {
  sched.MakeCurrent();
  Promise<bool> done(sched);
  detail::RunRootVoid(sched, std::move(co), done);
  return done.future();
}

/// Starts `co` as a root activity on `sched` whose result nobody reads:
/// Spawn without the future, so it allocates no shared state. The root
/// runs, completes and is destroyed exactly as a spawned one is.
template <typename T>
void Detach(Scheduler& sched, Co<T> co) {
  sched.MakeCurrent();
  detail::RunDetached(sched, std::move(co));
}

}  // namespace proxy::sim
