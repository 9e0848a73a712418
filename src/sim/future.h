// Future / Promise over simulated time.
//
// A Future<T> is the single-consumer side of a one-shot value produced
// elsewhere in the event loop (an RPC reply, a migration completion, a
// lease renewal). It can be `co_await`ed from a Co<> coroutine or polled
// by driver code after running the scheduler.
//
// Resumption of an awaiting coroutine is *posted* to the scheduler rather
// than run inline, so completion order is governed by the event queue and
// stays deterministic and stack-bounded.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "sim/scheduler.h"

namespace proxy::sim {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(Scheduler& sched) : scheduler(&sched) {}

  Scheduler* scheduler;
  std::optional<T> value;
  std::coroutine_handle<> waiter;  // at most one awaiting coroutine

  /// Delivers the value exactly once; later calls are ignored (e.g. a
  /// late reply racing a timeout that already completed the future).
  bool Set(T&& v) {
    if (value.has_value()) return false;
    value.emplace(std::move(v));
    if (waiter) {
      auto h = std::exchange(waiter, nullptr);
      scheduler->Post([h] { h.resume(); }).Detach();
    }
    return true;
  }
};

}  // namespace detail

template <typename T>
class Promise;

template <typename T>
class [[nodiscard]] Future {
 public:
  Future() = default;

  /// True once the value has been produced.
  [[nodiscard]] bool ready() const noexcept {
    return state_ && state_->value.has_value();
  }

  /// Peeks at the value; only valid when ready().
  [[nodiscard]] const T& peek() const {
    assert(ready());
    return *state_->value;
  }

  /// Takes the value out; only valid when ready().
  [[nodiscard]] T take() {
    assert(ready());
    return std::move(*state_->value);
  }

  // --- awaitable interface ---
  [[nodiscard]] bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    assert(state_ && !state_->waiter);
    state_->waiter = h;
  }
  T await_resume() { return std::move(*state_->value); }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  /// The shared state comes from `sched`'s object pool.
  explicit Promise(Scheduler& sched)
      : state_(std::allocate_shared<detail::FutureState<T>>(
            sched.allocator<detail::FutureState<T>>(), sched)) {}

  [[nodiscard]] Future<T> future() const { return Future<T>(state_); }

  /// Fulfills the future. Returns false if it was already fulfilled.
  bool Set(T value) const { return state_->Set(std::move(value)); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Awaitable that resumes the coroutine after `d` of virtual time.
class SleepAwaiter {
 public:
  SleepAwaiter(Scheduler& sched, SimDuration d) noexcept
      : sched_(&sched), delay_(d) {}

  [[nodiscard]] bool await_ready() const noexcept { return delay_ == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sched_->PostAfter(delay_, [h] { h.resume(); }).Detach();
  }
  void await_resume() const noexcept {}

 private:
  Scheduler* sched_;
  SimDuration delay_;
};

inline SleepAwaiter SleepFor(Scheduler& sched, SimDuration d) noexcept {
  return {sched, d};
}

}  // namespace proxy::sim
