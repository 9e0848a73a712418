// Deterministic discrete-event scheduler.
//
// All concurrency in the runtime is cooperative: coroutines and callbacks
// are interleaved by this single-threaded event loop over *virtual* time.
// Two runs with the same seed execute the same events in the same order,
// which is what makes every test and benchmark replayable.
//
// The core is a hierarchical timer wheel (DESIGN.md §17): 8 levels of 256
// slots, each level covering one byte of the 64-bit nanosecond timestamp.
// An event lands at the level of the highest byte in which its deadline
// differs from the current time; advancing time cascades a covering slot
// down one level at a time until due events reach the level-0 slot for
// their exact instant, which is spliced — in insertion order — onto a
// same-instant FIFO run queue. Events live in a generation-stamped slab
// (freelist reuse, small-buffer-optimized callback storage), so the steady
// state allocates nothing and cancellation is an O(1) generation bump.
//
// Ordering semantics are bit-stable with the original heap-based core:
// events run in (timestamp, monotonic sequence) order, FIFO among equal
// timestamps — the wheel produces this order structurally, with no
// comparator (see DESIGN.md §17 for the invariant argument).
//
// Scheduling returns a move-only RAII `Timer` handle that cancels the
// event when dropped; use `.Detach()` for fire-and-forget work.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "sim/frames.h"

namespace proxy::sim {

class Scheduler;

namespace detail {

struct RootPromise;

/// The frame pool of the current scheduler, or null when none is
/// current (coroutine frames then come from the heap).
FramePool* CurrentFramePool() noexcept;

/// One-shot type-erased callable with inline small-buffer storage. The
/// slab stores one per event; callables up to kInlineBytes (which covers
/// every lambda the runtime posts, including network delivery closures
/// carrying a Bytes payload) are constructed in place — no heap traffic.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineCallback() noexcept = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  template <typename F>
  void Emplace(F&& fn) {
    assert(destroy_ == nullptr);
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      target_ = ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      target_ = new Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { delete static_cast<Fn*>(p); };
    }
  }

  void Invoke() { invoke_(target_); }

  void Reset() noexcept {
    if (destroy_ != nullptr) destroy_(target_);
    destroy_ = nullptr;
    invoke_ = nullptr;
    target_ = nullptr;
  }

  [[nodiscard]] bool empty() const noexcept { return destroy_ == nullptr; }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* target_ = nullptr;
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace detail

/// RAII handle for a scheduled event. Move-only: dropping the handle
/// cancels the event (an armed timer someone forgot is almost always a
/// bug — proxy_lint L5 flags a discarded temporary). Call `.Detach()` for
/// deliberate fire-and-forget work, `.Cancel()` to cancel explicitly.
class [[nodiscard]] Timer {
 public:
  Timer() noexcept = default;
  Timer(Timer&& other) noexcept
      : sched_(std::exchange(other.sched_, nullptr)),
        index_(other.index_),
        gen_(other.gen_) {}
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      Cancel();
      sched_ = std::exchange(other.sched_, nullptr);
      index_ = other.index_;
      gen_ = other.gen_;
    }
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { Cancel(); }

  /// Cancels the event. Returns true if it had not yet fired; cancelling
  /// a fired, detached or empty handle is a no-op returning false.
  bool Cancel() noexcept;

  /// Releases the handle without cancelling: the event fires on schedule.
  void Detach() noexcept { sched_ = nullptr; }

  /// True while the event is still queued (not fired, not cancelled).
  [[nodiscard]] bool armed() const noexcept;
  explicit operator bool() const noexcept { return armed(); }

 private:
  friend class Scheduler;
  Timer(Scheduler* sched, std::uint32_t index, std::uint32_t gen) noexcept
      : sched_(sched), index_(index), gen_(gen) {}

  Scheduler* sched_ = nullptr;  // null = empty/detached/cancelled
  std::uint32_t index_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler();
  /// Destroys the roots still parked (DestroyRoots), then fails loudly
  /// if a coroutine frame or a pooled object this scheduler issued is
  /// still live (see SetTeardownHook), then frees the slabs. Stops being
  /// Current().
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The scheduler currently driving events, or null. Set by Step() and
  /// by Spawn(), cleared when that scheduler is destroyed; used by
  /// coroutine plumbing that has no other way to reach its event loop
  /// (the runtime is single-threaded by design), and by frame
  /// allocation, which draws from the current scheduler's pool.
  static Scheduler* Current() noexcept;

  /// Marks this scheduler as the current one (normally automatic).
  void MakeCurrent() noexcept;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at the current time (after already-queued events at
  /// this instant — FIFO among equal timestamps).
  template <typename F>
  Timer Post(F&& fn) {
    return PostAt(now_, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now).
  template <typename F>
  Timer PostAt(SimTime t, F&& fn) {
    const std::uint32_t index = Enqueue(t < now_ ? now_ : t);
    Event& ev = EventAt(index);
    ev.fn.Emplace(std::forward<F>(fn));
    return Timer(this, index, ev.gen);
  }

  /// Schedules `fn` after a delay.
  template <typename F>
  Timer PostAfter(SimDuration d, F&& fn) {
    return PostAt(now_ + d, std::forward<F>(fn));
  }

  /// Runs the earliest live event. Returns false if none remain.
  bool Step();

  // The drive loops. Each makes this scheduler current first.
  /// Runs until the queue drains.
  void Run();
  /// Runs until `pred()` is true (checked before every event, and once
  /// more if the queue drains first); returns pred().
  bool RunUntil(std::function<bool()> pred);
  /// Runs events with timestamp <= now + d, then advances time to that
  /// instant (even if the queue drained earlier).
  void RunFor(SimDuration d);

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_run() const noexcept {
    return events_run_;
  }

  /// Live (non-cancelled) events still queued.
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  /// Observation hook: called once per executed event, before its
  /// callback runs, with (virtual time, event sequence number). The
  /// sequence number is the FIFO tiebreak — monotonic across Post calls —
  /// so it fingerprints a run's exact event interleaving; installed by
  /// the chaos harness's trace recorder, unset in normal operation.
  using StepHook = std::function<void(SimTime, std::uint64_t)>;
  void SetStepHook(StepHook hook) { step_hook_ = std::move(hook); }

  // --- frame ownership (sim/frames.h, DESIGN.md §17) ---

  /// Coroutine frames this scheduler's pool issued and has not freed.
  [[nodiscard]] std::size_t live_frames() const noexcept {
    return frames_.live();
  }

  /// Allocator for per-call objects: future states, pending-call and
  /// reply-cache nodes. They come from this scheduler's object pool, a
  /// FramePool of their own, so the frame count above stays a count of
  /// frames; each must die before the scheduler does.
  template <typename T>
  [[nodiscard]] SlabAllocator<T> allocator() noexcept {
    return SlabAllocator<T>(objects_);
  }

  /// Objects the object pool issued and has not freed.
  [[nodiscard]] std::size_t live_objects() const noexcept {
    return objects_.live();
  }

  /// Destroys every root frame (Spawn / Detach) still registered, newest
  /// first; each takes the frames it awaits with it. Teardown only: an
  /// event that would resume a destroyed frame must never run, so the
  /// owner calls this after its last Step, before the objects those
  /// frames point into die.
  void DestroyRoots() noexcept;

  /// Teardown observation hook: the destructor calls it with the number
  /// of frames still live once every registered root is destroyed, and
  /// does not abort when it is set. Installed by the chaos harness,
  /// which turns a nonzero count into a violation; unset, a live frame
  /// or pooled object at teardown aborts the process.
  using TeardownHook = std::function<void(std::size_t live_frames)>;
  void SetTeardownHook(TeardownHook hook) { teardown_hook_ = std::move(hook); }

  /// Chaos-harness fault hook: with the registry off, new roots are not
  /// registered, so teardown cannot find the parked ones (the behaviour
  /// before frames were owned). Never disable outside adversarial tests.
  void set_testing_root_registry(bool enabled) noexcept {
    root_registry_ = enabled;
  }

 private:
  friend class Timer;
  friend struct detail::RootPromise;
  friend detail::FramePool* detail::CurrentFramePool() noexcept;

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr int kLevels = 8;    // one per byte of SimTime
  static constexpr int kSlots = 256;   // slots per level
  static constexpr std::uint32_t kBlockShift = 8;
  static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;  // events

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;     // monotonic; the FIFO tiebreak
    std::uint32_t next = kNil; // intrusive slot-list / freelist link
    std::uint32_t gen = 0;     // bumped when fired or cancelled
    bool armed = false;
    detail::InlineCallback fn;
  };

  /// Singly-linked intrusive list with O(1) append and splice. Append
  /// order is insertion order, which is what makes FIFO structural.
  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    [[nodiscard]] bool empty() const noexcept { return head == kNil; }
  };

  Event& EventAt(std::uint32_t index) noexcept {
    return blocks_[index >> kBlockShift][index & (kBlockSize - 1)];
  }
  [[nodiscard]] const Event& EventAt(std::uint32_t index) const noexcept {
    return blocks_[index >> kBlockShift][index & (kBlockSize - 1)];
  }

  // Slab + wheel plumbing (scheduler.cpp).
  std::uint32_t Enqueue(SimTime t);
  std::uint32_t AllocEvent();
  void FreeEvent(std::uint32_t index) noexcept;
  void InsertIntoWheel(std::uint32_t index, SimTime t) noexcept;
  void Append(SlotList& list, std::uint32_t index) noexcept;
  /// Next live event to run (advancing time past empty regions), or kNil
  /// if none is due at or before `limit`.
  std::uint32_t NextRunnable(SimTime limit);
  /// Refills the run queue from the wheel: cascades covering slots and
  /// splices the next due level-0 slot. False when drained or when the
  /// next region starts after `limit`.
  bool Advance(SimTime limit);
  void RunEvent(std::uint32_t index);

  // Timer backend.
  bool CancelEvent(std::uint32_t index, std::uint32_t gen) noexcept;
  [[nodiscard]] bool EventArmed(std::uint32_t index,
                                std::uint32_t gen) const noexcept;

  /// Links a root frame at the head of the registry (RootPromise).
  void AdoptRoot(detail::RootLink& root) noexcept;

  // First members, so destroyed last: every other member dies with the
  // pools still able to take frames and objects back.
  detail::FramePool frames_;
  detail::FramePool objects_;
  detail::RootLink roots_;  // sentinel of the root registry
  bool root_registry_ = true;
  TeardownHook teardown_hook_;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_run_ = 0;
  std::size_t live_count_ = 0;

  SlotList run_queue_;                  // events due exactly at now_
  SlotList wheel_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels][kSlots / 64] = {};

  std::vector<std::unique_ptr<Event[]>> blocks_;
  std::uint32_t slab_size_ = 0;         // high-water mark of used indices
  std::uint32_t free_head_ = kNil;

  StepHook step_hook_;
};

inline bool Timer::Cancel() noexcept {
  if (sched_ == nullptr) return false;
  Scheduler* sched = std::exchange(sched_, nullptr);
  return sched->CancelEvent(index_, gen_);
}

inline bool Timer::armed() const noexcept {
  return sched_ != nullptr && sched_->EventArmed(index_, gen_);
}

}  // namespace proxy::sim
