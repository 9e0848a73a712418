// Coroutine frame ownership: the slab pool frames come from, and the
// registry of root frames a scheduler destroys at teardown.
//
// Every coroutine frame (sim/task.h) is allocated through FramePool:
// size-class free lists over fixed 4 KiB slabs, owned by the scheduler
// that is current when the frame is created. Each slot starts with a
// header naming the pool that issued it, so a frame goes back to its own
// pool without asking which scheduler is current when it dies; with no
// current scheduler (or a frame larger than a slab) it comes from the
// heap and its header says so. Slabs are never returned before the pool
// dies, so a warm call path allocates nothing for its frames, and every
// slab dies with its scheduler (DESIGN.md §17, "Frame ownership").
//
// The per-call objects that live exactly as long as a call (future
// states, pending-call and reply-cache nodes) come from a second
// FramePool of the same scheduler, through SlabAllocator.
//
// A root frame (Spawn / Detach) also links a RootLink into its
// scheduler's registry for as long as it exists, which is how teardown
// finds the roots still parked on a future or a timer.
#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define PROXY_POISON_FRAME(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PROXY_UNPOISON_FRAME(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PROXY_POISON_FRAME(p, n) ((void)(p), (void)(n))
#define PROXY_UNPOISON_FRAME(p, n) ((void)(p), (void)(n))
#endif

namespace proxy::sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kSlabBytes = 4096;
  /// Slot sizes are multiples of this; one free list per multiple.
  static constexpr std::size_t kGranule = 64;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  /// Frees every slab; the owner checks live() first.
  ~FramePool();

  /// Storage for an `n`-byte frame: a slot of `pool`, or the heap when
  /// `pool` is null or the frame does not fit a slab.
  static void* Allocate(FramePool* pool, std::size_t n) {
    const std::size_t bytes = SlotBytes(n);
    if (pool == nullptr || bytes > kSlabBytes - sizeof(Slab)) {
      auto* slot = static_cast<Slot*>(::operator new(sizeof(Slot) + n));
      slot->owner = nullptr;
      return slot + 1;
    }
    Slot*& head = pool->free_[bytes / kGranule];
    if (head == nullptr) pool->Carve(bytes);
    Slot* slot = head;
    head = slot->next_free;
    ++pool->live_;
    PROXY_UNPOISON_FRAME(slot + 1, n);
    return slot + 1;
  }

  /// Returns an `n`-byte frame to whichever pool issued it (or to the
  /// heap). A freed slot stays poisoned under ASan until it is reissued.
  static void Free(void* frame, std::size_t n) noexcept {
    Slot* slot = static_cast<Slot*>(frame) - 1;
    FramePool* pool = slot->owner;
    if (pool == nullptr) {
      ::operator delete(slot, sizeof(Slot) + n);
      return;
    }
    const std::size_t bytes = SlotBytes(n);
    PROXY_POISON_FRAME(frame, bytes - sizeof(Slot));
    Slot*& head = pool->free_[bytes / kGranule];
    slot->next_free = head;
    head = slot;
    --pool->live_;
  }

  /// Frames this pool issued that are not yet freed.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

 private:
  /// The header in front of every frame, pooled or not. 16 bytes, so
  /// the frame keeps the default new alignment.
  struct alignas(16) Slot {
    FramePool* owner;  // null: the frame came from the heap
    Slot* next_free;   // free-list link while the slot is unused
  };
  /// The header of a slab: the pool's intrusive list of its slabs.
  struct alignas(16) Slab {
    Slab* next;
  };
  static constexpr std::size_t kClasses = kSlabBytes / kGranule;

  static constexpr std::size_t SlotBytes(std::size_t n) noexcept {
    return (sizeof(Slot) + n + kGranule - 1) / kGranule * kGranule;
  }
  /// Carves a fresh slab into `bytes`-sized slots on that class's list.
  void Carve(std::size_t bytes);

  Slot* free_[kClasses] = {};
  Slab* slabs_ = nullptr;
  std::size_t live_ = 0;
};

/// A root frame's entry in its scheduler's registry. Intrusive, so
/// linking allocates nothing; a lone entry is its own neighbour, and
/// unlinking one is a no-op.
struct RootLink {
  RootLink() noexcept = default;
  RootLink(const RootLink&) = delete;
  RootLink& operator=(const RootLink&) = delete;
  ~RootLink() { Unlink(); }

  void Unlink() noexcept {
    prev->next = next;
    next->prev = prev;
    prev = next = this;
  }

  RootLink* prev = this;
  RootLink* next = this;
  std::coroutine_handle<> frame;
};

}  // namespace proxy::sim::detail

namespace proxy::sim {

/// The standard allocator over a FramePool, for containers and shared
/// states whose elements each live no longer than the call they serve
/// (Scheduler::allocator). It names the pool it allocates from; freeing
/// goes through the slot header, as for frames, so any two compare
/// equal and the pool must outlive every element.
template <typename T>
class SlabAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  explicit SlabAllocator(detail::FramePool& pool) noexcept : pool_(&pool) {}
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& other) noexcept  // NOLINT(implicit)
      : pool_(other.pool_) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(detail::FramePool::Allocate(pool_, n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::FramePool::Free(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const SlabAllocator<U>& /*other*/) const noexcept {
    return true;
  }

 private:
  template <typename U>
  friend class SlabAllocator;

  detail::FramePool* pool_;
};

}  // namespace proxy::sim
