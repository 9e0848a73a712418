#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace proxy::sim {

namespace {

Scheduler* g_current = nullptr;

/// First occupied slot at or after `from` in a 256-bit occupancy row,
/// or -1 if the rest of the row is empty.
int FindOccupied(const std::uint64_t words[4], int from) noexcept {
  std::uint64_t mask = ~std::uint64_t{0} << (from & 63);
  for (int word = from >> 6; word < 4; ++word) {
    const std::uint64_t bits = words[word] & mask;
    if (bits != 0) return word * 64 + std::countr_zero(bits);
    mask = ~std::uint64_t{0};
  }
  return -1;
}

}  // namespace

Scheduler::Scheduler() = default;

Scheduler::~Scheduler() {
  DestroyRoots();
  const std::size_t live = frames_.live();
  if (teardown_hook_) {
    teardown_hook_(live);
  } else if (live != 0) {
    // A frame outside every root (a Co kept past its scheduler, or a
    // root that escaped the registry) would point into a freed slab.
    std::fprintf(stderr,
                 "sim::Scheduler destroyed with %zu coroutine frame(s) it "
                 "issued still live\n",
                 live);
    std::abort();
  }
  if (g_current == this) g_current = nullptr;
}

Scheduler* Scheduler::Current() noexcept { return g_current; }

void Scheduler::MakeCurrent() noexcept { g_current = this; }

detail::FramePool* detail::CurrentFramePool() noexcept {
  return g_current == nullptr ? nullptr : &g_current->frames_;
}

void Scheduler::AdoptRoot(detail::RootLink& root) noexcept {
  if (!root_registry_) return;
  root.prev = &roots_;
  root.next = roots_.next;
  roots_.next->prev = &root;
  roots_.next = &root;
}

void Scheduler::DestroyRoots() noexcept {
  // Each destroy unlinks that root (its promise's destructor), so the
  // head is always the newest root still parked.
  while (roots_.next != &roots_) roots_.next->frame.destroy();
}

std::uint32_t Scheduler::AllocEvent() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = EventAt(index).next;
    return index;
  }
  if ((slab_size_ >> kBlockShift) == blocks_.size()) {
    blocks_.push_back(std::make_unique<Event[]>(kBlockSize));
  }
  return slab_size_++;
}

void Scheduler::FreeEvent(std::uint32_t index) noexcept {
  Event& ev = EventAt(index);
  ev.fn.Reset();
  ev.armed = false;
  ev.next = free_head_;
  free_head_ = index;
}

void Scheduler::Append(SlotList& list, std::uint32_t index) noexcept {
  EventAt(index).next = kNil;
  if (list.head == kNil) {
    list.head = index;
  } else {
    EventAt(list.tail).next = index;
  }
  list.tail = index;
}

void Scheduler::InsertIntoWheel(std::uint32_t index, SimTime t) noexcept {
  // The event belongs at the level of the highest byte in which its
  // deadline differs from now: only after time enters that byte's region
  // (cascading the covering slot) can it sink toward level 0. This is
  // what keeps FIFO structural — a slot can never receive a direct
  // insert after it has started accumulating cascaded events.
  const SimTime diff = t ^ now_;
  assert(t > now_);
  const int level = (63 - std::countl_zero(diff)) >> 3;
  const int slot = static_cast<int>((t >> (8 * level)) & 0xFF);
  Append(wheel_[level][slot], index);
  occupied_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

std::uint32_t Scheduler::Enqueue(SimTime t) {
  g_current = this;
  const std::uint32_t index = AllocEvent();
  Event& ev = EventAt(index);
  ev.time = t;
  ev.seq = next_seq_++;
  ev.next = kNil;
  ev.armed = true;
  ++live_count_;
  if (t == now_) {
    // Due at the current instant: straight onto the FIFO run queue,
    // after everything already queued for this instant.
    Append(run_queue_, index);
  } else {
    InsertIntoWheel(index, t);
  }
  return index;
}

bool Scheduler::CancelEvent(std::uint32_t index, std::uint32_t gen) noexcept {
  if (index >= slab_size_) return false;
  Event& ev = EventAt(index);
  if (ev.gen != gen || !ev.armed) return false;
  ev.armed = false;
  ev.gen++;       // stale handles to a reused slot (ABA) now miss
  ev.fn.Reset();  // drop captures eagerly; the node unlinks lazily
  --live_count_;
  return true;
}

bool Scheduler::EventArmed(std::uint32_t index,
                           std::uint32_t gen) const noexcept {
  if (index >= slab_size_) return false;
  const Event& ev = EventAt(index);
  return ev.gen == gen && ev.armed;
}

bool Scheduler::Advance(SimTime limit) {
  while (run_queue_.empty()) {
    if (live_count_ == 0) return false;
    // The earliest pending region is the first occupied slot at/after the
    // cursor on the lowest occupied level: lower levels always hold
    // earlier deadlines (their higher bytes match now's), and within a
    // level the slot index orders regions.
    int level = 0;
    int slot = -1;
    for (; level < kLevels; ++level) {
      const int cursor = static_cast<int>((now_ >> (8 * level)) & 0xFF);
      slot = FindOccupied(occupied_[level], cursor);
      if (slot >= 0) break;
    }
    assert(level < kLevels && slot >= 0);

    // Start of the region this slot covers: now's bytes above `level`,
    // byte `level` replaced by `slot`, lower bytes zeroed. Every event in
    // the slot is at or after it.
    const SimTime high = level == kLevels - 1
                             ? 0
                             : (now_ & (~SimTime{0} << (8 * (level + 1))));
    const SimTime region_start =
        high | (static_cast<SimTime>(static_cast<unsigned>(slot))
                << (8 * level));
    if (region_start > limit) return false;  // slot left in place

    now_ = region_start;
    SlotList list = wheel_[level][slot];
    wheel_[level][slot] = SlotList{};
    occupied_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));

    if (level == 0) {
      // A level-0 slot holds events with the identical timestamp
      // (== region_start): splice the whole list, insertion order
      // intact, onto the run queue.
      if (run_queue_.head == kNil) {
        run_queue_ = list;
      } else {
        EventAt(run_queue_.tail).next = list.head;
        run_queue_.tail = list.tail;
      }
    } else {
      // Cascade one level down, preserving insertion order. Lower-level
      // slots of this region are necessarily empty (no direct insert can
      // target a region time hasn't entered), so append order stays seq
      // order. Cancelled events are reclaimed here, not reinserted.
      for (std::uint32_t i = list.head; i != kNil;) {
        Event& ev = EventAt(i);
        const std::uint32_t next = ev.next;
        if (!ev.armed) {
          FreeEvent(i);
        } else if (ev.time == now_) {
          Append(run_queue_, i);
        } else {
          InsertIntoWheel(i, ev.time);
        }
        i = next;
      }
    }
  }
  return true;
}

std::uint32_t Scheduler::NextRunnable(SimTime limit) {
  for (;;) {
    while (run_queue_.head != kNil) {
      const std::uint32_t index = run_queue_.head;
      Event& ev = EventAt(index);
      run_queue_.head = ev.next;
      if (run_queue_.head == kNil) run_queue_.tail = kNil;
      if (!ev.armed) {
        FreeEvent(index);  // cancelled while queued; reclaim lazily
        continue;
      }
      return index;
    }
    if (!Advance(limit)) return kNil;
  }
}

void Scheduler::RunEvent(std::uint32_t index) {
  Event& ev = EventAt(index);
  assert(ev.time == now_);
  // Consume before running: a self-Cancel from inside the callback is a
  // no-op returning false, exactly as with the old lazy-cancel heap.
  ev.armed = false;
  ev.gen++;
  --live_count_;
  ++events_run_;
  if (step_hook_) step_hook_(ev.time, ev.seq);
  ev.fn.Invoke();
  // Reclaim only after the callback returns: it runs out of the slab
  // node, and freeing first would let a Post from inside it reuse (and
  // clobber) the storage mid-flight.
  FreeEvent(index);
}

bool Scheduler::Step() {
  g_current = this;
  const std::uint32_t index = NextRunnable(~SimTime{0});
  if (index == kNil) return false;
  RunEvent(index);
  return true;
}

void Scheduler::Run() {
  g_current = this;
  while (Step()) {
  }
}

bool Scheduler::RunUntil(std::function<bool()> pred) {
  g_current = this;
  while (!pred()) {
    if (!Step()) return pred();
  }
  return true;
}

void Scheduler::RunFor(SimDuration d) {
  g_current = this;
  const SimTime deadline = now_ + d;
  for (;;) {
    const std::uint32_t index = NextRunnable(deadline);
    if (index == kNil) break;
    RunEvent(index);
  }
  now_ = deadline;
}

}  // namespace proxy::sim
