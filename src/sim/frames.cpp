#include "sim/frames.h"

#include <new>

namespace proxy::sim::detail {

FramePool::~FramePool() {
  while (slabs_ != nullptr) {
    Slab* slab = slabs_;
    slabs_ = slab->next;
    PROXY_UNPOISON_FRAME(slab, kSlabBytes);
    ::operator delete(slab, kSlabBytes);
  }
}

void FramePool::Carve(std::size_t bytes) {
  auto* slab = static_cast<Slab*>(::operator new(kSlabBytes));
  slab->next = slabs_;
  slabs_ = slab;
  // Slots in address order: the first one carved is the first issued.
  auto* base = reinterpret_cast<unsigned char*>(slab + 1);
  Slot*& head = free_[bytes / kGranule];
  for (std::size_t i = (kSlabBytes - sizeof(Slab)) / bytes; i-- > 0;) {
    auto* slot = reinterpret_cast<Slot*>(base + i * bytes);
    slot->owner = this;
    slot->next_free = head;
    head = slot;
    PROXY_POISON_FRAME(slot + 1, bytes - sizeof(Slot));
  }
}

}  // namespace proxy::sim::detail
