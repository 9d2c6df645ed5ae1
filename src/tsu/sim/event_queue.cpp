#include "tsu/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "tsu/util/assert.hpp"

namespace tsu::sim {

namespace {

// The heap vector is a max-heap under Entry's inverted comparison, so
// front() is the earliest event. These helpers keep the call sites honest
// (templates: Entry is private to EventQueue).
template <typename Entry>
inline void heap_push(std::vector<Entry>& heap, Entry entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end());
}

template <typename Entry>
inline void heap_pop(std::vector<Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end());
  heap.pop_back();
}

}  // namespace

EventId EventQueue::push(SimTime at, EventFn fn, Band band, SimTime posted_at,
                         std::uint64_t remote_seq) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // The free list can hold at most one entry per slot. Growing it in
    // lockstep with the arena's geometric capacity keeps retire() - which
    // is noexcept and runs on the pop/cancel hot path - from ever
    // allocating.
    if (free_.capacity() < slots_.capacity()) free_.reserve(slots_.capacity());
  }
  Slot& s = slots_[slot];
  s.time = at;
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  s.band = band;
  s.pending = true;
  // Remote entries tie-break on the post key, native entries on push
  // order.
  const std::uint64_t major = band == Band::kRemote ? posted_at : s.seq;
  const std::uint64_t minor = band == Band::kRemote ? remote_seq : 0;
  heap_push(heap_, Entry{at, major, minor, slot, s.gen, band});
  ++live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.pending) return false;
  // Eager release: retire() destroys the closure NOW, so captured frames
  // and request state never outlive the cancel. Only the heap entries
  // linger (invalidated by the generation bump) until skimmed.
  retire(slot);
  --live_;
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinimum) return;
  if (heap_.size() <= kCompactSlack * live_) return;
  // In place over the retained capacity: erase the dead entries, restore
  // the heap property. No allocation - cancel churn is part of the
  // allocation-free steady state (tests/hotpath_alloc_test.cpp).
  const auto dead = [this](const Entry& entry) { return !entry_live(entry); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end());
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

SimTime EventQueue::next_time() const {
  TSU_ASSERT_MSG(!empty(), "next_time on empty queue");
  // The heap may have cancelled entries at the top; skim them off lazily.
  auto* self = const_cast<EventQueue*>(this);
  while (!self->heap_.empty() && !entry_live(self->heap_.front()))
    heap_pop(self->heap_);
  TSU_ASSERT(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  TSU_ASSERT_MSG(!empty(), "pop on empty queue");
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    heap_pop(heap_);
    if (!entry_live(top)) continue;  // cancelled
    Slot& s = slots_[top.slot];
    Fired fired{top.time, std::move(s.fn)};
    retire(top.slot);
    --live_;
    return fired;
  }
  TSU_ASSERT_MSG(false, "live_ count out of sync with heap");
  return Fired{0, nullptr};
}

}  // namespace tsu::sim
