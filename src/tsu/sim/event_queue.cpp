#include "tsu/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "tsu/util/assert.hpp"

namespace tsu::sim {

EventId EventQueue::push(SimTime at, EventFn fn, Band band, SimTime posted_at,
                         std::uint64_t remote_seq) {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    TSU_ASSERT_MSG(slots_.size() <= kSlotMask, "event arena exceeds 2^24 slots");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  TSU_ASSERT_MSG(seq < (std::uint64_t{1} << (64 - kSlotBits)),
                 "event sequence exceeds its packed width");
  Slot& s = slots_[slot];
  s.seq = seq;
  s.fn = std::move(fn);
  const std::uint64_t tag = seq << kSlotBits | slot;
  if (band == Band::kRemote) {
    remote_.push_back(RemoteKey{at, posted_at, remote_seq, tag});
    std::push_heap(remote_.begin(), remote_.end(), fires_after);
  } else if (!append_to_lane(Key{at, tag})) {
    heap_push(Key{at, tag});
    ++counters_.heap_spills;
  }
  cached_ = kNone;
  ++live_;
  return tag;
}

bool EventQueue::append_to_lane(const Key& key) {
  if (key.time < last_pop_) {
    spill_delay_ = std::numeric_limits<Duration>::max();
    return false;
  }
  const Duration delay = key.time - last_pop_;
  std::size_t lane = 0;
  while (lane < lanes_claimed_ && lanes_[lane].delay != delay) ++lane;
  if (lane == lanes_claimed_) {
    if (delay != spill_delay_) {
      spill_delay_ = delay;
      return false;
    }
    // A repeated spill: recycle the least recently used empty lane, or
    // start a fresh one once every claimed lane is busy.
    std::size_t pick = kLanes;
    for (std::size_t i = 0; i < lanes_claimed_; ++i)
      if ((active_ >> i & 1) == 0 &&
          (pick == kLanes || lanes_[i].last_used < lanes_[pick].last_used))
        pick = i;
    if (pick == kLanes) {
      if (lanes_claimed_ == kLanes) return false;
      pick = lanes_claimed_++;
    }
    lanes_[pick].delay = delay;
    lane = pick;
    ++counters_.lane_claims;
  }
  Lane& target = lanes_[lane];
  if (!target.ring.empty() && target.ring.back().time > key.time) return false;
  target.ring.push_back(key);
  target.last_used = key.tag >> kSlotBits;
  active_ |= std::uint32_t{1} << lane;
  ++counters_.lane_appends;
  return true;
}

void EventQueue::heap_push(const Key& key) {
  heap_.push_back(key);
  sift_up(heap_.size() - 1, key);
}

void EventQueue::sift_up(std::size_t hole, const Key& key) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::heap_pop() noexcept {
  const std::size_t n = heap_.size() - 1;
  const Key last = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  // Floyd: walk the hole from the root to a leaf along the smaller child
  // (one compare per level), then sift the displaced last entry up from
  // there - it almost always belongs near the bottom.
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    heap_[hole] = heap_[child];
    hole = child;
  }
  sift_up(hole, last);
}

int EventQueue::select() noexcept {
  if (cached_ != kNone) return cached_;
  int src = kNone;
  Key best{};
  for (std::uint32_t bits = active_; bits != 0; bits &= bits - 1) {
    const int i = std::countr_zero(bits);
    util::FlatRing<Key>& ring = lanes_[static_cast<std::size_t>(i)].ring;
    while (!ring.empty() && !live(ring.front().tag)) ring.pop_front();
    if (ring.empty()) {
      active_ &= ~(std::uint32_t{1} << i);
      continue;
    }
    if (src == kNone || before(ring.front(), best)) {
      best = ring.front();
      src = i;
    }
  }
  while (!heap_.empty() && !live(heap_.front().tag)) heap_pop();
  if (!heap_.empty() && (src == kNone || before(heap_.front(), best))) {
    best = heap_.front();
    src = kHeap;
  }
  while (!remote_.empty() && !live(remote_.front().tag)) {
    std::pop_heap(remote_.begin(), remote_.end(), fires_after);
    remote_.pop_back();
  }
  // Natives fire first at equal times: a remote entry wins only strictly.
  if (!remote_.empty() && (src == kNone || remote_.front().time < best.time)) {
    best.time = remote_.front().time;
    src = kRemote;
  }
  TSU_ASSERT_MSG(src != kNone, "live count out of sync with the queue");
  cached_ = src;
  cached_time_ = best.time;
  return src;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (slot >= slots_.size() || slots_[slot].seq != id >> kSlotBits)
    return false;
  // Eager release: retire() destroys the closure NOW, so captured frames
  // and request state never outlive the cancel. Only the queue entry
  // lingers (invalidated with the slot's seq) until skimmed.
  retire(slot);
  --live_;
  cached_ = kNone;
  drop_if_newest(id);
  maybe_compact();
  return true;
}

void EventQueue::drop_if_newest(std::uint64_t tag) noexcept {
  // The last element of a binary heap is a leaf and a lane's tail is its
  // newest entry: either comes off without disturbing the order.
  for (std::uint32_t bits = active_; bits != 0; bits &= bits - 1) {
    const int i = std::countr_zero(bits);
    util::FlatRing<Key>& ring = lanes_[static_cast<std::size_t>(i)].ring;
    if (ring.back().tag != tag) continue;
    ring.pop_back();
    if (ring.empty()) active_ &= ~(std::uint32_t{1} << i);
    return;
  }
  if (!heap_.empty() && heap_.back().tag == tag) {
    heap_.pop_back();
  } else if (!remote_.empty() && remote_.back().tag == tag) {
    remote_.pop_back();
  }
}

std::size_t EventQueue::heap_size() const noexcept {
  std::size_t entries = heap_.size() + remote_.size();
  for (std::size_t i = 0; i < lanes_claimed_; ++i)
    entries += lanes_[i].ring.size();
  return entries;
}

void EventQueue::maybe_compact() {
  const std::size_t entries = heap_size();
  if (entries < kCompactMinimum) return;
  if (entries <= kCompactSlack * live_) return;
  // In place over the retained capacity: erase the dead entries, restore
  // the heap property (lanes keep their order). No allocation - cancel
  // churn is part of the allocation-free steady state
  // (tests/hotpath_alloc_test.cpp).
  const auto dead = [this](const auto& entry) { return !live(entry.tag); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Key& a, const Key& b) { return before(b, a); });
  remote_.erase(std::remove_if(remote_.begin(), remote_.end(), dead),
                remote_.end());
  std::make_heap(remote_.begin(), remote_.end(), fires_after);
  for (std::size_t i = 0; i < lanes_claimed_; ++i) {
    lanes_[i].ring.erase_if(dead);
    if (lanes_[i].ring.empty()) active_ &= ~(std::uint32_t{1} << i);
  }
}

SimTime EventQueue::next_time() const {
  TSU_ASSERT_MSG(!empty(), "next_time on empty queue");
  // Skimming dead heads and caching the pick mutate only bookkeeping.
  auto* self = const_cast<EventQueue*>(this);
  self->select();
  return cached_time_;
}

EventQueue::Fired EventQueue::pop() {
  TSU_ASSERT_MSG(!empty(), "pop on empty queue");
  const int src = select();
  std::uint64_t tag;
  if (src == kRemote) {
    tag = remote_.front().tag;
    std::pop_heap(remote_.begin(), remote_.end(), fires_after);
    remote_.pop_back();
    ++counters_.remote_pops;
  } else if (src == kHeap) {
    tag = heap_.front().tag;
    heap_pop();
  } else {
    util::FlatRing<Key>& ring = lanes_[static_cast<std::size_t>(src)].ring;
    tag = ring.front().tag;
    ring.pop_front();
    if (ring.empty()) active_ &= ~(std::uint32_t{1} << src);
  }
  cached_ = kNone;
  last_pop_ = cached_time_;
  const auto slot = static_cast<std::uint32_t>(tag & kSlotMask);
  Fired fired{cached_time_, std::move(slots_[slot].fn)};
  retire(slot);
  --live_;
  return fired;
}

}  // namespace tsu::sim
