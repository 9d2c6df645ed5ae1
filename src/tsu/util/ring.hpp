// Flat circular FIFO backed by one contiguous slot vector.
//
// libstdc++'s std::deque allocates a fresh ~512-byte chunk roughly every
// 32 pushes even when the queue depth is constant (chunks are freed on
// pop and re-allocated on push), which makes deque-backed hot-path queues
// a steady-state allocator. FlatRing reuses its slots forever: pop_front
// only advances the head - the slot object stays alive, so element types
// with internal capacity (vectors, variants of such) keep it across
// reuse - and the backing vector grows geometrically only when depth
// exceeds every previous high-water mark. Past that mark a
// push/pop regime of any length performs zero allocations.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tsu/util/assert.hpp"

namespace tsu::util {

template <typename T>
class FlatRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  T& front() noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }
  const T& front() const noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[head_];
  }

  // Advances the head without destroying the slot: the element object
  // survives (typically moved-from) and its capacity is reused by a
  // later push into the same slot.
  void pop_front() noexcept {
    TSU_ASSERT(count_ > 0);
    head_ = wrap(head_ + 1);
    --count_;
  }

  // Drops the newest element (its slot survives, like pop_front's).
  void pop_back() noexcept {
    TSU_ASSERT(count_ > 0);
    --count_;
  }

  const T& back() const noexcept {
    TSU_ASSERT(count_ > 0);
    return slots_[wrap(head_ + count_ - 1)];
  }

  void push_back(const T& value) { *next_slot() = value; }
  void push_back(T&& value) { *next_slot() = std::move(value); }

  // Sizes the slots for `n` elements up front, so depths up to `n` never
  // allocate.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(n);
  }

  // Removes every element matching `pred` in place, keeping the order of
  // the rest; no allocation.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      T& element = slots_[wrap(head_ + i)];
      if (pred(std::as_const(element))) continue;
      if (kept != i) slots_[wrap(head_ + kept)] = std::move(element);
      ++kept;
    }
    count_ = kept;
  }

  // Drops the queued elements; slots (and their capacity) stay.
  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  T* next_slot() {
    if (count_ == slots_.size()) grow(count_ == 0 ? 8 : count_ * 2);
    T* slot = &slots_[wrap(head_ + count_)];
    ++count_;
    return slot;
  }

  // Index `i` (< 2 x capacity) folded into the slot vector: a compare
  // instead of a division on every push and pop.
  std::size_t wrap(std::size_t i) const noexcept {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  void grow(std::size_t capacity) {
    std::vector<T> bigger(capacity);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[wrap(head_ + i)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tsu::util
