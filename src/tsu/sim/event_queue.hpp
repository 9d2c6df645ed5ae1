// Event queue for the discrete-event simulator. Events fire in (time,
// band, seq) order, where seq is a monotonically increasing tie-breaker,
// so simultaneous events fire in scheduling order and runs are fully
// deterministic.
//
// STORAGE. Events live in a pooled slot arena: a vector of fixed slots
// recycled through an intrusive free list, each holding the closure in a
// small-buffer-optimized InlineFn. Steady state performs ZERO heap
// allocations per event - push reuses a retired slot (and every queue's
// high-water capacity), pop returns it. An EventId is the 16-byte key's
// tag, seq << 24 | slot: a slot is live for exactly the seq it was last
// pushed with, so a fired or cancelled incarnation's id and queue entries
// are detectable in O(1) without a lookup table. The allocation-regression
// test (tests/hotpath_alloc_test.cpp) pins the zero-allocation property.
//
// ORDER. Events occupy one of two tie-break BANDS at their timestamp.
// kNative events were scheduled by this shard's own execution; kRemote
// events arrived through a cross-shard post (sharded.hpp). At equal
// timestamps every remote event sorts after every native one, and remote
// events among themselves sort by the caller-supplied (post time, poster,
// per-poster sequence) key - NOT by insertion order. That key fixes the
// multi-shard event order the golden digests pin.
//
// O(1) NATIVE EVENTS. Almost every native event is pushed with a delay
// (`at` minus the time of the last popped event) that repeats: a packet
// hop's link latency, a source's injection interval. Such events go into
// FIFO LANES, one per repeating delay. A lane only appends an entry whose
// time is >= its tail, and every new seq is larger than every queued one,
// so each lane stays sorted by (time, seq) and its head is its minimum:
// push and pop are O(1). Every other native event goes to a binary heap of
// 16-byte keys; remote events to a heap of their own. pop() takes the
// minimum of the lane heads and the two heap tops, which is exactly the
// (time, band, seq | post key) order above.
//
// A delay claims a lane only when it is spilled to the heap twice in a row
// (one-off delays - lognormal install times, timers - never hold one), and
// then takes the least recently used EMPTY lane that already has a ring
// before a fresh one: rings are recycled, never reallocated per claim.
//
// Cancellation is lazy for the QUEUE ENTRY only - the slot's closure (and
// everything it owns: frames, packets, request state) is destroyed
// EAGERLY in cancel(), and the slot returns to the free list immediately.
// The dead entry is skimmed off when it reaches a head, and the lanes and
// heaps compact themselves IN PLACE (dead entries erased, order or heap
// property restored over the retained capacity - no allocation) whenever
// cancelled entries outnumber live ones past a threshold, so heavy cancel
// churn (retransmit timers that almost always get cancelled) cannot grow
// the queue without bound.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "tsu/sim/inline_fn.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/ring.hpp"

namespace tsu::sim {

using EventFn = InlineFn;
using EventId = std::uint64_t;

class EventQueue {
 public:
  // Which tie-break band an event occupies at its timestamp.
  enum class Band : std::uint8_t { kNative = 0, kRemote = 1 };

  // For Band::kRemote, `posted_at` and `remote_seq` form the deterministic
  // tie-break among same-instant remote events (see the file comment);
  // native pushes ignore them and tie-break on scheduling order.
  EventId push(SimTime at, EventFn fn, Band band = Band::kNative,
               SimTime posted_at = 0, std::uint64_t remote_seq = 0);

  // Cancels a pending event. The closure is released eagerly (its captured
  // resources die NOW, not when the dead entry surfaces); only the queue
  // entry stays behind, skimmed lazily. Returns false if the event already
  // fired or was cancelled.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }
  // Entries currently queued in the lanes and both heaps, including lazily
  // cancelled ones. The compaction invariant keeps this within
  // kCompactSlack * size() + a small constant; exposed so tests can pin
  // the bound.
  std::size_t heap_size() const noexcept;
  SimTime next_time() const;

  // Pops and returns the next live event; callers must check empty() first.
  struct Fired {
    SimTime time;
    EventFn fn;
  };
  Fired pop();

  // Compaction tuning (exposed for the regression test): rebuild once the
  // queue holds more than kCompactSlack x the live count and at least
  // kCompactMinimum entries.
  static constexpr std::size_t kCompactSlack = 2;
  static constexpr std::size_t kCompactMinimum = 64;
  static constexpr std::size_t kLanes = 8;

  // Where entries went and came from (tests guard against vacuous
  // coverage with these).
  struct Counters {
    std::uint64_t lane_appends = 0;  // native pushes into a lane
    std::uint64_t lane_claims = 0;   // lanes (re)keyed to a new delay
    std::uint64_t heap_spills = 0;   // native pushes into the heap
    std::uint64_t remote_pops = 0;   // remote-band events fired
  };
  const Counters& counters() const noexcept { return counters_; }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kRetired = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // A lane or native-heap entry. `tag` = seq << kSlotBits | slot: ordering
  // by (time, tag) is ordering by (time, seq), seq being unique.
  struct Key {
    SimTime time;
    std::uint64_t tag;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.tag < b.tag;
  }

  // A remote-band entry: the poster's clock at post time, then (poster,
  // post seq) packed into `remote_seq` - a pure function of the post. The
  // tag only breaks ties between identical keys.
  struct RemoteKey {
    SimTime time;
    SimTime posted_at;
    std::uint64_t remote_seq;
    std::uint64_t tag;
  };
  // std heap comparator: "a fires after b" keeps the earliest at front().
  static bool fires_after(const RemoteKey& a, const RemoteKey& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    if (a.posted_at != b.posted_at) return a.posted_at > b.posted_at;
    if (a.remote_seq != b.remote_seq) return a.remote_seq > b.remote_seq;
    return a.tag > b.tag;
  }

  // One arena slot; `seq` is the pending incarnation, kRetired when none.
  // Retired slots form an intrusive LIFO free list through `next_free`, so
  // retire() - noexcept, on the pop/cancel hot path - never allocates.
  struct Slot {
    std::uint64_t seq = kRetired;
    std::uint32_t next_free = kNoSlot;
    EventFn fn;
  };

  struct Lane {
    Duration delay = 0;
    std::uint64_t last_used = 0;  // seq of the latest append (LRU order)
    util::FlatRing<Key> ring;
  };

  // Where the earliest live entry sits: a lane index, or one of these.
  static constexpr int kHeap = static_cast<int>(kLanes);
  static constexpr int kRemote = kHeap + 1;
  static constexpr int kNone = -1;

  bool live(std::uint64_t tag) const noexcept {
    return slots_[tag & kSlotMask].seq == tag >> kSlotBits;
  }

  // Returns the slot to the free list and invalidates its id and queue
  // entries.
  void retire(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.fn.reset();
    s.seq = kRetired;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // A cancelled entry that is its lane's tail or its heap array's last
  // element comes off at once: push-then-cancel churn (flush timers a
  // budget flush overtakes) leaves nothing behind to skim or compact.
  void drop_if_newest(std::uint64_t tag) noexcept;
  // Appends a native entry to the lane of its delay, claiming one if the
  // delay repeats a spill; false sends it to the heap.
  bool append_to_lane(const Key& key);
  // The source of the earliest live entry (skimming dead heads on the
  // way), cached until the next mutation.
  int select() noexcept;

  void heap_push(const Key& key);
  void heap_pop() noexcept;  // Floyd: hole to a leaf, then sift up
  void sift_up(std::size_t hole, const Key& key) noexcept;

  // Compacts the lanes and heaps in place when the cancelled fraction
  // crosses the threshold. O(entries), amortized free (a rebuild only
  // happens after at least as many cancels as live entries), and
  // allocation-free: every container keeps its capacity.
  void maybe_compact();

  // Binary min-heap under before(); same layout as std::make_heap.
  std::vector<Key> heap_;
  // std::push_heap/pop_heap under fires_after().
  std::vector<RemoteKey> remote_;
  std::array<Lane, kLanes> lanes_;
  std::size_t lanes_claimed_ = 0;  // lanes [0, lanes_claimed_) have a delay
  std::uint32_t active_ = 0;       // bit i: lane i is non-empty
  SimTime last_pop_ = 0;
  // The delay of the last spill: a second spill with it claims a lane.
  Duration spill_delay_ = std::numeric_limits<Duration>::max();

  int cached_ = kNone;
  SimTime cached_time_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  Counters counters_;
};

}  // namespace tsu::sim
