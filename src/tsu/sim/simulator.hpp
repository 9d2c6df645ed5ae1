// The discrete-event simulator driving controller, channels, switches and
// data-plane packets on one logical clock. A Simulator either owns its
// clock (the default) or shares the clock of a ShardedSim group (see
// sharded.hpp), in which case it is one shard's event queue and the group
// merger steps the shards in global time order. Either way one thread
// runs every event, and the executed-frontier check below turns any
// attempt to deliver into a shard's past into a hard failure.
#pragma once

#include <cstdint>
#include <limits>

#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/assert.hpp"

namespace tsu::sim {

class Simulator {
 public:
  Simulator() noexcept : now_(&own_now_) {}
  // A shard of a ShardedSim: shares the group's clock so delays scheduled
  // from any shard land at the correct global time.
  explicit Simulator(SimTime* shared_now) noexcept : now_(shared_now) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return *now_; }

  // Schedules `fn` to run `delay` after the current time.
  EventId schedule(Duration delay, EventFn fn) {
    return queue_.push(*now_ + delay, std::move(fn));
  }
  EventId schedule_at(SimTime at, EventFn fn) {
    TSU_ASSERT_MSG(at >= *now_, "cannot schedule into the past");
    return queue_.push(at, std::move(fn));
  }
  // A cross-shard post (sharded.hpp): lands in the remote band, so at equal
  // timestamps it sorts after every natively scheduled event - and among
  // remote events by (posted_at, remote_seq). A delivery below the
  // executed frontier would fire out of order - fail fast instead (equal
  // is fine: the remote band sorts after natives).
  EventId push_remote(SimTime at, EventFn fn, SimTime posted_at,
                      std::uint64_t remote_seq) {
    TSU_ASSERT_MSG(at >= executed_frontier_,
                   "remote delivery below the executed-event frontier");
    return queue_.push(at, std::move(fn), EventQueue::Band::kRemote,
                       posted_at, remote_seq);
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs until the queue drains or `until` is reached (events at exactly
  // `until` still fire). Returns the number of events processed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  // Runs at most one event; returns false if none was pending.
  bool step();

  // The next pending event's time; SimTime max when the queue is empty.
  // The ShardedSim merger uses this to pick the shard to step.
  SimTime next_event_time() const {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.next_time();
  }

  std::size_t pending() const noexcept { return queue_.size(); }
  // Heap slots including lazily cancelled ones (see EventQueue::heap_size);
  // exposed so cancel-heavy clients (the controller's flush timers) can pin
  // the compaction bound end to end.
  std::size_t heap_size() const noexcept { return queue_.heap_size(); }

 private:
  EventQueue queue_;
  SimTime own_now_ = 0;
  SimTime* now_;
  // High-water mark of executed event times: the push_remote causality
  // check above. Monotone, because every pop comes off a time-ordered
  // queue and every insertion path asserts against going into the past.
  SimTime executed_frontier_ = 0;
};

}  // namespace tsu::sim
