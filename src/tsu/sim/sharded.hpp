// The sharded logical clock: one global simulation time driving N
// per-shard event queues, stepped by one sequential merger. Within a shard,
// events fire in (time, band, insertion) order exactly as in a lone
// Simulator; across shards the merger always steps the shard with the
// earliest next event, breaking timestamp ties towards the lowest shard
// index, so every run is fully deterministic and a 1-shard group is
// event-for-event identical to a lone Simulator (the `shards = 1`
// bit-compatibility guarantee rests on this).
//
// CROSS-SHARD POSTS. A hand-off from one shard into another (today: a
// data-plane packet hopping to a switch owned by another shard) goes
// through post(), which schedules straight into the target queue's REMOTE
// band (event_queue.hpp). At equal timestamps a remote entry fires after
// every native event of the target, and remote entries among themselves
// fire by (post time, posting shard, per-poster post sequence) - a key
// carried by the post itself. That key is what defines the multi-shard
// event order the golden digests pin, so it stays even though every post
// is now delivered the instant it is made.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "tsu/sim/simulator.hpp"
#include "tsu/sim/time.hpp"
#include "tsu/util/assert.hpp"

namespace tsu::sim {

class ShardedSim {
 public:
  explicit ShardedSim(std::size_t shards = 1) {
    const std::size_t count = shards == 0 ? 1 : shards;
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      shards_.push_back(std::make_unique<Simulator>(&now_));
    post_seq_.assign(count, 0);
    events_.assign(count, 0);
  }
  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  Simulator& shard(std::size_t i) {
    TSU_ASSERT_MSG(i < shards_.size(), "shard index out of range");
    return *shards_[i];
  }
  const Simulator& shard(std::size_t i) const {
    TSU_ASSERT_MSG(i < shards_.size(), "shard index out of range");
    return *shards_[i];
  }

  SimTime now() const noexcept { return now_; }

  // Harness-level events (warmup submissions, fault flips and the like),
  // scheduled on the shard that owns the work.
  EventId schedule_on(std::size_t shard, Duration delay, EventFn fn) {
    TSU_ASSERT_MSG(shard < shards_.size(), "shard index out of range");
    return shards_[shard]->schedule(delay, std::move(fn));
  }

  // Cross-shard hand-off from `poster`'s execution into `target`'s queue
  // at absolute time `at`, in the remote band (see the file comment).
  void post(std::size_t target, std::size_t poster, SimTime at, EventFn fn);

  // Merged run: repeatedly steps the shard with the earliest pending event
  // until every queue drains or `until` is reached (events at exactly
  // `until` still fire). Returns the number of events processed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  // Events processed per shard (equal across reruns of one seed).
  const std::vector<std::size_t>& events_per_shard() const noexcept {
    return events_;
  }

 private:
  // One merge step: fires the earliest event across shards (ties to the
  // lowest shard index). Returns false when nothing is pending at or
  // before `until`.
  bool step_earliest(SimTime until);

  SimTime now_ = 0;
  // unique_ptr: each shard's &now_ must stay valid, and Simulator is
  // intentionally non-copyable.
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::uint64_t> post_seq_;
  std::vector<std::size_t> events_;
};

}  // namespace tsu::sim
