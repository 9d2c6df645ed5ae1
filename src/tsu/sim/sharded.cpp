#include "tsu/sim/sharded.hpp"

#include <utility>

namespace tsu::sim {

namespace {

// The remote-band minor key: (poster, per-poster post sequence) packed so
// lexicographic uint64 comparison equals the pair comparison. 16 bits of
// poster is far beyond any shard count; 48 bits of sequence outlast any
// run.
inline std::uint64_t remote_key(std::size_t poster,
                                std::uint64_t seq) noexcept {
  TSU_ASSERT_MSG(poster < (1ull << 16) && seq < (1ull << 48),
                 "remote key fields exceed their packed widths");
  return (static_cast<std::uint64_t>(poster) << 48) | seq;
}

}  // namespace

void ShardedSim::post(std::size_t target, std::size_t poster, SimTime at,
                      EventFn fn) {
  TSU_ASSERT_MSG(target < shards_.size() && poster < shards_.size(),
                 "cross-shard post outside the shard group");
  shards_[target]->push_remote(at, std::move(fn), shards_[poster]->now(),
                               remote_key(poster, post_seq_[poster]++));
}

bool ShardedSim::step_earliest(SimTime until) {
  // Earliest next event across shards; ties go to the lowest shard index
  // (strict <), which is what makes merged runs deterministic.
  std::size_t best = shards_.size();
  SimTime best_time = std::numeric_limits<SimTime>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const SimTime t = shards_[i]->next_event_time();
    if (t < best_time) {
      best_time = t;
      best = i;
    }
  }
  if (best == shards_.size() || best_time > until) return false;
  shards_[best]->step();
  ++events_[best];
  return true;
}

std::size_t ShardedSim::run(SimTime until) {
  std::size_t processed = 0;
  while (step_earliest(until)) ++processed;
  if (now_ < until && until != std::numeric_limits<SimTime>::max())
    now_ = until;
  return processed;
}

}  // namespace tsu::sim
