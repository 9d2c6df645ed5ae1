// The sharded controller: partition the switches across N ControllerShard
// instances - each owning a disjoint switch set, its own admission DAG
// slice, its own per-switch outboxes and its own event queue of the
// sharded logical clock (sim/sharded.hpp) - plus the ShardCoordinator that
// routes update requests and runs cross-shard updates through a two-phase
// round protocol.
//
// Routing. A request whose FlowMods all land on one shard is forwarded
// verbatim: the owning shard runs it exactly like the single-controller
// engine. With shards = 1 every request takes this path, which is why the
// sharded controller is bit-identical to the unsharded one. A request
// spanning shards is split into per-shard sub-requests with ALIGNED round
// indices (a shard with no ops in round k keeps an empty round k) and
// coordinated:
//
//   admission   every sub-request enters its shard's admission DAG at the
//               request's global arrival position, so per-shard dependency
//               edges are consistent with one global arrival order and the
//               cross-shard wait graph stays acyclic. The update starts
//               only when EVERY participating shard reports it admissible
//               AND has a free max_in_flight slot, and then starts on all
//               of them in the same instant - atomic capacity acquisition,
//               so two cross-shard updates can never deadlock on partially
//               grabbed slots.
//   rounds      after round k's barriers return on a shard, the shard
//               confirms to the coordinator and holds; only when ALL
//               participating shards confirmed round k does the
//               coordinator release round k+1 everywhere. No shard can
//               race ahead, so every per-round consistency guarantee of
//               the planned schedule survives the sharding.
//   completion  a shard whose slice ran out of rounds finishes locally and
//               releases its admission footprint immediately - its
//               installed rules never change again - while slower shards
//               drain; the coordinator merges the per-shard metric slices
//               into one UpdateMetrics when the last shard reports.
//
// Replies route by switch ownership (the partition), and each shard tags
// its xids with its id (proto::make_shard_xid) so a misrouted barrier
// reply is detectable on sight.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tsu/controller/controller.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/topo/partition.hpp"

namespace tsu::controller {

// One controller shard: the concurrent update engine bound to a shard id
// (which tags its xids) and the partition slice of switches it owns.
class ControllerShard {
 public:
  ControllerShard(std::uint8_t id, sim::Simulator& sim,
                  const ControllerConfig& config,
                  Controller::CoordinationHooks* hooks)
      : engine_(sim, config) {
    engine_.set_shard(id, hooks);
  }

  std::uint8_t id() const noexcept { return engine_.shard_id(); }
  Controller& engine() noexcept { return engine_; }
  const Controller& engine() const noexcept { return engine_; }

  std::size_t switches_owned() const noexcept { return switches_owned_; }
  void note_switch_attached() noexcept { ++switches_owned_; }

 private:
  Controller engine_;
  std::size_t switches_owned_ = 0;
};

// Routes requests and replies between the outside world and the shards,
// and drives the cross-shard protocol described in the file comment. The
// public surface mirrors Controller's, so the executor drives either
// interchangeably.
class ShardCoordinator final : public Controller::CoordinationHooks {
 public:
  ShardCoordinator(sim::ShardedSim& sim, topo::SwitchPartition partition,
                   const ControllerConfig& config);

  std::size_t shard_count() const noexcept { return shards_.size(); }
  ControllerShard& shard(std::size_t i) { return *shards_[i]; }
  const topo::SwitchPartition& partition() const noexcept {
    return partition_;
  }
  std::size_t shard_of(NodeId node) const noexcept {
    return partition_.shard_of(node);
  }

  // Registers the outbound channel towards a switch on its owning shard.
  void attach_switch(NodeId node, Controller::SendFn send);
  // Registers the pre-encoded send path on the owning shard (plan
  // submissions; see Controller::attach_switch_encoded).
  void attach_switch_encoded(NodeId node, Controller::SendEncodedFn send) {
    shards_[shard_of(node)]->engine().attach_switch_encoded(node,
                                                            std::move(send));
  }
  // Fault tolerance (sim/faults.hpp): shadow seeding and the resync
  // callback route to the switch's owning shard; see controller.hpp.
  void seed_shadow(NodeId node, const proto::FlowMod& mod) {
    shards_[shard_of(node)]->engine().seed_shadow(node, mod);
  }
  void set_on_switch_resynced(std::function<void(NodeId)> fn) {
    for (auto& shard : shards_) shard->engine().set_on_switch_resynced(fn);
  }
  // Inbound dispatch: routes a switch's reply to the shard that owns it.
  void on_message(NodeId from, const proto::Message& message);
  // Routes a request: forwarded whole when it touches one shard, split and
  // coordinated when it spans several.
  void submit(UpdateRequest request);
  // Compiled-plan submission: routed by the plan's touched-switch set
  // without materializing a request. A shard-local plan forwards to the
  // owning engine's submit_plan; a cross-shard one falls back to the
  // coordinated split of the plan's canonical request (cold by design -
  // the split must re-key xids and rounds per shard anyway).
  void submit_plan(std::shared_ptr<const CompiledPlan> plan,
                   std::uint8_t priority_class,
                   std::optional<sim::SimTime> enqueued);
  // Sum of the per-shard resync generations: any shard's fault-driven
  // resync invalidates cached plans (a plan may span shards).
  std::uint64_t resync_generation() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard->engine().resync_generation();
    return total;
  }

  bool idle() const noexcept;
  std::size_t queued() const noexcept;
  // Sum of per-shard in-flight counts (a cross-shard update counts once
  // per shard it is active on).
  std::size_t in_flight() const noexcept;
  // The recent-completion window - shard-local and cross-shard requests in
  // completion order until the ring wraps (see Controller::completed()).
  const std::vector<UpdateMetrics>& completed() const noexcept {
    return completed_.recent();
  }
  // Streaming lifetime aggregation + the recent ring.
  const CompletionLog& completions() const noexcept { return completed_; }
  void set_on_update_done(std::function<void(const UpdateMetrics&)> fn) {
    on_update_done_ = std::move(fn);
  }

  // Sum of Controller::steady_state_entries() over the shards plus the
  // coordinator's own cross-shard bookkeeping; must return to a flat floor
  // whenever the system drains.
  std::size_t steady_state_entries() const noexcept {
    std::size_t total = cross_.size() + pending_cross_.size();
    for (const auto& shard : shards_)
      total += shard->engine().steady_state_entries();
    return total;
  }

  // Aggregated engine stats (sums over shards; max_hold is the max, and
  // max_in_flight_observed is the busiest shard's high-water mark).
  std::size_t max_in_flight_observed() const noexcept;
  std::size_t messages_coalesced() const noexcept;
  std::size_t batches_sent() const noexcept;
  std::size_t timer_flushes() const noexcept;
  std::size_t budget_flushes() const noexcept;
  std::size_t flush_timers_cancelled() const noexcept;
  sim::Duration max_hold() const noexcept;
  std::uint64_t conflict_edges() const noexcept;
  std::uint64_t blocked_submissions() const noexcept;
  std::size_t blocked() const noexcept;

  // Fault-handling counters, summed over the shards (controller.hpp).
  std::size_t timeouts() const noexcept;
  std::size_t resyncs() const noexcept;
  std::size_t resync_frames() const noexcept;
  std::size_t rollbacks() const noexcept;
  std::size_t retries() const noexcept;
  std::size_t resubmissions() const noexcept;

  // Cross-shard protocol observability: updates that spanned shards,
  // rounds whose confirmations were merged, and the summed sync spread
  // (last shard's confirmation minus the first's, per merged round) - the
  // price of the two-phase round barrier.
  std::size_t cross_shard_updates() const noexcept {
    return cross_shard_updates_;
  }
  std::size_t rounds_synced() const noexcept { return rounds_synced_; }
  sim::Duration sync_overhead() const noexcept { return sync_overhead_; }

  // Controller::CoordinationHooks
  void on_round_done(std::uint8_t shard, std::uint64_t token,
                     std::size_t round) override;
  void on_coordinated_done(std::uint8_t shard, std::uint64_t token,
                           UpdateMetrics metrics) override;
  void on_progress(std::uint8_t shard) override;

 private:
  // Aggregation helpers over the per-shard engines: counters sum,
  // high-water marks take the max.
  template <class Get>
  auto sum_over_shards(Get get) const {
    decltype(get(shards_.front()->engine())) total{};
    for (const auto& shard : shards_) total += get(shard->engine());
    return total;
  }
  template <class Get>
  auto max_over_shards(Get get) const {
    decltype(get(shards_.front()->engine())) most{};
    for (const auto& shard : shards_)
      most = std::max(most, get(shard->engine()));
    return most;
  }

  struct CrossUpdate {
    std::vector<std::uint8_t> shards;  // participating, ascending
    std::size_t total_rounds = 0;
    std::size_t confirm_round = 0;  // round currently being confirmed
    std::size_t confirms = 0;       // shards confirmed so far
    sim::SimTime first_confirm = 0;
    std::vector<UpdateMetrics> slices;  // per-shard metrics, as they finish
  };

  void try_start_cross();
  static UpdateMetrics merge_slices(std::vector<UpdateMetrics>& slices);

  sim::ShardedSim& sim_;
  topo::SwitchPartition partition_;
  std::vector<std::unique_ptr<ControllerShard>> shards_;
  std::unordered_map<std::uint64_t, CrossUpdate> cross_;
  std::deque<std::uint64_t> pending_cross_;  // not-yet-started, arrival order
  CompletionLog completed_;
  std::function<void(const UpdateMetrics&)> on_update_done_;
  std::uint64_t next_token_ = 1;
  bool starting_ = false;  // re-entrancy guard for try_start_cross
  std::size_t cross_shard_updates_ = 0;
  std::size_t rounds_synced_ = 0;
  sim::Duration sync_overhead_ = 0;
};

}  // namespace tsu::controller
