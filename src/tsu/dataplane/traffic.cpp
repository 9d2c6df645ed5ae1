#include "tsu/dataplane/traffic.hpp"

#include "tsu/util/log.hpp"

namespace tsu::dataplane {

TrafficSource::TrafficSource(sim::Simulator& simulator,
                             std::vector<switchsim::SimSwitch*> switches,
                             TrafficConfig config, Rng rng,
                             ConsistencyMonitor& monitor)
    : home_sim_(&simulator), switches_(std::move(switches)), config_(config),
      rng_(rng), monitor_(monitor) {
  TSU_ASSERT(config_.ingress < switches_.size() &&
             switches_[config_.ingress] != nullptr);
  TSU_ASSERT(config_.egress < switches_.size() &&
             switches_[config_.egress] != nullptr);
}

TrafficSource::TrafficSource(sim::ShardedSim& group,
                             const topo::SwitchPartition& partition,
                             std::vector<switchsim::SimSwitch*> switches,
                             TrafficConfig config, Rng rng,
                             ConsistencyMonitor& monitor)
    : home_sim_(&group.shard(partition.shard_of(config.ingress))),
      group_(&group), partition_(&partition), switches_(std::move(switches)),
      config_(config), rng_(rng), monitor_(monitor) {
  TSU_ASSERT(config_.ingress < switches_.size() &&
             switches_[config_.ingress] != nullptr);
  TSU_ASSERT(config_.egress < switches_.size() &&
             switches_[config_.egress] != nullptr);
}

std::size_t TrafficSource::shard_of(NodeId node) const noexcept {
  return partition_ == nullptr ? 0 : partition_->shard_of(node);
}

sim::Simulator& TrafficSource::sim_of(NodeId node) {
  return group_ == nullptr ? *home_sim_ : group_->shard(shard_of(node));
}

void TrafficSource::start() {
  home_sim_->schedule_at(config_.start, [this]() { inject(); });
}

void TrafficSource::inject() {
  if (home_sim_->now() >= config_.stop) return;

  // Fork in injection order: the packet's latency stream is deterministic
  // however its hops later interleave with other packets'.
  LivePacket live(rng_.fork());
  live.packet.flow = config_.flow;
  live.packet.src_host = config_.ingress;
  live.packet.dst_host = config_.egress;
  live.packet.ttl = config_.ttl;
  live.visited.reset(switches_.size());
  ++injected_;
  ++in_flight_;
  hop(std::move(live), config_.ingress);

  home_sim_->schedule(config_.interarrival.sample(rng_),
                      [this]() { inject(); });
}

void TrafficSource::hop(LivePacket live, NodeId at) {
  TSU_ASSERT(at < switches_.size() && switches_[at] != nullptr);
  sim::Simulator& here = sim_of(at);

  if (config_.waypoint.has_value() && at == *config_.waypoint)
    live.crossed_waypoint = true;

  // A crashed switch forwards nothing until its controller resync restores
  // it to service; traffic hitting it is outage loss, kept apart from the
  // consistency verdicts (fault injection only; always serving otherwise).
  if (!switches_[at]->serving()) {
    finish(live, PacketOutcome::kFaultDropped, here.now());
    return;
  }

  // Look up the live flow table *now*; the rule may have changed since the
  // previous hop - that is the whole point of the experiment.
  const std::optional<flow::FlowRule> rule =
      switches_[at]->table().lookup(live.packet);
  if (!rule.has_value() || rule->action.kind == flow::ActionKind::kDrop) {
    finish(live, PacketOutcome::kBlackholed, here.now());
    return;
  }
  if (rule->action.kind == flow::ActionKind::kDeliver) {
    if (at == config_.egress) {
      const bool needs_waypoint = config_.waypoint.has_value();
      finish(live,
             needs_waypoint && !live.crossed_waypoint
                 ? PacketOutcome::kBypassedWaypoint
                 : PacketOutcome::kDelivered,
             here.now());
    } else {
      // Delivered to the wrong host: treat as a drop.
      finish(live, PacketOutcome::kBlackholed, here.now());
    }
    return;
  }

  // Forwarding.
  if (live.visited.test(at)) {
    finish(live, PacketOutcome::kLooped, here.now());
    return;
  }
  live.visited.set(at);
  if (--live.packet.ttl <= 0) {
    finish(live, PacketOutcome::kTtlExpired, here.now());
    return;
  }
  const NodeId next = rule->action.port;
  if (next >= switches_.size() || switches_[next] == nullptr) {
    finish(live, PacketOutcome::kBlackholed, here.now());
    return;
  }
  live.packet.in_port = at;
  const sim::Duration latency = config_.link_latency.sample(live.rng);
  const std::size_t here_shard = shard_of(at);
  const std::size_t next_shard = shard_of(next);
  auto next_hop = [this, live = std::move(live), next]() mutable {
    hop(std::move(live), next);
  };
  // The hop closure is THE hot-path event: it must stay within the event
  // fabric's inline buffer or every forwarded packet allocates again.
  static_assert(sim::EventFn::fits_inline<decltype(next_hop)>(),
                "hop closure outgrew the inline event buffer");
  if (group_ == nullptr || next_shard == here_shard) {
    here.schedule(latency, std::move(next_hop));
  } else {
    // Cross-shard hand-off: into the owner's remote band (see
    // sim/sharded.hpp).
    group_->post(next_shard, here_shard, here.now() + latency,
                 std::move(next_hop));
  }
}

void TrafficSource::finish(const LivePacket& live, PacketOutcome outcome,
                           sim::SimTime at) {
  (void)live;
  --in_flight_;
  monitor_.record(at, outcome);
}

}  // namespace tsu::dataplane
