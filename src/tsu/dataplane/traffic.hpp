// Data-plane traffic: a host injects packets while the update is running;
// each packet hops switch-to-switch against the *live* flow tables (which
// mutate underneath it as FlowMods complete), so transient inconsistencies
// show up exactly as they would in the Mininet demo: loops, drops, and
// packets that slip past the waypoint.
//
// SHARDED OPERATION. When constructed over a ShardedSim + SwitchPartition,
// every hop event executes on the event queue of the shard OWNING the
// switch it reads. A hop whose next switch lives on a foreign shard hands
// the packet off through ShardedSim::post, which lands it in the owner's
// remote band. Each packet carries its own forked Rng for link-latency
// sampling: samples then depend only on the packet's own hop sequence,
// never on how concurrently-flying packets interleave.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "tsu/dataplane/monitor.hpp"
#include "tsu/flow/match.hpp"
#include "tsu/sim/distributions.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/util/ids.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::dataplane {

struct TrafficConfig {
  FlowId flow = 1;
  NodeId ingress = kInvalidNode;       // switch attached to the source host
  NodeId egress = kInvalidNode;        // switch attached to the dest host
  std::optional<NodeId> waypoint;      // security middlebox to enforce
  sim::LatencyModel interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::SimTime start = 0;
  sim::SimTime stop = 0;  // no packet injected at/after this time
};

class TrafficSource {
 public:
  using Switches = std::vector<switchsim::SimSwitch*>;

  // Single-queue operation: everything runs on `simulator`.
  // `switches` is indexed by NodeId; entries may be null for non-switch ids.
  // The source reads the caller's vector - one per run, shared by every
  // source - so it must outlive the source.
  TrafficSource(sim::Simulator& simulator, const Switches& switches,
                TrafficConfig config, Rng rng, ConsistencyMonitor& monitor);

  // Sharded operation (see the file comment): injection lives on the
  // ingress switch's shard; hops follow the packet across shard queues.
  // `partition` and `switches` must outlive the source.
  TrafficSource(sim::ShardedSim& group, const topo::SwitchPartition& partition,
                const Switches& switches, TrafficConfig config, Rng rng,
                ConsistencyMonitor& monitor);

  // A temporary switch vector would dangle.
  TrafficSource(sim::Simulator&, Switches&&, TrafficConfig, Rng,
                ConsistencyMonitor&) = delete;
  TrafficSource(sim::ShardedSim&, const topo::SwitchPartition&, Switches&&,
                TrafficConfig, Rng, ConsistencyMonitor&) = delete;

  // Schedules the first injection; the source then self-perpetuates until
  // `config.stop`.
  void start();

  std::size_t injected() const noexcept { return injected_; }
  // Packets still traversing the network.
  std::size_t in_flight() const noexcept { return in_flight_; }

  // Moves the injection stop time (e.g. once the update under observation
  // has completed and the drain window is known).
  void set_stop(sim::SimTime stop) noexcept { config_.stop = stop; }

 private:
  // Loop-detection bitmap sized by switch count. Topologies up to
  // kInlineBits switches (every current experiment) live entirely inline,
  // so a LivePacket - and the hop closure carrying it - needs no heap at
  // all; larger topologies fall back to one vector per packet.
  class VisitedSet {
   public:
    static constexpr std::size_t kInlineBits = 512;

    void reset(std::size_t size) {
      if (size > kInlineBits) {
        overflow_.assign((size + 63) / 64, 0);
      } else {
        overflow_.clear();
        bits_.fill(0);
      }
    }
    bool test(std::size_t i) const noexcept {
      return (words()[i >> 6] >> (i & 63) & 1) != 0;
    }
    void set(std::size_t i) noexcept {
      words()[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

   private:
    const std::uint64_t* words() const noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::uint64_t* words() noexcept {
      return overflow_.empty() ? bits_.data() : overflow_.data();
    }
    std::array<std::uint64_t, kInlineBits / 64> bits_{};
    std::vector<std::uint64_t> overflow_;
  };

  struct LivePacket {
    flow::Packet packet;
    VisitedSet visited;
    bool crossed_waypoint = false;
    // Per-packet latency stream (see the file comment).
    Rng rng;
    explicit LivePacket(Rng packet_rng) : rng(packet_rng) {}
  };

  // The event queue owning switch `node` (home_sim_ when unsharded).
  sim::Simulator& sim_of(NodeId node);
  std::size_t shard_of(NodeId node) const noexcept;

  void inject();
  // Runs on the queue of `at`'s owning shard.
  void hop(LivePacket live, NodeId at);
  void finish(const LivePacket& live, PacketOutcome outcome, sim::SimTime at);

  sim::Simulator* home_sim_;                       // ingress shard's queue
  sim::ShardedSim* group_ = nullptr;               // null when unsharded
  const topo::SwitchPartition* partition_ = nullptr;
  const Switches& switches_;
  TrafficConfig config_;
  Rng rng_;
  ConsistencyMonitor& monitor_;
  std::size_t injected_ = 0;
  std::size_t in_flight_ = 0;
};

}  // namespace tsu::dataplane
