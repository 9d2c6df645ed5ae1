// Consistency monitor: classifies every data-plane packet that traversed
// the network during an update and aggregates violations over time.
//
// The security property of the paper is judged here: a packet that reaches
// the destination host without having crossed the waypoint switch is a
// *waypoint bypass* - the event WayUp exists to prevent.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tsu/sim/time.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::dataplane {

enum class PacketOutcome : unsigned char {
  kDelivered,         // reached destination, waypoint ok (or no waypoint)
  kBypassedWaypoint,  // reached destination *around* the waypoint
  kLooped,            // revisited a switch
  kBlackholed,        // no matching rule / explicit drop
  kTtlExpired,        // ran out of TTL without revisiting (long detour)
  kFaultDropped,      // arrived at a switch taken down by fault injection
};

const char* to_string(PacketOutcome outcome) noexcept;

struct MonitorReport {
  std::size_t total = 0;
  std::size_t delivered = 0;
  std::size_t bypassed = 0;
  std::size_t looped = 0;
  std::size_t blackholed = 0;
  std::size_t ttl_expired = 0;
  // Packets that hit a crashed (non-serving) switch. Deliberately excluded
  // from violation_rate(): losing traffic at a dead switch is outage, not
  // an inconsistency - a correct fault run keeps blackholed == 0 while
  // fault_dropped counts the crash's collateral.
  std::size_t fault_dropped = 0;

  // Fraction of packets violating any transient property.
  double violation_rate() const noexcept;
  // Fraction of packets violating the *security* property (bypass).
  double bypass_rate() const noexcept;
  std::string to_string() const;
};

class ConsistencyMonitor {
 public:
  // bucket_width = 0 disables the per-bucket timeline (aggregate counts
  // only) - required for open-loop runs whose timeline would otherwise
  // grow with the sim horizon.
  explicit ConsistencyMonitor(sim::Duration bucket_width =
                                  sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // Commutative: every count and timeline bucket is a pure accumulator
  // keyed by the simulation timestamp, so the final report is independent
  // of record() call order.
  void record(sim::SimTime at, PacketOutcome outcome);

  const MonitorReport& report() const noexcept { return report_; }

  struct Bucket {
    std::size_t delivered = 0;
    std::size_t bypassed = 0;
    std::size_t looped = 0;
    std::size_t blackholed = 0;
  };
  // Outcome counts per bucket_width window since t=0 (index = t / width).
  const std::vector<Bucket>& timeline() const noexcept { return timeline_; }
  // Moves the timeline out, leaving it empty.
  std::vector<Bucket> take_timeline() noexcept { return std::move(timeline_); }
  sim::Duration bucket_width() const noexcept { return bucket_width_; }

  // Renders the per-bucket bypass/loop counts as a compact text timeline.
  std::string timeline_to_string() const;

 private:
  sim::Duration bucket_width_;
  MonitorReport report_;
  std::vector<Bucket> timeline_;
};

// Per-flow consistency monitors for a concurrent multi-flow run: every
// in-flight update gets its own ConsistencyMonitor (stable references, so
// traffic sources can hold them across the run) plus an aggregate view over
// all flows observed simultaneously.
class MultiFlowMonitor {
 public:
  explicit MultiFlowMonitor(sim::Duration bucket_width =
                                sim::milliseconds(1))
      : bucket_width_(bucket_width) {}

  // The monitor watching `flow`; created on first use.
  ConsistencyMonitor& monitor(FlowId flow);

  // Outcome counts summed across every flow.
  MonitorReport aggregate() const;

 private:
  sim::Duration bucket_width_;
  std::map<FlowId, ConsistencyMonitor> flows_;
};

}  // namespace tsu::dataplane
