// Executes update schedules against the full simulated control plane - the
// C++ equivalent of running the paper's demo: switches come up with the old
// routes installed, traffic flows, the controller pushes each schedule
// round by round over asynchronous channels with barriers, and the
// consistency monitor watches every packet.
//
// Every entry point below, and execute_service (service.hpp), runs the same
// engine; they differ only in what they submit and when. The engine
// partitions the switches across config.controller.shards controller
// shards (controller/shard.hpp) on a sharded logical clock
// (sim/sharded.hpp), coordinating cross-shard updates round by round;
// shards = 1 is the single controller.
#pragma once

#include <cstdint>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/controller.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/update/instance.hpp"
#include "tsu/update/schedule.hpp"
#include "tsu/util/status.hpp"

namespace tsu::core {

struct ExecutorConfig {
  std::uint64_t seed = 1;
  channel::ChannelConfig channel;
  switchsim::SwitchConfig switch_config;
  controller::ControllerConfig controller;
  FlowId flow = 1;
  std::uint16_t priority = 100;
  sim::Duration interval = 0;        // inter-round pause (REST "interval")
  // Traffic during the update.
  bool with_traffic = true;
  sim::LatencyModel traffic_interarrival =
      sim::LatencyModel::constant(sim::microseconds(200));
  sim::LatencyModel link_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  int ttl = 64;
  sim::Duration warmup = sim::milliseconds(5);   // traffic before the update
  sim::Duration drain = sim::milliseconds(20);   // observation after it
  // Fault injection (sim/faults.hpp): switch crashes, control-link outages
  // and frame blackholes at scheduled sim times. An EMPTY schedule leaves
  // every digest bit-identical to a build without the subsystem. A
  // non-empty schedule with controller.liveness_timeout == 0 enables fault
  // tolerance with a default 25 ms timeout (every injected fault must be
  // detectable, or the run cannot drain).
  sim::FaultSchedule faults;
};

struct ExecutionResult {
  controller::UpdateMetrics update;        // timings as the controller saw them
  dataplane::MonitorReport traffic;        // packet outcome counts
  std::vector<dataplane::ConsistencyMonitor::Bucket> timeline;  // per 1 ms
  std::size_t frames_sent = 0;             // control-channel frames
  std::size_t control_bytes = 0;
  std::size_t packets_injected = 0;

  double update_ms() const noexcept { return sim::to_ms(update.duration()); }
};

// Batching observability of one engine run (see controller::BatchMode):
// frames actually batched, what triggered the flushes, and the longest any
// message was held in an outbox past readiness (bounded by batch_window).
struct BatchingStats {
  std::size_t batches_sent = 0;
  std::size_t messages_coalesced = 0;
  std::size_t timer_flushes = 0;
  std::size_t budget_flushes = 0;
  std::size_t flush_timers_cancelled = 0;
  sim::Duration max_hold = 0;

  double max_hold_ms() const noexcept { return sim::to_ms(max_hold); }
};

// Sharding observability of one engine run (see controller/shard.hpp and
// sim/sharded.hpp): how many updates spanned shards, what the two-phase
// round barrier cost - the summed spread between the first and last shard
// confirming each cross-shard round - and how the stepping engine ran:
// epochs that stepped shards concurrently, sequential fallback steps at
// collapsed horizons, per-shard event counts (identical across reruns of a
// seed; the parallel determinism test pins this), the workload cut the
// partition paid, and the wall-clock cost of the run loop (steady-clock;
// the simulation itself never reads wall time).
struct ShardStats {
  std::size_t shards = 1;
  sim::ExecMode exec = sim::ExecMode::kSequential;
  std::size_t threads = 1;  // pool lanes actually used (1 when sequential)
  std::size_t cross_shard_updates = 0;
  std::size_t rounds_synced = 0;
  sim::Duration sync_overhead = 0;
  std::size_t parallel_epochs = 0;
  std::size_t horizon_stalls = 0;
  // Interval skips taken by speculative round release
  // (controller.speculate; 0 without conflict-aware admission).
  std::size_t speculative_releases = 0;
  // Epoch launches the work-stealing reorder promoted past a lower-indexed
  // busy shard (controller.steal; sim/sharded.hpp).
  std::size_t steals = 0;
  // Cross-shard mailbox posts that found their SPSC ring full and took the
  // locked overflow path (sim/sharded.hpp) - 0 on a well-sized steady
  // state.
  std::size_t overflow_posts = 0;
  std::vector<std::size_t> events_per_shard;
  // Affinity weight of the workload's switch co-occurrence graph crossing
  // shards under the chosen partition (topo::SwitchPartition::cut_weight).
  std::size_t partition_cut_weight = 0;
  double wall_ms = 0;

  double sync_overhead_ms() const noexcept {
    return sim::to_ms(sync_overhead);
  }
};

// Control-plane counters of one engine run, collected once after it
// drains. Every result type - closed loop and service - carries them.
struct RunCounters {
  std::size_t frames_sent = 0;            // control-channel frames, total
  std::size_t control_bytes = 0;
  std::size_t messages_sent = 0;          // logical messages (>= frames)
  std::size_t max_in_flight_observed = 0;
  // Admission stats (see controller/admission.hpp): dependency edges the
  // conflict DAG created, and requests that had to wait on a conflict.
  std::uint64_t conflict_edges = 0;
  std::uint64_t blocked_submissions = 0;
  BatchingStats batching;
  ShardStats sharding;
  // Fault-injection observability (empty unless config.faults is set):
  // injected fault counts, frames lost to them, and the controller's
  // detection/recovery counters (sim/faults.hpp).
  sim::FaultStats faults;
  // Order-insensitive digest of every switch's final flow tables; two runs
  // installed the same forwarding state iff their digests match (the
  // batched-vs-unbatched equivalence oracle, and the sharded-vs-single
  // controller one).
  std::uint64_t final_state_digest = 0;
  // Same digest taken right after the initial rules were installed, before
  // any update ran: what a fully rolled-back, non-resubmitted update must
  // leave behind.
  std::uint64_t initial_state_digest = 0;
};

// The result of every closed-loop run.
struct MultiFlowExecutionResult : RunCounters {
  std::vector<ExecutionResult> flows;     // indexed like the input lists
  // execute_mixed / execute_merged: each group's update, in group order;
  // the flows then carry traffic only. Empty for execute_multiflow, whose
  // flows[i].update is request i's.
  std::vector<controller::UpdateMetrics> updates;
  dataplane::MonitorReport aggregate;     // outcome counts over all flows
  sim::Duration makespan = 0;             // first start -> last finish

  double makespan_ms() const noexcept { return sim::to_ms(makespan); }
};

// Runs one update: execute_queue of one. The instance's node ids index the
// switches; the schedule must already be planned for this instance.
Result<ExecutionResult> execute(const update::Instance& inst,
                                const update::Schedule& schedule,
                                const ExecutorConfig& config = {});

// Runs several updates back to back through one controller - the paper's
// serializing message queue (bench E8): execute_multiflow with
// max_in_flight = 1, results in submission order. max_in_flight bounds
// each shard separately, so a queue of more than one update requires
// controller.shards <= 1 (kInvalidArgument otherwise).
Result<std::vector<ExecutionResult>> execute_queue(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

// Runs several updates CONCURRENTLY through one controller, all submitted
// at the end of the warmup: up to config.controller.max_in_flight requests
// per shard progress at once under the admission policy, their rounds
// interleaving on the shared control plane (coalesced into Batch frames
// per controller.batch_mode), while per-flow traffic and consistency
// monitors observe every flow. Flow i is config.flow + i.
Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

// Runs a MIX of merged and independent requests through one controller:
// `groups` partitions the policy indexes; each singleton group becomes an
// ordinary per-flow request, each larger group ONE multi-policy request
// whose global rounds interleave its policies' rounds
// (update::merge_policies + controller::request_from_merged; bench E11).
// Per-policy guarantees carry over because each policy's rounds stay
// ordered and barrier-separated, and all requests compose through the
// admission policy - a merged request runs concurrently with any request
// whose rule footprint it does not overlap.
Result<MultiFlowExecutionResult> execute_mixed(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const std::vector<std::vector<std::size_t>>& groups,
    const ExecutorConfig& config = {});

// execute_mixed with every policy in one merged group.
Result<MultiFlowExecutionResult> execute_merged(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config = {});

}  // namespace tsu::core
