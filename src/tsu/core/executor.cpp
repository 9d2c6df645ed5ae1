#include "tsu/core/executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_map>

#include "tsu/controller/plan_cache.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/topo/partition.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/arena.hpp"
#include "tsu/util/assert.hpp"
#include "tsu/util/ring.hpp"

namespace tsu::core {

namespace {

// FNV-1a mixing of one 64-bit word into a running digest.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t rule_hash(const flow::FlowRule& rule) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix_optional = [&h](const auto& field) {
    h = mix(h, field.has_value() ? 1 : 0);
    h = mix(h, field.has_value() ? static_cast<std::uint64_t>(*field) : 0);
  };
  mix_optional(rule.match.flow);
  mix_optional(rule.match.src_host);
  mix_optional(rule.match.dst_host);
  mix_optional(rule.match.in_port);
  h = mix(h, static_cast<std::uint64_t>(rule.action.kind));
  h = mix(h, rule.action.port);
  h = mix(h, rule.priority);
  h = mix(h, rule.cookie);
  return h;
}

// The workload's switch co-occurrence graph: one weighted edge per switch
// pair some instance touches together. Input of the greedy-cut partitioner
// and of the cut-size accounting in ShardStats.
std::vector<topo::SwitchAffinity> affinity_edges(
    const std::vector<const update::Instance*>& instances) {
  std::unordered_map<std::uint64_t, std::size_t> weights;
  for (const update::Instance* inst : instances) {
    std::vector<NodeId> touched;
    for (NodeId v = 0; v < inst->node_count(); ++v)
      if (inst->on_old(v) || inst->on_new(v)) touched.push_back(v);
    for (std::size_t i = 0; i < touched.size(); ++i)
      for (std::size_t j = i + 1; j < touched.size(); ++j) {
        const NodeId lo = std::min(touched[i], touched[j]);
        const NodeId hi = std::max(touched[i], touched[j]);
        ++weights[(static_cast<std::uint64_t>(lo) << 32) | hi];
      }
  }
  std::vector<topo::SwitchAffinity> edges;
  edges.reserve(weights.size());
  for (const auto& [key, weight] : weights)
    edges.push_back(topo::SwitchAffinity{
        static_cast<NodeId>(key >> 32),
        static_cast<NodeId>(key & 0xffffffffull), weight});
  // The map iterates in hash order; sort so the partitioner's input - and
  // with it the partition itself - is deterministic.
  std::sort(edges.begin(), edges.end(),
            [](const topo::SwitchAffinity& a, const topo::SwitchAffinity& b) {
              if (a.a != b.a) return a.a < b.a;
              return a.b < b.b;
            });
  return edges;
}

struct Engine;

// What a run submits, and when. Engine::run calls wire() before traffic
// starts and launch() right after, so events wire() schedules precede the
// sources' first injections at equal sim times and launch()'s follow them.
// Drivers hand `this` to engine callbacks, so they never copy or move.
class Driver {
 public:
  Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;
  virtual void wire(Engine& engine) = 0;    // callbacks, pre-traffic events
  virtual void launch(Engine& engine) = 0;  // the first submissions
  // Every update the driver submitted has completed.
  virtual bool finished() const = 0;
};

// Everything one simulated run needs, wired together. The switches are
// partitioned across config.controller.shards controller shards; each
// switch, its duplex channel and its owning shard live on that shard's
// event queue of the sharded logical clock. Closures on the event queues
// point into the engine, so it lives on the heap and never moves.
struct Engine {
  // The config the run executes: the caller's, with a non-empty fault
  // schedule's liveness default applied.
  ExecutorConfig config;
  sim::ShardedSim sim;
  Rng rng;
  topo::SwitchPartition partition;
  std::size_t partition_cut_weight = 0;
  // Per-shard setup arenas own every switch and channel (util/arena.hpp):
  // setup allocates per chunk instead of per object, each shard's objects
  // sit contiguous, and teardown is wholesale. Declared before ctrl so the
  // coordinator (whose send closures point into the arenas) dies first.
  std::vector<std::unique_ptr<util::SetupArena>> arenas;  // by shard
  std::vector<switchsim::SimSwitch*> switches;            // by NodeId
  std::vector<channel::DuplexChannel*> duplex_by_node;    // by NodeId
  std::unique_ptr<controller::ShardCoordinator> ctrl;
  std::uint64_t initial_digest = 0;
  // Per-flow monitors; flow i of the run is config.flow + i.
  dataplane::MultiFlowMonitor monitors;
  std::vector<dataplane::ConsistencyMonitor*> monitor_of;  // by instance
  // One source per instance with traffic on, none with it off.
  std::vector<std::unique_ptr<dataplane::TrafficSource>> sources;
  // Fault bookkeeping the injected events update.
  sim::FaultStats fault_stats;
  std::vector<sim::SimTime> down_at;
  std::vector<bool> is_down;

  Engine(ExecutorConfig run_config, topo::SwitchPartition switch_partition,
         sim::Duration timeline_bucket)
      : config(std::move(run_config)),
        sim(switch_partition.shards()),
        rng(config.seed),
        partition(std::move(switch_partition)),
        monitors(timeline_bucket) {
    arenas.reserve(sim.shard_count());
    for (std::size_t s = 0; s < sim.shard_count(); ++s)
      arenas.push_back(std::make_unique<util::SetupArena>());
    ctrl = std::make_unique<controller::ShardCoordinator>(sim, partition,
                                                          config.controller);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Builds the control plane of `instances`: their switches come up with
  // every old route installed (instance i as flow config.flow + i), then
  // config.faults is injected and per-flow monitors and traffic sources
  // are created. `timeline_bucket` = 0 keeps aggregate counts only.
  static Result<std::unique_ptr<Engine>> build(
      const std::vector<const update::Instance*>& instances,
      ExecutorConfig config, sim::Duration timeline_bucket) {
    if (config.controller.shards > proto::kMaxXidShards)
      return make_error(Errc::kOutOfRange, "shards must be in [1, 256]");
    // A non-empty fault schedule needs detection to be on, or a crashed
    // switch's lost barrier would stall its update forever and the run
    // could never drain. 25 ms comfortably exceeds a healthy barrier
    // round-trip under the default channel latencies.
    if (!config.faults.empty() && config.controller.liveness_timeout == 0)
      config.controller.liveness_timeout = sim::milliseconds(25);

    // The block partitioner carves contiguous NodeId ranges, so it needs
    // the extent of the id space the instances use.
    std::size_t node_count = 0;
    for (const update::Instance* inst : instances)
      node_count = std::max(node_count, inst->node_count());
    const std::size_t shard_count =
        config.controller.shards == 0 ? 1 : config.controller.shards;
    const std::vector<topo::SwitchAffinity> affinity =
        affinity_edges(instances);
    topo::SwitchPartition partition =
        config.controller.partition == topo::PartitionScheme::kGreedyCut
            ? topo::make_greedy_cut_partition(shard_count, node_count,
                                              affinity)
            : topo::SwitchPartition(shard_count, config.controller.partition,
                                    node_count);
    const std::size_t cut_weight = partition.cut_weight(affinity);

    auto engine = std::make_unique<Engine>(std::move(config),
                                           std::move(partition),
                                           timeline_bucket);
    engine->partition_cut_weight = cut_weight;
    for (const update::Instance* inst : instances)
      for (NodeId v = 0; v < inst->node_count(); ++v)
        if (inst->on_old(v) || inst->on_new(v)) engine->add_switch(v);
    for (std::size_t i = 0; i < instances.size(); ++i)
      engine->install_initial(*instances[i], engine->config.flow + i);
    engine->initial_digest = engine->state_digest();
    if (!engine->config.faults.empty()) {
      const Status injected = engine->inject_faults();
      if (!injected.ok()) return injected.error();
    }
    engine->make_sources(instances);
    return engine;
  }

  // The event queue everything owned by `node`'s shard schedules on.
  sim::Simulator& sim_of(NodeId node) {
    return sim.shard(partition.shard_of(node));
  }

  void add_switch(NodeId node) {
    if (node < switches.size() && switches[node] != nullptr) return;
    if (switches.size() <= node) {
      switches.resize(node + 1, nullptr);
      duplex_by_node.resize(node + 1, nullptr);
    }

    sim::Simulator& shard_sim = sim_of(node);
    util::SetupArena& arena = *arenas[partition.shard_of(node)];
    switchsim::SimSwitch* sw_ptr = arena.make<switchsim::SimSwitch>(
        shard_sim, node, static_cast<DatapathId>(node), config.switch_config,
        rng.fork());
    channel::DuplexChannel* duplex_ptr =
        arena.make<channel::DuplexChannel>(shard_sim, config.channel, rng);
    controller::ShardCoordinator* ctrl_ptr = ctrl.get();

    duplex_ptr->to_switch.set_receiver(
        [sw_ptr](const proto::Message& m) { sw_ptr->receive(m); });
    duplex_ptr->to_controller.set_receiver(
        [ctrl_ptr, node](const proto::Message& m) {
          ctrl_ptr->on_message(node, m);
        });
    sw_ptr->set_controller_link([duplex_ptr](const proto::Message& m) {
      duplex_ptr->to_controller.send(m);
    });
    ctrl->attach_switch(
        node, [duplex_ptr](std::span<const std::byte> frame, Xid xid) {
          duplex_ptr->to_switch.send_frame(frame, xid);
        });

    switches[node] = sw_ptr;
    duplex_by_node[node] = duplex_ptr;
  }

  void install_initial(const update::Instance& inst, FlowId flow) {
    for (const controller::RoundOp& op :
         controller::initial_rules(inst, flow, config.priority)) {
      switches[op.node]->table().add(flow::FlowRule{
          op.mod.match, op.mod.action, op.mod.priority, op.mod.cookie});
      // Mirror the out-of-band install into the controller's shadow tables
      // (a no-op unless fault tolerance is on) so a crash resync can
      // reconstruct pre-update state too.
      ctrl->seed_shadow(op.node, op.mod);
    }
  }

  // Digest of every switch's forwarding state. Within one table the
  // per-rule hashes combine commutatively (wrapping sum): rules from
  // independent flows may be installed in any interleaving, and the same
  // rule SET must digest identically whatever order batching delivered it
  // in.
  std::uint64_t state_digest() const {
    std::uint64_t h = 1469598103934665603ull;
    for (NodeId node = 0; node < switches.size(); ++node) {
      const switchsim::SimSwitch* sw = switches[node];
      if (sw == nullptr) continue;
      h = mix(h, node);
      for (const auto& [table_id, table] : sw->tables()) {
        // Emptied tables stay resident for capacity reuse
        // (proto/apply.cpp); logically they are state never touched, so
        // they digest as absent.
        if (table.empty()) continue;
        h = mix(h, table_id);
        h = mix(h, table.size());
        std::uint64_t rules = 0;
        for (const flow::FlowRule& rule : table.rules())
          rules += rule_hash(rule);
        h = mix(h, rules);
      }
    }
    return h;
  }

  // Fault injection (sim/faults.hpp): each scheduled fault becomes events
  // on the target switch's shard. A crash (optionally retaining the TCAM)
  // takes the switch and both control-channel directions down, then brings
  // them back `down_for` later and the switch announces a fresh session; a
  // link outage does the same to the channels only; a blackhole silently
  // eats the next frames towards the switch. Every fault schedules its own
  // recovery, so runs always drain. An empty schedule adds NO events and
  // keeps every digest bit-identical.
  Status inject_faults() {
    for (const sim::FaultEvent& e : config.faults.events())
      if (e.node >= switches.size() || switches[e.node] == nullptr)
        return make_error(Errc::kInvalidArgument,
                          "fault schedule targets an unknown switch");
    down_at.assign(switches.size(), 0);
    is_down.assign(switches.size(), false);
    // A barrier-confirmed resync returns the switch to service (its tables
    // provably match the shadow again) and clocks the recovery.
    ctrl->set_on_switch_resynced([this](NodeId node) {
      switches[node]->set_serving(true);
      if (is_down[node]) {
        is_down[node] = false;
        fault_stats.recovery_ms.push_back(
            sim::to_ms(sim_of(node).now() - down_at[node]));
      }
    });
    for (const sim::FaultEvent& e : config.faults.events()) {
      const std::size_t shard = partition.shard_of(e.node);
      switch (e.kind) {
        case sim::FaultKind::kSwitchCrash:
          sim.schedule_on(shard, e.at, [this, e]() {
            ++fault_stats.crashes;
            set_link_down(e.node, true);
            switches[e.node]->crash(e.lose_state);
          });
          sim.schedule_on(shard, e.at + e.down_for, [this, e]() {
            set_link_down(e.node, false);
            switches[e.node]->restart();
          });
          break;
        case sim::FaultKind::kLinkDown:
          sim.schedule_on(shard, e.at, [this, e]() {
            ++fault_stats.link_downs;
            set_link_down(e.node, true);
          });
          // The switch itself never died (its tables still forward; it
          // stays in service), but in-flight acks are gone - announcing a
          // fresh session makes the controller re-fence the uncertainty.
          sim.schedule_on(shard, e.at + e.down_for, [this, e]() {
            set_link_down(e.node, false);
            switches[e.node]->announce();
          });
          break;
        case sim::FaultKind::kBlackhole:
          sim.schedule_on(shard, e.at, [this, e]() {
            ++fault_stats.blackholes;
            duplex_by_node[e.node]->to_switch.drop_next(e.frames);
          });
          break;
      }
    }
    return {};
  }

  // Takes both control-channel directions of `node` down or back up; going
  // down starts the outage clock that the resync stops.
  void set_link_down(NodeId node, bool down) {
    if (down) {
      down_at[node] = sim_of(node).now();
      is_down[node] = true;
    }
    duplex_by_node[node]->to_switch.set_down(down);
    duplex_by_node[node]->to_controller.set_down(down);
  }

  void make_sources(const std::vector<const update::Instance*>& instances) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const FlowId flow = config.flow + i;
      monitor_of.push_back(&monitors.monitor(flow));
      if (!config.with_traffic) continue;
      const update::Instance& inst = *instances[i];
      dataplane::TrafficConfig traffic;
      traffic.flow = flow;
      traffic.ingress = inst.source();
      traffic.egress = inst.destination();
      traffic.waypoint = inst.waypoint();
      traffic.interarrival = config.traffic_interarrival;
      traffic.link_latency = config.link_latency;
      traffic.ttl = config.ttl;
      traffic.start = 0;
      traffic.stop = std::numeric_limits<sim::SimTime>::max();
      // A flow's injection lives on its ingress switch's shard queue; hops
      // then follow the packet onto whichever shard owns each switch, with
      // cross-shard hand-offs through ShardedSim::post (traffic.hpp).
      sources.push_back(std::make_unique<dataplane::TrafficSource>(
          sim, partition, switches, traffic, rng.fork(), *monitor_of.back()));
    }
  }

  // Stops injecting `drain` from now, giving in-flight packets and the
  // monitors a drain window (set_stop is monotone: injection checks the
  // new bound).
  void stop_traffic_after(sim::Duration drain) {
    for (auto& source : sources) source->set_stop(sim.now() + drain);
  }

  // Starts traffic between the driver's hooks, runs the clock to drain,
  // and collects the run's counters into `out`.
  Status run(Driver& driver, RunCounters& out) {
    driver.wire(*this);
    for (auto& source : sources) source->start();
    driver.launch(*this);

    const auto wall_start = std::chrono::steady_clock::now();
    sim.run();
    out.sharding.wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
    if (!ctrl->idle() || !driver.finished())
      return make_error(Errc::kFailedPrecondition,
                        "simulation drained with work outstanding");

    for (const channel::DuplexChannel* duplex : duplex_by_node) {
      if (duplex == nullptr) continue;
      out.frames_sent += duplex->to_switch.frames_sent() +
                         duplex->to_controller.frames_sent();
      out.control_bytes += duplex->to_switch.bytes_sent() +
                           duplex->to_controller.bytes_sent();
      out.messages_sent += duplex->to_switch.messages_sent() +
                           duplex->to_controller.messages_sent();
      fault_stats.frames_lost += duplex->to_switch.frames_dropped() +
                                 duplex->to_controller.frames_dropped();
    }
    for (const switchsim::SimSwitch* sw : switches)
      if (sw != nullptr) fault_stats.frames_lost += sw->frames_dropped();
    out.max_in_flight_observed = ctrl->max_in_flight_observed();
    out.conflict_edges = ctrl->conflict_edges();
    out.blocked_submissions = ctrl->blocked_submissions();
    out.batching.batches_sent = ctrl->batches_sent();
    out.batching.messages_coalesced = ctrl->messages_coalesced();
    out.batching.timer_flushes = ctrl->timer_flushes();
    out.batching.budget_flushes = ctrl->budget_flushes();
    out.batching.flush_timers_cancelled = ctrl->flush_timers_cancelled();
    out.batching.max_hold = ctrl->max_hold();
    out.sharding.shards = ctrl->shard_count();
    out.sharding.cross_shard_updates = ctrl->cross_shard_updates();
    out.sharding.rounds_synced = ctrl->rounds_synced();
    out.sharding.sync_overhead = ctrl->sync_overhead();
    out.sharding.events_per_shard = sim.events_per_shard();
    out.sharding.partition_cut_weight = partition_cut_weight;
    out.faults = std::move(fault_stats);
    out.faults.timeouts = ctrl->timeouts();
    out.faults.resyncs = ctrl->resyncs();
    out.faults.resync_frames = ctrl->resync_frames();
    out.faults.rollbacks = ctrl->rollbacks();
    out.faults.retries = ctrl->retries();
    out.faults.resubmissions = ctrl->resubmissions();
    out.final_state_digest = state_digest();
    out.initial_state_digest = initial_digest;
    return {};
  }
};

// The closed loop: submits every request at the end of the warmup (the
// paper's queue: they arrive together; how many progress at once is the
// controller's max_in_flight under its admission policy) and stops traffic
// `drain` after the last one completes.
class ClosedLoop final : public Driver {
 public:
  // Request r's key flow - the first flow it updates, unique per request -
  // is `first_flow` + an offset below `flow_count`.
  ClosedLoop(std::vector<controller::UpdateRequest>& requests,
             FlowId first_flow, std::size_t flow_count)
      : done(requests.size()),
        requests_(requests),
        first_flow_(first_flow),
        request_index_(flow_count, 0) {
    for (std::size_t r = 0; r < requests.size(); ++r)
      request_index_[requests[r].flow - first_flow] = r;
  }

  // Completed metrics by request, collected as they happen: completion
  // order need not match submission order when updates run concurrently,
  // and the controller's own retained window is a bounded ring that a run
  // with more requests than its capacity must not read results back from.
  std::vector<controller::UpdateMetrics> done;

  void wire(Engine& engine) override {
    engine.ctrl->set_on_update_done(
        [this, &engine](const controller::UpdateMetrics& metrics) {
          const std::size_t key = metrics.flow - first_flow_;
          TSU_ASSERT(key < request_index_.size());
          done[request_index_[key]] = metrics;
          if (++completed_ == requests_.size())
            engine.stop_traffic_after(engine.config.drain);
        });
  }

  // Each request's submission event lands on its HOME shard - the lowest
  // shard its FlowMods touch - so warmup submissions do not serialize
  // through shard 0's queue; merged order at the shared warmup instant
  // stays deterministic (shard ascending, then input order within a
  // shard).
  void launch(Engine& engine) override {
    const std::size_t shards = engine.sim.shard_count();
    by_home_.resize(shards);
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      std::size_t home = shards;
      for (const std::vector<controller::RoundOp>& round :
           requests_[i].rounds)
        for (const controller::RoundOp& op : round)
          home = std::min(home, engine.partition.shard_of(op.node));
      by_home_[home == shards ? 0 : home].push_back(i);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (by_home_[s].empty()) continue;
      engine.sim.schedule_on(s, engine.config.warmup, [this, &engine, s]() {
        for (const std::size_t i : by_home_[s])
          engine.ctrl->submit(std::move(requests_[i]));
      });
    }
  }

  bool finished() const override { return completed_ == requests_.size(); }

 private:
  std::vector<controller::UpdateRequest>& requests_;
  FlowId first_flow_;
  std::vector<std::size_t> request_index_;  // by key flow - first_flow_
  std::size_t completed_ = 0;
  std::vector<std::vector<std::size_t>> by_home_;
};

// The closed-loop run behind execute_multiflow and execute_mixed. Request
// r covers policy r alone unless `grouped`; then request r is group r, and
// its metrics land in result.updates instead of a flow.
Result<MultiFlowExecutionResult> run_closed_loop(
    const std::vector<const update::Instance*>& instances,
    std::vector<controller::UpdateRequest> requests,
    const ExecutorConfig& config, bool grouped) {
  Result<std::unique_ptr<Engine>> built =
      Engine::build(instances, config, sim::milliseconds(1));
  if (!built.ok()) return built.error();
  Engine& engine = *built.value();
  ClosedLoop driver(requests, config.flow, instances.size());
  MultiFlowExecutionResult result;
  const Status ran = engine.run(driver, result);
  if (!ran.ok()) return ran.error();

  result.flows.resize(instances.size());
  sim::SimTime first_start = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last_finish = 0;
  for (std::size_t r = 0; r < driver.done.size(); ++r) {
    controller::UpdateMetrics& metrics = driver.done[r];
    first_start = std::min(first_start, metrics.started);
    last_finish = std::max(last_finish, metrics.finished);
    if (grouped)
      result.updates.push_back(std::move(metrics));
    else
      result.flows[r].update = std::move(metrics);
  }
  result.makespan = last_finish - first_start;

  result.aggregate = engine.monitors.aggregate();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ExecutionResult& flow = result.flows[i];
    dataplane::ConsistencyMonitor& monitor = *engine.monitor_of[i];
    flow.traffic = monitor.report();
    flow.timeline = monitor.take_timeline();
    flow.frames_sent = result.frames_sent;
    flow.control_bytes = result.control_bytes;
    if (config.with_traffic)
      flow.packets_injected = engine.sources[i]->injected();
  }
  return result;
}

Status check_lists(const std::vector<const update::Instance*>& instances,
                   const std::vector<const update::Schedule*>& schedules) {
  if (instances.size() != schedules.size() || instances.empty())
    return make_error(Errc::kInvalidArgument,
                      "need matching, non-empty instance/schedule lists");
  return {};
}

}  // namespace

Result<ExecutionResult> execute(const update::Instance& inst,
                                const update::Schedule& schedule,
                                const ExecutorConfig& config) {
  Result<std::vector<ExecutionResult>> results =
      execute_queue({&inst}, {&schedule}, config);
  if (!results.ok()) return results.error();
  return std::move(results.value().front());
}

Result<std::vector<ExecutionResult>> execute_queue(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  if (instances.size() > 1 && config.controller.shards > 1)
    return make_error(Errc::kInvalidArgument,
                      "a queue of several updates needs shards = 1 "
                      "(max_in_flight bounds each shard)");
  ExecutorConfig serialized = config;
  serialized.controller.max_in_flight = 1;
  Result<MultiFlowExecutionResult> run =
      execute_multiflow(instances, schedules, serialized);
  if (!run.ok()) return run.error();
  return std::move(run.value().flows);
}

Result<MultiFlowExecutionResult> execute_multiflow(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  if (const Status ok = check_lists(instances, schedules); !ok.ok())
    return ok.error();
  std::vector<controller::UpdateRequest> requests;
  requests.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i)
    requests.push_back(controller::request_from_schedule(
        *instances[i], *schedules[i], config.flow + i, config.priority,
        config.interval));
  return run_closed_loop(instances, std::move(requests), config, false);
}

Result<MultiFlowExecutionResult> execute_mixed(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const std::vector<std::vector<std::size_t>>& groups,
    const ExecutorConfig& config) {
  if (const Status ok = check_lists(instances, schedules); !ok.ok())
    return ok.error();
  if (groups.empty())
    return make_error(Errc::kInvalidArgument, "need at least one group");

  // Groups must partition the policy indexes.
  std::vector<bool> seen(instances.size(), false);
  for (const std::vector<std::size_t>& group : groups) {
    if (group.empty())
      return make_error(Errc::kInvalidArgument, "empty group");
    for (const std::size_t i : group) {
      if (i >= instances.size() || seen[i])
        return make_error(Errc::kInvalidArgument,
                          "groups must partition the policy indexes");
      seen[i] = true;
    }
  }
  for (const bool covered : seen)
    if (!covered)
      return make_error(Errc::kInvalidArgument,
                        "groups must cover every policy");

  std::vector<controller::UpdateRequest> requests;
  requests.reserve(groups.size());
  for (const std::vector<std::size_t>& group : groups) {
    if (group.size() == 1) {
      const std::size_t i = group.front();
      requests.push_back(controller::request_from_schedule(
          *instances[i], *schedules[i], config.flow + i, config.priority,
          config.interval));
      continue;
    }
    std::vector<const update::Instance*> members;
    std::vector<const update::Schedule*> member_schedules;
    std::vector<FlowId> flows;
    for (const std::size_t i : group) {
      members.push_back(instances[i]);
      member_schedules.push_back(schedules[i]);
      flows.push_back(config.flow + i);
    }
    Result<update::MergedSchedule> merged =
        update::merge_policies(members, member_schedules);
    if (!merged.ok()) return merged.error();
    requests.push_back(controller::request_from_merged(
        members, member_schedules, merged.value(), flows, config.priority,
        config.interval));
  }
  return run_closed_loop(instances, std::move(requests), config, true);
}

Result<MultiFlowExecutionResult> execute_merged(
    const std::vector<const update::Instance*>& instances,
    const std::vector<const update::Schedule*>& schedules,
    const ExecutorConfig& config) {
  std::vector<std::size_t> all(instances.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return execute_mixed(instances, schedules, {std::move(all)}, config);
}

namespace {

// One direction of a service template: the update it submits and the key
// of its compiled plan.
struct TemplateDirection {
  const update::Instance* inst = nullptr;
  const update::Schedule* sched = nullptr;
  std::uint64_t plan_key = 0;
};

// The open-loop driver (service.hpp): arrivals at times drawn from the
// arrival process enter a bounded pending queue; the pump releases them
// into the controller by strict class priority under per-class token
// buckets; snapshots sample the run. All events run on shard 0.
class ServiceDriver final : public Driver {
 public:
  ServiceDriver(const ServiceConfig& config, Engine& engine,
                std::vector<std::array<TemplateDirection, 2>> templates,
                topo::ArrivalProcess arrivals, double total_weight,
                ServiceResult& result)
      : config_(config),
        engine_(engine),
        templates_(std::move(templates)),
        arrivals_(std::move(arrivals)),
        total_weight_(total_weight),
        // Forked AFTER every per-switch/per-source fork (Engine::build) so
        // the control-plane streams match a run with different service
        // parameters.
        rng_(engine.rng.fork()),
        pending_(config.classes.size()),
        tokens_(config.classes.size()),
        refilled_(config.classes.size(), 0),
        flip_(config.flows, 0),
        result_(result),
        stats_(result.stats) {
    // Per-class depth is bounded by the shared max_pending admission
    // check, so the default configuration never grows a ring after this.
    for (util::FlatRing<PendingRequest>& ring : pending_)
      ring.reserve(std::min<std::size_t>(config.max_pending, 1024));
    for (std::size_t c = 0; c < tokens_.size(); ++c)
      tokens_[c] = std::max(1.0, config.classes[c].burst);
    stats_.by_class.resize(config.classes.size());

    depth_limit_ = config.submit_depth;
    if (depth_limit_ == 0) {
      const std::size_t mif = engine.config.controller.max_in_flight == 0
                                  ? 1
                                  : engine.config.controller.max_in_flight;
      depth_limit_ = mif > (std::size_t{1} << 20)
                         ? (std::size_t{1} << 20)
                         : 2 * mif * engine.sim.shard_count();
    }
  }

  void wire(Engine& engine) override {
    engine.ctrl->set_on_update_done(
        [this](const controller::UpdateMetrics& metrics) {
          ++stats_.completed;
          if (metrics.aborted) ++stats_.aborted;
          if (metrics.priority_class < stats_.by_class.size())
            ++stats_.by_class[metrics.priority_class].completed;
          result_.sim_duration =
              std::max(result_.sim_duration, metrics.finished);
          pump();
          maybe_finish();
        });
    // Live snapshot feed: a bounded ring of the last snapshot_window
    // snapshots; the event stops rescheduling itself once the run is done,
    // so it never keeps the simulation alive.
    if (config_.snapshot_interval > 0 && config_.snapshot_window > 0) {
      result_.snapshots.reserve(config_.snapshot_window);
      engine.sim.schedule_on(0, config_.snapshot_interval,
                             [this]() { snapshot(); });
    }
    if (config_.tune) config_.tune(*engine.ctrl);
  }

  void launch(Engine&) override { schedule_next_arrival(); }

  bool finished() const override {
    return pending_total_ == 0 && stats_.submitted == stats_.completed;
  }

  // Puts the snapshot ring in time order and copies out the plan-cache
  // counters, once the run has drained.
  void complete_result() {
    std::rotate(result_.snapshots.begin(),
                result_.snapshots.begin() + snap_next_,
                result_.snapshots.end());
    stats_.plan_compiles = plan_cache_.compiles();
    stats_.plan_hits = plan_cache_.hits();
    stats_.plan_invalidations = plan_cache_.invalidations();
  }

 private:
  struct PendingRequest {
    std::size_t tmpl = 0;
    sim::SimTime arrived = 0;
  };

  std::size_t controller_depth() const {
    return engine_.ctrl->queued() + engine_.ctrl->in_flight();
  }

  std::uint8_t pick_class() {
    const std::size_t class_count = config_.classes.size();
    if (class_count == 1) return 0;
    double r = rng_.uniform01() * total_weight_;
    for (std::size_t c = 0; c < class_count; ++c) {
      r -= std::max(0.0, config_.classes[c].weight);
      if (r < 0) return static_cast<std::uint8_t>(c);
    }
    return static_cast<std::uint8_t>(class_count - 1);
  }

  void submit_one(std::size_t cls) {
    const PendingRequest p = pending_[cls].front();
    pending_[cls].pop_front();
    --pending_total_;
    const bool reverse = config_.alternate_directions && (flip_[p.tmpl] & 1);
    ++flip_[p.tmpl];
    const TemplateDirection& dir = templates_[p.tmpl][reverse ? 1 : 0];
    const ExecutorConfig& exec = engine_.config;
    const auto request = [&]() {
      return controller::request_from_schedule(
          *dir.inst, *dir.sched, static_cast<FlowId>(exec.flow + p.tmpl),
          exec.priority, exec.interval);
    };
    if (exec.controller.plan_cache) {
      // Warm path: reuse the compiled plan - no lowering, no compiling.
      // Cold path: build the CANONICAL request (exactly what the cache-off
      // branch below submits, before the per-submission class/enqueued
      // stamps) and compile it once. The lookup passes the coordinator's
      // current resync generation: any fault-driven shadow rewrite bumps
      // it, and stale plans are recompiled, never served. Cache off
      // submits the request, which the controller compiles on the spot.
      const std::uint64_t generation = engine_.ctrl->resync_generation();
      std::shared_ptr<const controller::CompiledPlan> plan =
          plan_cache_.lookup(dir.plan_key, generation);
      if (plan == nullptr) {
        plan = controller::compile_plan(request(), generation);
        plan_cache_.store(dir.plan_key, plan);
      }
      engine_.ctrl->submit_plan(std::move(plan),
                                static_cast<std::uint8_t>(cls), p.arrived);
    } else {
      controller::UpdateRequest req = request();
      req.priority_class = static_cast<std::uint8_t>(cls);
      req.enqueued = p.arrived;
      engine_.ctrl->submit(std::move(req));
    }
    ++stats_.submitted;
    ++stats_.by_class[cls].submitted;
  }

  void schedule_pump(sim::Duration delay) {
    if (pump_timer_) return;
    pump_timer_ = true;
    engine_.sim.schedule_on(0, delay, [this]() {
      pump_timer_ = false;
      pump();
    });
  }

  // Releases pending requests into the controller: strict priority (class
  // 0 first, FIFO within a class) up to depth_limit_, honouring each
  // class's token bucket. A throttled class defers its head-of-line
  // request and the scan moves on, so rate-limited high-priority traffic
  // never starves unlimited lower classes.
  void pump() {
    if (pumping_) return;  // submit can complete and re-enter synchronously
    pumping_ = true;
    const sim::SimTime now = engine_.sim.now();
    bool want_timer = false;
    sim::Duration timer_delay = 0;
    bool progress = true;
    while (progress && pending_total_ > 0 &&
           controller_depth() < depth_limit_) {
      progress = false;
      for (std::size_t c = 0; c < pending_.size(); ++c) {
        if (pending_[c].empty()) continue;
        const ServiceClassConfig& cls = config_.classes[c];
        if (cls.rate_limit_per_sec > 0) {
          const double cap = std::max(1.0, cls.burst);
          tokens_[c] = std::min(
              cap, tokens_[c] + static_cast<double>(now - refilled_[c]) *
                                    cls.rate_limit_per_sec / 1e9);
          refilled_[c] = now;
          if (tokens_[c] < 1) {
            ++stats_.throttled;
            ++stats_.by_class[c].throttled;
            const sim::Duration wait =
                static_cast<sim::Duration>((1 - tokens_[c]) * 1e9 /
                                           cls.rate_limit_per_sec) +
                1;
            if (!want_timer || wait < timer_delay) {
              want_timer = true;
              timer_delay = wait;
            }
            continue;
          }
          tokens_[c] -= 1;
        }
        submit_one(c);
        progress = true;
        break;  // restart from class 0: strict priority
      }
    }
    stats_.peak_controller_depth =
        std::max(stats_.peak_controller_depth, controller_depth());
    if (want_timer && pending_total_ > 0) schedule_pump(timer_delay);
    pumping_ = false;
  }

  // Once arrivals have stopped and every accepted request completed, give
  // in-flight packets a drain window; with traffic off the event queue
  // simply empties.
  void maybe_finish() {
    if (arrivals_done_ && finished())
      engine_.stop_traffic_after(engine_.config.drain);
  }

  void schedule_next_arrival() {
    const bool target_met = config_.target_completions != 0 &&
                            stats_.accepted >= config_.target_completions;
    if (!target_met && !arrivals_.exhausted()) {
      const sim::Duration gap = arrivals_.next_gap(rng_);
      if (config_.horizon == 0 || engine_.sim.now() + gap <= config_.horizon) {
        engine_.sim.schedule_on(0, gap, [this]() { arrive(); });
        return;
      }
    }
    arrivals_done_ = true;
    maybe_finish();
  }

  void arrive() {
    const std::uint8_t cls = pick_class();
    ++stats_.arrivals;
    ++stats_.by_class[cls].arrivals;
    if (pending_total_ >= config_.max_pending) {
      // Load shedding: a full pending queue rejects, never buffers - the
      // bound that keeps overload memory flat.
      ++stats_.rejected;
      ++stats_.by_class[cls].rejected;
    } else {
      pending_[cls].push_back(
          PendingRequest{rng_.index(config_.flows), engine_.sim.now()});
      ++pending_total_;
      ++stats_.accepted;
      ++stats_.by_class[cls].accepted;
      stats_.peak_pending = std::max(stats_.peak_pending, pending_total_);
    }
    pump();
    schedule_next_arrival();
  }

  void snapshot() {
    ServiceSnapshot s;
    s.at = engine_.sim.now();
    s.arrivals = stats_.arrivals;
    s.accepted = stats_.accepted;
    s.rejected = stats_.rejected;
    s.submitted = stats_.submitted;
    s.completed = stats_.completed;
    s.pending = pending_total_;
    s.controller_depth = controller_depth();
    s.steady_state_entries = engine_.ctrl->steady_state_entries();
    s.plan_compiles = plan_cache_.compiles();
    s.plan_hits = plan_cache_.hits();
    s.plan_invalidations = plan_cache_.invalidations();
    s.window_throughput_per_sec =
        static_cast<double>(stats_.completed - snap_prev_completed_) * 1e9 /
        static_cast<double>(config_.snapshot_interval);
    snap_prev_completed_ = stats_.completed;
    const controller::CompletionStats& cs =
        engine_.ctrl->completions().stats();
    if (cs.count > 0) {
      s.p50_duration_ms = cs.duration_ns.quantile(0.5) / 1e6;
      s.p99_duration_ms = cs.duration_ns.quantile(0.99) / 1e6;
      s.p50_wait_ms = cs.wait_ns.quantile(0.5) / 1e6;
      s.p99_wait_ms = cs.wait_ns.quantile(0.99) / 1e6;
    }
    if (result_.snapshots.size() < config_.snapshot_window) {
      result_.snapshots.push_back(s);
    } else {
      result_.snapshots[snap_next_] = s;
      snap_next_ = (snap_next_ + 1) % config_.snapshot_window;
    }
    if (config_.on_snapshot) config_.on_snapshot(s);
    if (!(arrivals_done_ && finished()))
      engine_.sim.schedule_on(0, config_.snapshot_interval,
                              [this]() { snapshot(); });
  }

  const ServiceConfig& config_;
  Engine& engine_;
  std::vector<std::array<TemplateDirection, 2>> templates_;  // [fwd, rev]
  topo::ArrivalProcess arrivals_;
  double total_weight_;
  Rng rng_;
  // Per-class FIFOs as flat rings rather than std::deque, which would
  // allocate chunks at constant depth on the submission path.
  std::vector<util::FlatRing<PendingRequest>> pending_;
  std::size_t pending_total_ = 0;
  std::vector<double> tokens_;
  std::vector<sim::SimTime> refilled_;
  std::vector<std::uint64_t> flip_;
  std::size_t depth_limit_ = 0;
  bool arrivals_done_ = false;
  bool pump_timer_ = false;
  bool pumping_ = false;
  ServiceResult& result_;
  ServiceStats& stats_;
  controller::PlanCache plan_cache_;
  std::size_t snap_next_ = 0;  // oldest entry of the full snapshot ring
  std::uint64_t snap_prev_completed_ = 0;
};

}  // namespace

Result<ServiceResult> execute_service(const ServiceConfig& config) {
  ExecutorConfig exec = config.exec;
  // Consecutive updates of one template share a rule footprint and MUST
  // serialize, or a later submission races the earlier one's rounds and
  // leaves the data plane inconsistent (the reverse direction assumes the
  // forward update's end state). Blind admission cannot give that
  // guarantee, so service mode upgrades it to the conflict DAG.
  if (exec.controller.admission == controller::AdmissionPolicy::kBlind)
    exec.controller.admission = controller::AdmissionPolicy::kConflictAware;
  if (config.flows == 0)
    return make_error(Errc::kInvalidArgument, "need at least one template");
  if (config.classes.empty() || config.classes.size() > 256)
    return make_error(Errc::kInvalidArgument,
                      "priority class count must be in [1, 256]");
  if (config.max_pending == 0)
    return make_error(Errc::kInvalidArgument,
                      "max_pending must be at least 1");
  const bool bounded_trace = !config.trace.empty() && !config.trace_cycle;
  if (config.horizon == 0 && config.target_completions == 0 && !bounded_trace)
    return make_error(Errc::kInvalidArgument,
                      "service needs a horizon, a completion target, or a "
                      "non-cycling trace - arrivals would never stop");
  if (config.trace.empty() && !(config.arrival_rate_per_sec > 0))
    return make_error(Errc::kInvalidArgument,
                      "arrival rate must be positive");
  if (!exec.faults.empty())
    return make_error(Errc::kInvalidArgument,
                      "fault injection is not supported in service mode");
  double total_weight = 0;
  for (const ServiceClassConfig& cls : config.classes)
    total_weight += std::max(0.0, cls.weight);
  if (!(total_weight > 0))
    return make_error(Errc::kInvalidArgument,
                      "class weights must sum to a positive value");

  // Template pool: forward (old -> new) schedules, plus the reverse
  // direction planned once up front when alternation is on. Submission
  // flips per template, and same-template requests share a rule footprint,
  // so admission serializes them in arrival order - the data plane always
  // transitions from the state the submitted direction assumes.
  Result<topo::PlannedPoolWorkload> pool_result =
      topo::planned_pool_workload(config.flows, config.pool_switches);
  if (!pool_result.ok()) return pool_result.error();
  const topo::PlannedPoolWorkload pool = std::move(pool_result).value();
  // Plan-cache keys come from each instance's identity digest. The forward
  // and reverse instances of one template digest differently (the paths
  // swap), but a direction tag is mixed in anyway so the key's meaning
  // never rests on that accident.
  constexpr std::uint64_t kReverseTag = 0x9e3779b97f4a7c15ULL;
  const std::size_t count = pool.instances.size();
  std::vector<update::Instance> rev_instances;
  std::vector<update::Schedule> rev_schedules;
  rev_instances.reserve(count);  // `templates` points into both
  rev_schedules.reserve(count);
  std::vector<std::array<TemplateDirection, 2>> templates(count);
  for (std::size_t t = 0; t < count; ++t) {
    const update::Instance& inst = pool.instances[t];
    templates[t][0] = {&inst, &pool.schedules[t], inst.identity_digest()};
    if (!config.alternate_directions) continue;
    Result<update::Instance> rev = update::Instance::make(
        inst.new_path(), inst.old_path(), inst.waypoint());
    if (!rev.ok()) return rev.error();
    Result<update::Schedule> sched = update::plan_peacock(rev.value());
    if (!sched.ok()) return sched.error();
    rev_instances.push_back(std::move(rev).value());
    rev_schedules.push_back(std::move(sched).value());
    templates[t][1] = {&rev_instances.back(), &rev_schedules.back(),
                       rev_instances.back().identity_digest() ^ kReverseTag};
  }

  // Timeline bucket 0: aggregate outcome counts only. An open-loop horizon
  // is unbounded, so the per-bucket timeline must stay disabled.
  Result<std::unique_ptr<Engine>> built =
      Engine::build(pool.instance_ptrs, std::move(exec), 0);
  if (!built.ok()) return built.error();
  Engine& engine = *built.value();
  ServiceResult result;
  ServiceDriver driver(
      config, engine, std::move(templates),
      !config.trace.empty()
          ? topo::ArrivalProcess::trace(config.trace, config.trace_cycle)
          : topo::ArrivalProcess::poisson(config.arrival_rate_per_sec),
      total_weight, result);
  const Status ran = engine.run(driver, result);
  if (!ran.ok()) return ran.error();

  const controller::CompletionLog& log = engine.ctrl->completions();
  result.completions = log.stats();
  result.recent.reserve(log.recent().size());
  for (std::size_t i = log.recent().size(); i-- > 0;)
    result.recent.push_back(log.recent_back(i));  // oldest -> newest
  result.traffic = engine.monitors.aggregate();
  result.steady_state_entries_final = engine.ctrl->steady_state_entries();
  for (std::size_t s = 0; s < engine.ctrl->shard_count(); ++s)
    result.retired_xids += engine.ctrl->shard(s).engine().retired_xids();
  driver.complete_result();
  return result;
}

}  // namespace tsu::core
