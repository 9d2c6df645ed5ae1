// Pins the exact outputs of every executor entry point for fixed seeds:
// final forwarding-state digest, control frames and bytes, makespan, each
// flow's start/finish instants and the monitor's packet counts. The
// equivalence suites compare two runs of one build with each other, so a
// change that shifts every run alike passes them; these literals catch it.
// A deliberate change to the event schedule must re-record them - every
// mismatch prints the actual value in the literal's own syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <ostream>
#include <vector>

#include "multiflow_workload.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/service.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/topo/instances.hpp"

namespace tsu::core {
namespace {

struct FlowGolden {
  sim::SimTime started = 0;
  sim::SimTime finished = 0;
  std::size_t packets = 0;
  std::size_t delivered = 0;

  bool operator==(const FlowGolden&) const = default;
};

// One run's pinned values; fields a result type does not report stay 0.
struct Golden {
  std::uint64_t digest = 0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  sim::Duration makespan = 0;
  // Aggregate MonitorReport: total, delivered, bypassed, looped,
  // blackholed, ttl_expired, fault_dropped.
  std::array<std::size_t, 7> monitor{};
  std::vector<FlowGolden> flows;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  os << "{0x" << std::hex << g.digest << std::dec << "ull, " << g.frames
     << ", " << g.bytes << ", " << g.makespan << ", {";
  for (std::size_t i = 0; i < g.monitor.size(); ++i)
    os << (i ? ", " : "") << g.monitor[i];
  os << "}, {";
  for (std::size_t i = 0; i < g.flows.size(); ++i) {
    const FlowGolden& f = g.flows[i];
    os << (i ? ", " : "") << "{" << f.started << ", " << f.finished << ", "
       << f.packets << ", " << f.delivered << "}";
  }
  return os << "}}";
}

void add_monitor(Golden& g, const dataplane::MonitorReport& r) {
  const std::array<std::size_t, 7> counts{r.total,      r.delivered,
                                          r.bypassed,   r.looped,
                                          r.blackholed, r.ttl_expired,
                                          r.fault_dropped};
  for (std::size_t i = 0; i < counts.size(); ++i) g.monitor[i] += counts[i];
}

FlowGolden flow_golden(const controller::UpdateMetrics& update,
                       const dataplane::MonitorReport& traffic) {
  return {update.started, update.finished, traffic.total, traffic.delivered};
}

// Per-flow runs (execute, execute_queue): makespan spans the flows.
Golden golden_of(const std::vector<ExecutionResult>& flows) {
  Golden g;
  sim::SimTime first = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last = 0;
  for (const ExecutionResult& f : flows) {
    g.flows.push_back(flow_golden(f.update, f.traffic));
    add_monitor(g, f.traffic);
    first = std::min(first, f.update.started);
    last = std::max(last, f.update.finished);
    g.frames = f.frames_sent;
    g.bytes = f.control_bytes;
  }
  g.makespan = last - first;
  return g;
}

Golden golden_of(const MultiFlowExecutionResult& r) {
  Golden g;
  g.digest = r.final_state_digest;
  g.frames = r.frames_sent;
  g.bytes = r.control_bytes;
  g.makespan = r.makespan;
  add_monitor(g, r.aggregate);
  for (const ExecutionResult& f : r.flows)
    g.flows.push_back(flow_golden(f.update, f.traffic));
  return g;
}

// Runs with merged groups report one update per request and traffic per
// policy; the flow rows pair policy i with the update of the request
// `request_index[i]` that covers it. Both result layouts execute_merged and
// execute_mixed have had are read, so the same literals also check builds
// from before their results were unified.
template <typename Result>
Golden golden_of_grouped(const Result& r,
                         const std::vector<std::size_t>& request_index) {
  Golden g;
  g.frames = r.frames_sent;
  const auto update_of =
      [&](std::size_t i) -> const controller::UpdateMetrics& {
    if constexpr (requires { r.update; })
      return r.update;
    else
      return r.updates[request_index[i]];
  };
  const auto traffic_of =
      [&](std::size_t i) -> const dataplane::MonitorReport& {
    if constexpr (requires { r.traffic; })
      return r.traffic[i];
    else
      return r.flows[i].traffic;
  };
  sim::SimTime first = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime last = 0;
  for (std::size_t i = 0; i < request_index.size(); ++i) {
    g.flows.push_back(flow_golden(update_of(i), traffic_of(i)));
    add_monitor(g, traffic_of(i));
    first = std::min(first, update_of(i).started);
    last = std::max(last, update_of(i).finished);
  }
  g.makespan = last - first;
  return g;
}

ExecutorConfig jittery(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency =
      sim::LatencyModel::uniform(sim::microseconds(100), sim::milliseconds(2));
  config.switch_config.install_latency =
      sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.max_in_flight = 8;
  return config;
}

topo::PlannedPoolWorkload pool() {
  return topo::planned_pool_workload(6, 24).value();
}

TEST(ExecutorGoldenTest, Execute) {
  const topo::PlannedPoolWorkload w = pool();
  const Result<ExecutionResult> run =
      execute(w.instances[0], w.schedules[0], jittery(11));
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Golden expected{0x0ull, 15, 250, 8890788,
                        {170, 170, 0, 0, 0, 0, 0},
                        {{5000000, 13890788, 170, 170}}};
  EXPECT_EQ(golden_of({run.value()}), expected);
}

TEST(ExecutorGoldenTest, ExecuteQueue) {
  const topo::PlannedPoolWorkload w = pool();
  const std::vector<const update::Instance*> instances(
      w.instance_ptrs.begin(), w.instance_ptrs.begin() + 3);
  const std::vector<const update::Schedule*> schedules(
      w.schedule_ptrs.begin(), w.schedule_ptrs.begin() + 3);
  const Result<std::vector<ExecutionResult>> run =
      execute_queue(instances, schedules, jittery(12));
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Golden expected{0x0ull, 45, 750, 40581711,
                        {984, 984, 0, 0, 0, 0, 0},
                        {{5000000, 16400144, 328, 328},
                         {16400144, 29655450, 328, 328},
                         {29655450, 45581711, 328, 328}}};
  EXPECT_EQ(golden_of(run.value()), expected);
}

TEST(ExecutorGoldenTest, MultiflowOneShardInstantBatching) {
  const topo::PlannedPoolWorkload w = pool();
  ExecutorConfig config = jittery(13);
  config.controller.batch_mode = controller::BatchMode::kInstant;
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Golden expected{0xde84ed58a97d01aeull, 56, 1760, 14291117,
                        {1182, 1182, 0, 0, 0, 0, 0},
                        {{5000000, 17447508, 197, 197},
                         {5000000, 16907355, 197, 197},
                         {5000000, 14549581, 197, 197},
                         {5000000, 16853588, 197, 197},
                         {5000000, 19291117, 197, 197},
                         {5000000, 19104642, 197, 197}}};
  EXPECT_EQ(golden_of(run.value()), expected);
}

TEST(ExecutorGoldenTest, MultiflowFourHashShardsAdaptiveBatching) {
  const topo::PlannedPoolWorkload w = pool();
  ExecutorConfig config = jittery(14);
  config.controller.shards = 4;
  config.controller.partition = topo::PartitionScheme::kHash;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Golden expected{0xde84ed58a97d01aeull, 56, 1760, 14087701,
                        {1176, 1176, 0, 0, 0, 0, 0},
                        {{5000000, 15551995, 196, 196},
                         {5000000, 18407996, 196, 196},
                         {5000000, 16935057, 196, 196},
                         {5000000, 14851796, 196, 196},
                         {5000000, 17907075, 196, 196},
                         {5000000, 19087701, 196, 196}}};
  EXPECT_EQ(golden_of(run.value()), expected);
}

TEST(ExecutorGoldenTest, MultiflowUnderFaults) {
  const testutil::Workload w = testutil::disjoint_workload(2);
  ExecutorConfig config;
  config.seed = 15;
  config.controller.max_in_flight = 2;
  config.interval = sim::milliseconds(1);
  config.controller.liveness_timeout = sim::milliseconds(3);
  sim::FaultEvent crash;
  crash.kind = sim::FaultKind::kSwitchCrash;
  crash.at = sim::from_ms(2.05);
  crash.node = 4;
  crash.down_for = sim::milliseconds(2);
  crash.lose_state = true;
  config.faults.add(crash);
  sim::FaultEvent blackhole;
  blackhole.kind = sim::FaultKind::kBlackhole;
  blackhole.at = sim::from_ms(5);
  blackhole.node = 10;
  blackhole.frames = 2;
  config.faults.add(blackhole);
  const Result<MultiFlowExecutionResult> run =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().faults.crashes, 1u);
  EXPECT_EQ(run.value().faults.blackholes, 1u);
  const Golden expected{0xd582b866cdd5220aull, 85, 1408, 30914634,
                        {560, 560, 0, 0, 0, 0, 0},
                        {{5000000, 33727938, 280, 280},
                         {5000000, 35914634, 280, 280}}};
  EXPECT_EQ(golden_of(run.value()), expected);
}

TEST(ExecutorGoldenTest, Merged) {
  const topo::PlannedPoolWorkload w = pool();
  const std::vector<const update::Instance*> instances(
      w.instance_ptrs.begin(), w.instance_ptrs.begin() + 3);
  const std::vector<const update::Schedule*> schedules(
      w.schedule_ptrs.begin(), w.schedule_ptrs.begin() + 3);
  const auto run = execute_merged(instances, schedules, jittery(16));
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const Golden expected{0x0ull, 45, 0, 15174074,
                        {603, 603, 0, 0, 0, 0, 0},
                        {{5000000, 20174074, 201, 201},
                         {5000000, 20174074, 201, 201},
                         {5000000, 20174074, 201, 201}}};
  EXPECT_EQ(golden_of_grouped(run.value(), {0, 0, 0}), expected);
}

TEST(ExecutorGoldenTest, Mixed) {
  const topo::PlannedPoolWorkload w = pool();
  const auto run = execute_mixed(w.instance_ptrs, w.schedule_ptrs,
                                 {{0, 1}, {2}, {3}, {4, 5}}, jittery(17));
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().final_state_digest, 0xde84ed58a97d01aeull);
  const Golden expected{0x0ull, 90, 0, 13470165,
                        {1158, 1158, 0, 0, 0, 0, 0},
                        {{5000000, 16061398, 193, 193},
                         {5000000, 16061398, 193, 193},
                         {5000000, 16315866, 193, 193},
                         {5000000, 14839349, 193, 193},
                         {5000000, 18470165, 193, 193},
                         {5000000, 18470165, 193, 193}}};
  EXPECT_EQ(golden_of_grouped(run.value(), {0, 0, 1, 2, 3, 3}), expected);
}

ServiceConfig small_service(bool plan_cache) {
  ServiceConfig config;
  config.exec.seed = 18;
  config.exec.controller.max_in_flight = 4;
  config.exec.controller.plan_cache = plan_cache;
  config.flows = 4;
  config.pool_switches = 24;
  config.arrival_rate_per_sec = 5000;
  config.target_completions = 40;
  return config;
}

// Service runs pin the digest, frames, sim duration (as the makespan) and
// the monitor.
Golden golden_of(const ServiceResult& r) {
  Golden g;
  g.digest = r.final_state_digest;
  g.frames = r.frames_sent;
  g.makespan = r.sim_duration;
  add_monitor(g, r.traffic);
  return g;
}

void expect_every_arrival_completed(const ServiceResult& r) {
  EXPECT_EQ(r.stats.arrivals, 40u);
  EXPECT_EQ(r.stats.completed, 40u);
  EXPECT_EQ(r.completions.count, 40u);
}

// The plan cache is transparent: both settings reach the same values.
TEST(ExecutorGoldenTest, ServicePlanCacheOnAndOff) {
  for (const bool plan_cache : {true, false}) {
    const Result<ServiceResult> run =
        execute_service(small_service(plan_cache));
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    expect_every_arrival_completed(run.value());
    const Golden expected{0x6b4f66eab38bccffull, 600, 0, 125066586,
                          {2904, 2904, 0, 0, 0, 0, 0}, {}};
    EXPECT_EQ(golden_of(run.value()), expected) << "plan_cache " << plan_cache;
  }
}

}  // namespace
}  // namespace tsu::core
