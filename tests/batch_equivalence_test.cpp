// Randomized batched-vs-unbatched equivalence: whatever the outbox flush
// policy (off | instant | window | adaptive), a run must install exactly
// the same final forwarding state, complete every update, and report zero
// safety-oracle violations - batching may only change frame packing and
// timing, never WHAT gets installed or the transient guarantees. 100 seeds
// x 4 batch modes = 400 executions over randomized shared-pool workloads,
// admission policies, concurrency limits, hold windows and byte budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

constexpr controller::BatchMode kAllModes[] = {
    controller::BatchMode::kOff, controller::BatchMode::kInstant,
    controller::BatchMode::kWindow, controller::BatchMode::kAdaptive};

// Fast constant-latency control plane with sparse per-flow traffic: quick
// enough for 400 runs under sanitizers, busy enough that the consistency
// monitor sees real packets on every flow.
ExecutorConfig fast_config(std::uint64_t seed) {
  ExecutorConfig config;
  config.seed = seed;
  config.channel.latency = sim::LatencyModel::constant(sim::microseconds(200));
  config.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(100));
  config.traffic_interarrival =
      sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
  config.warmup = sim::milliseconds(1);
  config.drain = sim::milliseconds(4);
  return config;
}

TEST(BatchEquivalenceTest, EveryBatchModeMatchesUnbatchedAcross100Seeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 3 + rng.index(6);            // 3..8
    const std::size_t switches = 6 * (1 + rng.index(2));   // 6 or 12: shared
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.controller.admission =
        static_cast<controller::AdmissionPolicy>(rng.index(3));
    config.controller.max_in_flight = 1 + rng.index(flows);
    config.controller.batch_window =
        sim::microseconds(50 + rng.index(950));            // 50us..1ms
    config.controller.batch_bytes = 200 + rng.index(3800); // forces budget
                                                           // flushes sometimes

    std::optional<MultiFlowExecutionResult> baseline;  // batch_mode = off
    for (const controller::BatchMode mode : kAllModes) {
      config.controller.batch_mode = mode;
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " mode "
                            << controller::to_string(mode) << ": "
                            << run.error().to_string();
      const MultiFlowExecutionResult& result = run.value();
      ASSERT_EQ(result.flows.size(), flows);

      // Safety oracle: zero transient violations under every flush policy.
      EXPECT_GT(result.aggregate.total, 0u) << "seed " << seed;
      EXPECT_EQ(result.aggregate.bypassed, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);
      EXPECT_EQ(result.aggregate.looped, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);
      EXPECT_EQ(result.aggregate.blackholed, 0u)
          << "seed " << seed << " mode " << controller::to_string(mode);

      // The hold window really is a bound, whatever this seed drew.
      EXPECT_LE(result.batching.max_hold, config.controller.batch_window)
          << "seed " << seed << " mode " << controller::to_string(mode);

      if (mode == controller::BatchMode::kOff) {
        EXPECT_EQ(result.batching.batches_sent, 0u) << "seed " << seed;
        baseline = result;
        continue;
      }

      // Identical final forwarding state, flow by flow and rule by rule.
      ASSERT_TRUE(baseline.has_value());
      EXPECT_EQ(result.final_state_digest, baseline->final_state_digest)
          << "seed " << seed << " mode " << controller::to_string(mode);
      // Per-flow violation counts match the unbatched run...
      for (std::size_t i = 0; i < flows; ++i) {
        const dataplane::MonitorReport& got = result.flows[i].traffic;
        const dataplane::MonitorReport& want = baseline->flows[i].traffic;
        ASSERT_EQ(got.bypassed, want.bypassed) << "seed " << seed << " flow " << i;
        ASSERT_EQ(got.looped, want.looped) << "seed " << seed << " flow " << i;
        ASSERT_EQ(got.blackholed, want.blackholed)
            << "seed " << seed << " flow " << i;
        // ...and so does the logical message count: batching repacks
        // frames, it never adds or drops FlowMods.
        EXPECT_EQ(result.flows[i].update.flow_mods_sent,
                  baseline->flows[i].update.flow_mods_sent)
            << "seed " << seed << " flow " << i;
      }
      // Coalescing can only remove frames.
      EXPECT_LE(result.frames_sent, baseline->frames_sent)
          << "seed " << seed << " mode " << controller::to_string(mode);
    }
  }
}

TEST(BatchEquivalenceTest, WindowedModesCutFramesOnSharedPool) {
  // Every flow in flight at once over shared switches, in two pools: 64
  // flows over 12 switches with traffic, and 1000 flows over 210 switches
  // with traffic off on a 0.1 ms channel. The windowed outbox must pack
  // cross-instant messages into markedly fewer frames than both the
  // unbatched and the same-instant-only baselines.
  ExecutorConfig large;
  large.seed = 4242;
  large.with_traffic = false;
  large.channel.latency = sim::LatencyModel::constant(sim::microseconds(100));
  large.switch_config.install_latency =
      sim::LatencyModel::constant(sim::microseconds(50));
  large.controller.admission = controller::AdmissionPolicy::kConflictAware;
  struct Pool {
    std::size_t flows;
    std::size_t switches;
    ExecutorConfig config;
  };
  for (Pool pool : {Pool{64, 12, fast_config(7)}, Pool{1000, 210, large}}) {
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(pool.flows, pool.switches).value();
    ExecutorConfig& config = pool.config;
    config.controller.max_in_flight = pool.flows;
    config.controller.batch_window = sim::microseconds(300);

    MultiFlowExecutionResult by_mode[4];
    for (std::size_t i = 0; i < 4; ++i) {
      config.controller.batch_mode = kAllModes[i];
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << run.error().to_string();
      ASSERT_EQ(run.value().flows.size(), pool.flows);
      by_mode[i] = run.value();
    }
    const MultiFlowExecutionResult& off = by_mode[0];
    EXPECT_EQ(by_mode[1].final_state_digest, off.final_state_digest)
        << pool.flows << " flows";
    for (const std::size_t windowed : {2u, 3u}) {  // window, adaptive
      const MultiFlowExecutionResult& result = by_mode[windowed];
      EXPECT_EQ(result.final_state_digest, off.final_state_digest)
          << pool.flows << " flows";
      // The acceptance bar: >= 30% fewer control frames than unbatched.
      EXPECT_LE(result.frames_sent * 10, off.frames_sent * 7)
          << controller::to_string(kAllModes[windowed]) << " sent "
          << result.frames_sent << " frames vs " << off.frames_sent;
      EXPECT_GT(result.batching.batches_sent, 0u);
      EXPECT_GT(result.batching.messages_coalesced, 0u);
      // Cross-instant packing: windowed modes beat same-instant coalescing.
      EXPECT_LT(result.frames_sent, by_mode[1].frames_sent)
          << pool.flows << " flows";
    }
  }
}

TEST(BatchEquivalenceTest, RunsAreDeterministicPerModeAndSeed) {
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 6).value();
  for (const controller::BatchMode mode : kAllModes) {
    ExecutorConfig config = fast_config(42);
    config.controller.max_in_flight = 8;
    config.controller.batch_mode = mode;
    const Result<MultiFlowExecutionResult> a =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    const Result<MultiFlowExecutionResult> b =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
    EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
    EXPECT_EQ(a.value().makespan, b.value().makespan);
    EXPECT_EQ(a.value().batching.batches_sent,
              b.value().batching.batches_sent);
  }
}

}  // namespace
}  // namespace tsu::core
