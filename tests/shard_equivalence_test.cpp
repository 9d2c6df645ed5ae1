// Sharded-vs-single-controller equivalence and cross-shard liveness.
//
// Equivalence: whatever the shard count, partition scheme, admission
// policy, release granularity or batch mode, a run must install exactly
// the same final forwarding state as the single controller, complete every
// update, and report the same per-flow safety-oracle outcome (zero
// violations everywhere) - sharding may only change frame interleavings
// and coordination timing, never WHAT gets installed or the transient
// guarantees. 100 seeds x shards in {1, 2, 4, 8}.
//
// Liveness: 500 seeds of flows deliberately spanning shard boundaries
// (hash partition scatters each flow's switches) under tight per-shard
// capacity and every admission policy. Completion IS the assertion: the
// engine errors out if the simulation drains with updates still pending,
// so any cross-shard admission/capacity deadlock fails the sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tsu/core/executor.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::core {
namespace {

constexpr std::uint64_t kEquivalenceSeeds = 100;
constexpr std::uint64_t kLivenessSeeds = 500;

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

TEST(ShardEquivalenceTest, ShardCountsMatchSingleControllerAcross100Seeds) {
  constexpr std::size_t kShardCounts[] = {2, 4, 8};
  std::size_t cross_updates_seen = 0;
  for (std::uint64_t seed = 1; seed <= kEquivalenceSeeds; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 3 + rng.index(6);           // 3..8
    const std::size_t switches = 6 * (1 + rng.index(3));  // 6, 12 or 18
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.controller.admission =
        static_cast<controller::AdmissionPolicy>(rng.index(3));
    config.controller.admission_release =
        rng.index(2) == 0 ? controller::AdmissionRelease::kRequest
                          : controller::AdmissionRelease::kRound;
    config.controller.max_in_flight = 1 + rng.index(flows);
    config.controller.batch_mode =
        static_cast<controller::BatchMode>(rng.index(4));
    config.controller.batch_window = sim::microseconds(50 + rng.index(950));
    config.switch_config.batch_replies = rng.index(2) == 1;
    // Hash scatters a flow's block of switches across shards (the
    // cross-shard stress); block keeps it mostly shard-local.
    config.controller.partition = rng.index(2) == 0
                                      ? topo::PartitionScheme::kHash
                                      : topo::PartitionScheme::kBlock;

    // shards = 1: the single controller, the equivalence baseline.
    config.controller.shards = 1;
    const Result<MultiFlowExecutionResult> single =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(single.ok()) << "seed " << seed << ": "
                             << single.error().to_string();
    const MultiFlowExecutionResult& baseline = single.value();
    EXPECT_GT(baseline.aggregate.total, 0u) << "seed " << seed;
    EXPECT_EQ(baseline.sharding.shards, 1u);
    EXPECT_EQ(baseline.sharding.cross_shard_updates, 0u);

    for (const std::size_t shards : kShardCounts) {
      config.controller.shards = shards;
      const Result<MultiFlowExecutionResult> run =
          execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " shards " << shards
                            << ": " << run.error().to_string();
      const MultiFlowExecutionResult& result = run.value();
      ASSERT_EQ(result.flows.size(), flows);
      cross_updates_seen += result.sharding.cross_shard_updates;

      // Identical final forwarding state, rule by rule.
      EXPECT_EQ(result.final_state_digest, baseline.final_state_digest)
          << "seed " << seed << " shards " << shards;
      // Safety oracle: zero transient violations under every shard count.
      EXPECT_EQ(result.aggregate.bypassed, 0u)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(result.aggregate.looped, 0u)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(result.aggregate.blackholed, 0u)
          << "seed " << seed << " shards " << shards;
      // Per-flow oracle results and message counts match the single
      // controller: sharding repartitions work, it never adds or drops
      // FlowMods.
      for (std::size_t i = 0; i < flows; ++i) {
        const dataplane::MonitorReport& got = result.flows[i].traffic;
        const dataplane::MonitorReport& want = baseline.flows[i].traffic;
        ASSERT_EQ(got.bypassed, want.bypassed)
            << "seed " << seed << " shards " << shards << " flow " << i;
        ASSERT_EQ(got.looped, want.looped)
            << "seed " << seed << " shards " << shards << " flow " << i;
        ASSERT_EQ(got.blackholed, want.blackholed)
            << "seed " << seed << " shards " << shards << " flow " << i;
        EXPECT_EQ(result.flows[i].update.flow_mods_sent,
                  baseline.flows[i].update.flow_mods_sent)
            << "seed " << seed << " shards " << shards << " flow " << i;
      }
    }
  }
  // The sweep must actually have exercised the cross-shard protocol.
  EXPECT_GT(cross_updates_seen, 0u);
}

TEST(ShardEquivalenceTest, ShardsOneIsDeterministicallyReproducible) {
  // The shards = 1 bit-compatibility pin: the sharded engine with one
  // shard reproduces its own digests, frame counts and makespan exactly,
  // run after run (the untouched PR 1-3 suites pin that this path equals
  // the pre-sharding engine's behaviour).
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 12).value();
  ExecutorConfig config = fast_config(42);
  config.controller.max_in_flight = 8;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.shards = 1;
  const Result<MultiFlowExecutionResult> a =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  const Result<MultiFlowExecutionResult> b =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
  EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
  EXPECT_EQ(a.value().makespan, b.value().makespan);
}

TEST(ShardEquivalenceTest, ShardedRunsAreDeterministicPerSeed) {
  // Determinism of the MERGED clock: same seed + same shard count =>
  // identical digests, frames and makespan, so sharded regressions are
  // reproducible.
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(8, 12).value();
  for (const std::size_t shards : {2u, 4u}) {
    ExecutorConfig config = fast_config(42);
    config.controller.max_in_flight = 8;
    config.controller.shards = shards;
    config.controller.partition = topo::PartitionScheme::kHash;
    const Result<MultiFlowExecutionResult> a =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    const Result<MultiFlowExecutionResult> b =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().final_state_digest, b.value().final_state_digest);
    EXPECT_EQ(a.value().frames_sent, b.value().frames_sent);
    EXPECT_EQ(a.value().makespan, b.value().makespan);
    EXPECT_EQ(a.value().sharding.rounds_synced,
              b.value().sharding.rounds_synced);
  }
}

TEST(ShardEquivalenceTest, GreedyCutPartitionCutsTheWorkloadCut) {
  // The pool workload's flows live in disjoint 6-switch blocks, so a
  // workload-aware partition can place every block wholly on one shard:
  // greedy_cut must reach (near-)zero cut weight and zero cross-shard
  // updates where hash pays a heavy cut, and its results must still match
  // the hash run's digest (partitioning never changes WHAT is installed).
  const topo::PlannedPoolWorkload w =
      topo::planned_pool_workload(12, 24).value();
  ExecutorConfig config = fast_config(7);
  config.controller.max_in_flight = 12;
  config.controller.shards = 4;

  config.controller.partition = topo::PartitionScheme::kHash;
  const Result<MultiFlowExecutionResult> hash =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(hash.ok());

  config.controller.partition = topo::PartitionScheme::kGreedyCut;
  const Result<MultiFlowExecutionResult> greedy =
      execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
  ASSERT_TRUE(greedy.ok());

  EXPECT_GT(hash.value().sharding.partition_cut_weight, 0u);
  EXPECT_LT(greedy.value().sharding.partition_cut_weight,
            hash.value().sharding.partition_cut_weight / 2);
  EXPECT_EQ(greedy.value().sharding.cross_shard_updates, 0u);
  EXPECT_EQ(greedy.value().final_state_digest,
            hash.value().final_state_digest);
  // All four shards own switches (the balance cap held).
  ASSERT_EQ(greedy.value().sharding.events_per_shard.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(greedy.value().sharding.events_per_shard[s], 0u)
        << "shard " << s;
}

TEST(ShardEquivalenceTest, CrossShardFlowLivenessSweep500Seeds) {
  // Flows spanning shard boundaries under tight per-shard capacity: 500
  // seeds, every admission policy and release granularity, shards 2..5.
  // The engine fails ("simulation drained with work outstanding") on any
  // deadlock, so completion is the liveness proof.
  std::size_t cross_updates_seen = 0;
  for (std::uint64_t seed = 1; seed <= kLivenessSeeds; ++seed) {
    Rng rng(seed);
    const std::size_t flows = 4 + rng.index(7);           // 4..10
    const std::size_t switches = 12 + 6 * rng.index(3);   // 12, 18 or 24
    const topo::PlannedPoolWorkload w =
        topo::planned_pool_workload(flows, switches).value();

    ExecutorConfig config = fast_config(seed);
    config.with_traffic = false;
    config.drain = sim::milliseconds(1);
    config.controller.shards = 2 + rng.index(4);          // 2..5
    config.controller.partition = topo::PartitionScheme::kHash;
    config.controller.admission =
        static_cast<controller::AdmissionPolicy>(rng.index(3));
    config.controller.admission_release =
        rng.index(2) == 0 ? controller::AdmissionRelease::kRequest
                          : controller::AdmissionRelease::kRound;
    // Tight capacity is the deadlock bait: cross-shard updates must
    // acquire a slot on EVERY participating shard.
    config.controller.max_in_flight = 1 + rng.index(3);
    config.controller.batch_mode =
        static_cast<controller::BatchMode>(rng.index(4));
    config.switch_config.batch_replies = rng.index(2) == 1;

    const Result<MultiFlowExecutionResult> run =
        execute_multiflow(w.instance_ptrs, w.schedule_ptrs, config);
    ASSERT_TRUE(run.ok()) << "seed " << seed << " shards "
                          << config.controller.shards << ": "
                          << run.error().to_string();
    ASSERT_EQ(run.value().flows.size(), flows) << "seed " << seed;
    cross_updates_seen += run.value().sharding.cross_shard_updates;
  }
  EXPECT_GT(cross_updates_seen, 0u);
}

}  // namespace
}  // namespace tsu::core
