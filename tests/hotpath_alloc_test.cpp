// Zero-allocation regression tests for the hot path. The global
// operator-new hooks (util/alloc_hooks.hpp - included in THIS translation
// unit only) count every heap allocation in the process; each scenario
// warms the relevant pools to their high-water mark, opens a measurement
// window, drives the steady-state loop, and asserts the window saw ZERO
// allocations:
//
//   - EventQueue push/pop churn over a warm slot arena (the "1000-flow
//     pool" hot loop), and constant-delay lanes drained, reclaimed for new
//     delays and refilled,
//   - flow-table lookups through the exact-flow index,
//   - a codec encode_into + decode round trip on caller-owned scratch,
//   - a full channel round-trip (pooled frame -> codec -> delivery event),
//   - data-plane packet hops across live flow tables,
//   - ShardedSim::run() over cross-shard posts.
//
// Any new per-event allocation anywhere on these paths turns a green test
// red with an exact count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tsu/channel/channel.hpp"
#include "tsu/controller/plan_cache.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/core/service.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/dataplane/traffic.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/switchsim/switch.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

std::uint64_t allocs() { return alloc_hooks::allocations(); }

TEST(HotPathAllocTest, EventQueuePoolHotLoopAllocatesNothing) {
  // The 1000-flow pool hot loop: 1000 events concurrently pending (one
  // per in-flight flow), each pop immediately replaced by a push. After
  // one warmup lap over the full pattern, 100k further cycles must touch
  // the allocator zero times - push recycles retired slots, the heap
  // vectors live off their high-water capacity.
  sim::EventQueue q;
  std::uint64_t fired = 0;
  sim::SimTime t = 0;
  auto cycle = [&]() {
    auto event = q.pop();
    event.fn();
    q.push(++t, [&fired]() { ++fired; });
  };
  for (int i = 0; i < 1000; ++i) q.push(++t, [&fired]() { ++fired; });
  // Warmup lap: the same loop body, plus cancel churn so the free list
  // reaches its high-water capacity too.
  for (int i = 0; i < 1000; ++i) {
    cycle();
    q.cancel(q.push(t + 500000, []() {}));
  }
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100000; ++i) cycle();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "steady-state push/pop hit the allocator";

  // Cancel churn stays free as well once warm.
  const std::uint64_t before_cancel = allocs();
  for (int i = 0; i < 1000; ++i) q.cancel(q.push(t + 500000, []() {}));
  EXPECT_EQ(allocs() - before_cancel, 0u)
      << "cancel/retire cycled slots through the allocator";

  // 1000 seeded + 1000 warmup cycles + 100k measured cycles all fire;
  // the cancelled probes never do.
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 102000u);
}

// A self-re-arming event: each firing schedules its successor `*delay`
// after the current time, like a packet hop or an injection timer.
struct Rearm {
  sim::EventQueue* q;
  const sim::SimTime* now;
  const sim::Duration* delay;
  std::uint64_t* fired;
  void operator()() const {
    ++*fired;
    q->push(*now + *delay, *this);
  }
};

TEST(HotPathAllocTest, ConstantDelayLanesAllocateNothingOnceWarm) {
  // 32 chains re-arm with a fixed 50-tick hop delay and 32 with a phase
  // delay that moves through ten values, more than the queue has lanes:
  // at every phase change the old delay's lane drains and a lane is
  // reclaimed for the new one. Once two full cycles have brought every
  // lane ring to its high-water mark, a third cycle - appends, claims,
  // reclaims and pops - must not touch the allocator.
  constexpr sim::Duration kPhaseDelays[] = {200, 70,  90,  110, 130,
                                            150, 170, 190, 210, 230};
  constexpr int kPopsPerPhase = 2000;
  sim::EventQueue q;
  sim::SimTime now = 0;
  const sim::Duration hop = 50;
  sim::Duration phase_delay = kPhaseDelays[0];
  std::uint64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    q.push(static_cast<sim::SimTime>(i), Rearm{&q, &now, &hop, &fired});
    q.push(static_cast<sim::SimTime>(i), Rearm{&q, &now, &phase_delay, &fired});
  }
  const auto run_cycle = [&]() {
    for (const sim::Duration delay : kPhaseDelays) {
      phase_delay = delay;
      for (int i = 0; i < kPopsPerPhase; ++i) {
        sim::EventQueue::Fired event = q.pop();
        now = event.time;
        event.fn();
      }
    }
  };
  run_cycle();
  run_cycle();
  const sim::EventQueue::Counters warm = q.counters();
  const std::uint64_t before = allocs();
  run_cycle();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "lane appends, claims or reclaims hit the allocator";

  // Vacuity guards: the window reclaimed lanes, and lanes - not the heap -
  // took almost every push.
  const sim::EventQueue::Counters& c = q.counters();
  EXPECT_GE(c.lane_claims - warm.lane_claims, std::size(kPhaseDelays));
  const std::uint64_t appends = c.lane_appends - warm.lane_appends;
  const std::uint64_t spills = c.heap_spills - warm.heap_spills;
  EXPECT_GT(appends, 99 * spills);
  EXPECT_EQ(appends + spills, std::size(kPhaseDelays) * kPopsPerPhase);
}

TEST(HotPathAllocTest, FlowTableFindAllocatesNothing) {
  // A lookup is one hash probe plus a walk of two index chains over the
  // table's own storage: no copy of the rule, no allocation.
  flow::FlowTable table;
  for (FlowId f = 1; f <= 32; ++f)
    table.add(flow::FlowRule{flow::Match::exact_flow(f),
                             flow::Action::forward(static_cast<NodeId>(f)),
                             100, 0});
  flow::Match wildcard_src;
  wildcard_src.src_host = 3;
  table.add(flow::FlowRule{wildcard_src, flow::Action::drop(), 200, 0});
  table.add(flow::FlowRule{flow::Match::wildcard(), flow::Action::drop(), 1, 0});
  std::uint64_t forwarded = 0;
  std::uint64_t expected = 0;
  const std::uint64_t before = allocs();
  for (std::uint32_t i = 0; i < 10000; ++i) {
    flow::Packet packet;
    packet.flow = 1 + i % 40;
    packet.src_host = i % 7;
    const flow::FlowRule* rule = table.find(packet);
    if (rule != nullptr && rule->action.kind == flow::ActionKind::kForward)
      ++forwarded;
    // Flows 1..32 forward unless sent from host 3; the rest hit a drop.
    if (packet.flow <= 32 && packet.src_host != 3) ++expected;
  }
  EXPECT_EQ(allocs() - before, 0u) << "FlowTable::find hit the allocator";
  EXPECT_EQ(forwarded, expected);
}

TEST(HotPathAllocTest, BatchDecodeReservesItsElementsOnce) {
  // Decoding a Batch sizes its element vector from the declared count
  // (capped by what the body can hold) instead of growing it per element.
  const std::vector<std::byte> wire = proto::encode(proto::make_batch(
      9, {proto::make_barrier_request(1), proto::make_barrier_request(2),
          proto::make_barrier_request(3)}));
  const std::uint64_t before = allocs();
  const Result<proto::Message> decoded = proto::decode(wire);
  const std::uint64_t during = allocs() - before;
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<proto::Batch>(decoded.value().body).messages.size(), 3u);
  EXPECT_EQ(during, 1u) << "batch decode grew its element vector";
}

TEST(HotPathAllocTest, CodecRoundTripAllocatesNothingOnceWarm) {
  // encode_into caller-owned scratch, then decode the bytes back: once the
  // scratch holds one FlowMod's capacity, a round trip over a FlowMod never
  // touches the allocator.
  proto::FlowMod mod;
  mod.match = flow::Match::exact_flow(42);
  mod.action = flow::Action::forward(7);
  const proto::Message message = proto::make_flow_mod(1234, mod);
  std::vector<std::byte> scratch;
  proto::encode_into(message, scratch);
  std::uint64_t decoded = 0;
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10000; ++i) {
    proto::encode_into(message, scratch);
    const Result<proto::Message> round = proto::decode(scratch);
    if (round.ok() && round.value().type() == proto::MsgType::kFlowMod)
      ++decoded;
  }
  EXPECT_EQ(allocs() - before, 0u) << "codec round trip hit the allocator";
  EXPECT_EQ(decoded, 10000u);
}

TEST(HotPathAllocTest, ChannelRoundTripAllocatesNothingOnceWarm) {
  // Send -> pooled frame -> codec encode_into -> delivery event -> decode
  // -> receiver, repeatedly. After the frame pool and event arena warm up,
  // a barrier round-trip is allocation-free end to end.
  sim::Simulator sim;
  channel::ChannelConfig config;
  channel::ControlChannel ch(sim, config, Rng(7));
  std::uint64_t received = 0;
  ch.set_receiver([&](const proto::Message& message) {
    if (message.type() == proto::MsgType::kBarrierRequest) ++received;
  });
  for (std::uint32_t i = 0; i < 64; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  ASSERT_EQ(received, 64u);
  const std::uint64_t before = allocs();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ch.send(proto::make_barrier_request(i));
    sim.run();
  }
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "channel round-trip hit the allocator";
  EXPECT_EQ(received, 1064u);
}

TEST(HotPathAllocTest, PacketHopsAllocateNothingOnceWarm) {
  // A packet forwarding down a 4-switch chain: every hop is a pooled
  // event whose closure (LivePacket included) must stay inline, every
  // table lookup pure value work. The monitor's bucket width is huge so
  // its timeline never grows mid-run; the measurement window is bracketed
  // by two probe events inside the simulation itself.
  sim::Simulator sim;
  switchsim::SwitchConfig sw_config;
  std::vector<std::unique_ptr<switchsim::SimSwitch>> storage;
  std::vector<switchsim::SimSwitch*> switches(4, nullptr);
  for (NodeId v = 0; v < 4; ++v) {
    storage.push_back(std::make_unique<switchsim::SimSwitch>(
        sim, v, v, sw_config, Rng(v + 1)));
    switches[v] = storage.back().get();
  }
  auto rule = [&](NodeId at, flow::Action action) {
    switches[at]->table().add(
        flow::FlowRule{flow::Match::exact_flow(1), action, 100, 0});
  };
  rule(0, flow::Action::forward(1));
  rule(1, flow::Action::forward(2));
  rule(2, flow::Action::forward(3));
  rule(3, flow::Action::deliver());

  dataplane::ConsistencyMonitor monitor(sim::milliseconds(1000000));
  dataplane::TrafficConfig config;
  config.flow = 1;
  config.ingress = 0;
  config.egress = 3;
  config.interarrival = sim::LatencyModel::constant(sim::milliseconds(1));
  config.link_latency = sim::LatencyModel::constant(sim::microseconds(10));
  config.stop = sim::milliseconds(50);
  dataplane::TrafficSource source(sim, switches, config, Rng(9), monitor);

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  // 10ms of traffic warms the arena and the monitor; 10..45ms is measured.
  sim.schedule_at(sim::milliseconds(10), [&]() { window_start = allocs(); });
  sim.schedule_at(sim::milliseconds(45), [&]() { window_end = allocs(); });
  source.start();
  sim.run();

  EXPECT_EQ(source.in_flight(), 0u);
  EXPECT_GE(monitor.report().delivered, 45u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "packet injection/hops hit the allocator mid-run";
}

// Self-perpetuating cross-shard work: each bounce posts the next one into
// the sibling shard's remote band, like a packet hopping across a shard
// boundary.
struct Bouncer {
  sim::ShardedSim* group = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t bounces = 0;

  void bounce(std::size_t at) {
    ++bounces;
    if (remaining == 0) return;
    --remaining;
    const std::size_t to = 1 - at;
    group->post(to, at, group->shard(at).now() + 10,
                [this, to]() { bounce(to); });
  }
};

TEST(HotPathAllocTest, CrossShardPostsAllocateNothingOnceWarm) {
  // ShardedSim::run() steady state over cross-shard posts: the merge step
  // and every remote-band push run off warm event arenas. The warmup run
  // pays every first-touch allocation; the measured run must be free.
  sim::ShardedSim group(2);
  Bouncer bouncers[2] = {{&group, 500}, {&group, 500}};
  const auto kick = [&]() {
    group.schedule_on(0, 5, [&]() { bouncers[0].bounce(0); });
    group.schedule_on(1, 5, [&]() { bouncers[1].bounce(1); });
  };
  kick();
  group.run();
  ASSERT_EQ(bouncers[0].bounces, 501u);
  ASSERT_EQ(bouncers[1].bounces, 501u);

  // Identical workload again, this time under measurement. The kick
  // events are pushed BEFORE the window opens.
  bouncers[0].remaining = 500;
  bouncers[1].remaining = 500;
  kick();
  const std::uint64_t before = allocs();
  group.run();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(during, 0u) << "cross-shard posts hit the allocator";
  EXPECT_EQ(bouncers[0].bounces, 1002u);
  EXPECT_EQ(bouncers[1].bounces, 1002u);
  EXPECT_EQ(group.events_per_shard()[0], group.events_per_shard()[1]);
}

TEST(HotPathAllocTest, WarmCacheLookupCostsUnderSevenTenthsOfACompile) {
  // The cache pays for itself only while a hit is far cheaper than the
  // pipeline it skips: lowering the schedule, the footprint and encoding
  // every frame (compile_plan) against one PlanCache::lookup, per
  // submission over the 8-template service pool. The measured ratio is
  // around 0.005; the bound is 0.7.
  const topo::PlannedPoolWorkload pool =
      topo::planned_pool_workload(8, 48).value();
  const core::ExecutorConfig defaults;
  const std::size_t templates = pool.instances.size();
  const auto request = [&](std::size_t i) {
    return controller::request_from_schedule(
        pool.instances[i], pool.schedules[i],
        static_cast<FlowId>(defaults.flow + i), defaults.priority,
        defaults.interval);
  };
  std::size_t sink = 0;
  // Wall time of 200 submissions of every template through `submit`.
  const auto time_submissions = [&](const auto& submit) {
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 200; ++rep)
      for (std::size_t i = 0; i < templates; ++i) sink += submit(i);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start);
  };
  const auto cold = time_submissions([&](std::size_t i) {
    return controller::compile_plan(request(i), 0)->frames.size();
  });
  controller::PlanCache cache;
  for (std::size_t i = 0; i < templates; ++i)
    cache.store(i, controller::compile_plan(request(i), 0));
  const auto warm = time_submissions([&](std::size_t i) {
    return cache.lookup(i, 0)->request.rounds.size();
  });
  EXPECT_GT(sink, 0u);
  EXPECT_LE(warm.count(), 0.7 * cold.count())
      << "a warm lookup costs more than 0.7 of a cold compile";
}

TEST(HotPathAllocTest, WarmCacheSubmissionWindowAllocatesNothing) {
  // The compiled-plan cache's whole point: after the first submission of
  // each (template, direction) pair compiled its plan, every further
  // submission through execute_service is allocation-free end to end -
  // cache lookup, submit_plan, xid-patched pre-encoded sends, barrier
  // replies, completion recording, admission release, and the pending-ring
  // arrival path all run off warm pools. The window opens via the snapshot
  // feed once the run is unambiguously warm (every template submitted both
  // directions many times over, the 256-entry completion ring wrapped, all
  // pools at high-water) and closes before the drain.
  core::ServiceConfig config;
  config.exec.seed = 17;
  config.exec.with_traffic = false;
  config.flows = 4;
  config.pool_switches = 24;
  config.arrival_rate_per_sec = 20000;
  config.target_completions = 1200;
  config.snapshot_interval = sim::milliseconds(1);
  config.snapshot_window = 8;

  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  std::uint64_t in_window_completions = 0;
  std::uint64_t window_opened_at = 0;
  config.on_snapshot = [&](const core::ServiceSnapshot& snapshot) {
    if (window_start == 0 && snapshot.completed >= 400) {
      window_start = allocs();
      window_opened_at = snapshot.completed;
    } else if (window_start != 0 && window_end == 0 &&
               snapshot.completed >= 1000) {
      window_end = allocs();
      in_window_completions = snapshot.completed - window_opened_at;
    }
  };

  const Result<core::ServiceResult> run = core::execute_service(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const core::ServiceResult& result = run.value();

  ASSERT_NE(window_start, 0u) << "warm window never opened";
  ASSERT_NE(window_end, 0u) << "warm window never closed";
  EXPECT_GE(in_window_completions, 400u);
  EXPECT_EQ(window_end - window_start, 0u)
      << "warm-cache submissions hit the allocator";

  // One compile per (template, direction), everything else a hit; a
  // fault-free run never invalidates. The drain leaves no residue.
  EXPECT_EQ(result.stats.plan_compiles, 8u);
  EXPECT_EQ(result.stats.plan_hits, result.stats.submitted - 8u);
  EXPECT_EQ(result.stats.plan_invalidations, 0u);
  EXPECT_EQ(result.stats.completed, 1200u);
  EXPECT_EQ(result.steady_state_entries_final, 0u);
}

}  // namespace
}  // namespace tsu
