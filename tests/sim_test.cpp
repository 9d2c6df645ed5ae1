#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tsu/sim/distributions.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/sim/inline_fn.hpp"
#include "tsu/sim/sharded.hpp"
#include "tsu/sim/simulator.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::sim {
namespace {

// ------------------------------------------------------------- EventQueue --

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&]() { fired.push_back(3); });
  q.push(10, [&]() { fired.push_back(1); });
  q.push(20, [&]() { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(5, [&]() { fired.push_back(1); });
  q.push(5, [&]() { fired.push_back(2); });
  q.push(5, [&]() { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1, [&]() { fired.push_back(1); });
  const EventId second = q.push(2, [&]() { fired.push_back(2); });
  q.push(3, [&]() { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(q.cancel(second));  // already cancelled
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelReleasesClosureEagerly) {
  // The cancelled closure's captures must be destroyed AT the cancel, not
  // when the lazy heap entry is eventually skimmed or compacted away. A
  // retransmit timer capturing a frame buffer would otherwise pin that
  // memory until an unrelated pop wandered past the tombstone.
  EventQueue q;
  auto payload = std::make_shared<int>(42);
  const EventId id = q.push(10, [payload]() {});
  q.push(20, []() {});  // keeps the heap non-empty so nothing is skimmed
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(payload.use_count(), 1)
      << "cancel left the closure alive in the arena";
  // The stale heap entry is still there (lazy cancel) yet firing works.
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 1u);
}

TEST(EventQueueTest, PoppedClosureSlotIsRetired) {
  // Firing an event must release its arena slot (and closure) so the
  // steady-state push/pop loop recycles storage instead of growing it.
  EventQueue q;
  auto payload = std::make_shared<int>(7);
  q.push(1, [payload]() {});
  auto event = q.pop();
  event.fn();
  event.fn.reset();  // simulator drops the fn right after invoking it
  EXPECT_EQ(payload.use_count(), 1);
  // The freed slot is reused: ids differ (generation bump) but storage
  // does not grow.
  const EventId a = q.push(2, []() {});
  q.pop();
  const EventId b = q.push(3, []() {});
  EXPECT_NE(a, b);  // stale ids must not alias the recycled slot
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.push(1, []() {});
  q.push(9, []() {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 9u);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, []() {});
  q.push(2, []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------- EventQueue order equivalence --

// The order a single (time, band, major, minor) heap defines: native major
// is push order, remote (major, minor) is (posted_at, remote_seq). `label`
// names the event and never decides (the keys before it are unique).
struct RefKey {
  SimTime time;
  int band;
  std::uint64_t major;
  std::uint64_t minor;
  std::uint64_t label;
  auto operator<=>(const RefKey&) const = default;
};

// One seeded push/cancel/pop mix against the reference: constant-delay
// streams (more of them than lanes, so lanes are reclaimed), one-off
// delays, same-instant and past pushes, remote posts keyed out of
// insertion order, random cancels of live and dead ids, and push-then-
// cancel churn that forces compaction, with peeks in between.
struct QueueMix {
  explicit QueueMix(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < 12; ++i) streams.push_back(rng.uniform_u64(0, 400));
  }

  EventId push(SimTime at, bool remote) {
    const std::uint64_t label = pushes++;
    RefKey key{at, 0, label, 0, label};
    EventId id;
    const auto fn = [this, label]() { fired = label; };
    if (remote) {
      const SimTime posted_at = rng.uniform_u64(0, now);
      const std::uint64_t remote_seq = rng.index(4) << 48 | remote_posts++;
      key = RefKey{at, 1, posted_at, remote_seq, label};
      id = q.push(at, fn, EventQueue::Band::kRemote, posted_at, remote_seq);
    } else {
      id = q.push(at, fn);
    }
    ref.insert(key);
    key_of.emplace(id, key);
    ids.push_back(id);
    return id;
  }

  void cancel(EventId id) {
    const std::size_t entries = q.heap_size();
    const bool cancelled = q.cancel(id);
    ASSERT_EQ(cancelled, ref.erase(key_of.at(id)) == 1u);
    // A cancel alone removes at most its own entry; more is a compaction.
    if (q.heap_size() + 1 < entries) ++compactions;
  }

  void pop() {
    if (ref.empty()) {
      ASSERT_TRUE(q.empty());
      return;
    }
    const RefKey expected = *ref.begin();
    ref.erase(ref.begin());
    ASSERT_EQ(q.next_time(), expected.time);
    EventQueue::Fired event = q.pop();
    ASSERT_EQ(event.time, expected.time);
    event.fn();
    ASSERT_EQ(fired, expected.label);
    now = event.time;
  }

  void step() {
    // Peeking caches the earliest entry; every later push or cancel must
    // drop that cache.
    if (!ref.empty() && rng.bernoulli(0.3)) {
      ASSERT_EQ(q.next_time(), ref.begin()->time);
    }
    const std::size_t op = rng.index(100);
    if (op < 40) {
      const Duration delay = streams[rng.index(streams.size())];
      for (std::size_t n = 1 + rng.index(3); n > 0; --n)
        push(now + delay, false);
    } else if (op < 48) {
      push(now + rng.uniform_u64(0, 1000), false);
    } else if (op < 53) {
      push(now, false);
    } else if (op < 55) {
      push(now - rng.uniform_u64(0, std::min<SimTime>(now, 50)), false);
    } else if (op < 63) {
      push(now + rng.uniform_u64(0, 300), true);
    } else if (op < 72 && !ids.empty()) {
      cancel(ids[rng.index(ids.size())]);
    } else if (op < 75) {
      std::vector<EventId> churn;
      const Duration delay = streams[rng.index(streams.size())];
      for (std::size_t n = 20 + rng.index(80); n > 0; --n)
        churn.push_back(push(now + delay + rng.index(2), rng.bernoulli(0.1)));
      for (std::size_t i = 0; i + 1 < churn.size(); ++i) cancel(churn[i]);
    } else {
      pop();
    }
    ASSERT_EQ(q.size(), ref.size());
  }

  Rng rng;
  std::vector<Duration> streams;
  EventQueue q;
  std::set<RefKey> ref;
  std::map<EventId, RefKey> key_of;  // every id ever issued
  std::vector<EventId> ids;
  std::uint64_t pushes = 0;
  std::uint64_t remote_posts = 0;
  std::uint64_t fired = ~std::uint64_t{0};
  std::uint64_t compactions = 0;
  SimTime now = 0;
};

TEST(EventQueuePropertyTest, PopsAndCancelsMatchTheReferenceOrder) {
  constexpr std::uint64_t kSeeds = 500;
  EventQueue::Counters total;
  std::uint64_t compactions = 0;
  std::uint64_t most_claims = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    QueueMix mix(seed);
    for (int i = 0; i < 400; ++i) {
      mix.step();
      if (testing::Test::HasFatalFailure()) return;
    }
    while (!mix.ref.empty()) {
      mix.pop();
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(mix.q.empty());
    const EventQueue::Counters& c = mix.q.counters();
    total.lane_appends += c.lane_appends;
    total.lane_claims += c.lane_claims;
    total.heap_spills += c.heap_spills;
    total.remote_pops += c.remote_pops;
    compactions += mix.compactions;
    most_claims = std::max(most_claims, c.lane_claims);
  }
  // Vacuity guards: every path the order rests on was taken - lane
  // appends, lane claims, lanes reclaimed for a new delay (more claims
  // than lanes), heap spills, remote pops and compactions.
  EXPECT_GT(total.lane_appends, 10000u);
  EXPECT_GT(total.heap_spills, 10000u);
  EXPECT_GT(total.lane_claims, kSeeds);
  EXPECT_GT(most_claims, EventQueue::kLanes);
  EXPECT_GT(total.remote_pops, 1000u);
  EXPECT_GT(compactions, kSeeds);
}

// -------------------------------------------------------------- Simulator --

TEST(EventQueueTest, CompactionBoundsHeapUnderCancelChurn) {
  // Retransmit-timer pattern: almost every scheduled event gets cancelled.
  // Lazy cancellation alone would grow the heap to the total push count;
  // compaction must keep it within the documented bound throughout.
  EventQueue q;
  std::vector<EventId> batch;
  for (int round = 0; round < 200; ++round) {
    batch.clear();
    for (int i = 0; i < 500; ++i)
      batch.push_back(q.push(1000 + round, []() {}));
    // Cancel all but one per round (the one that "times out").
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) q.cancel(batch[i]);
    ASSERT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                                 EventQueue::kCompactMinimum)
        << "round " << round;
  }
  EXPECT_EQ(q.size(), 200u);  // one survivor per round
  // The heap is within a small factor of the live count, not the ~100k
  // events ever pushed.
  EXPECT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                               EventQueue::kCompactMinimum);
  // Surviving events still fire in order after all those rebuilds.
  SimTime last = 0;
  std::size_t fired = 0;
  while (!q.empty()) {
    const auto event = q.pop();
    EXPECT_GE(event.time, last);
    last = event.time;
    ++fired;
  }
  EXPECT_EQ(fired, 200u);
}

TEST(EventQueueTest, FlushTimerCancelChurnStaysBoundedAmidLiveEvents) {
  // The controller's windowed outbox arms one cancellable flush timer per
  // switch fill and cancels it whenever the byte budget ships the outbox
  // first - so under budget-heavy batching churn nearly every timer dies
  // cancelled while channel-delivery events stay live and keep firing.
  // The lazy-cancel heap must stay within its compaction bound the whole
  // time, and surviving events must keep firing in order.
  EventQueue q;
  SimTime now = 0;
  SimTime last_fired = 0;
  for (int round = 0; round < 5000; ++round) {
    // Budget flush: the armed flush timer is cancelled before it fires.
    const EventId timer = q.push(now + 500, []() {});
    ASSERT_TRUE(q.cancel(timer));
    // Interleaved live work (frame deliveries, installs) that does fire.
    q.push(now + 100, []() {});
    if (round % 2 == 0) {
      const auto fired = q.pop();
      EXPECT_GE(fired.time, last_fired);
      last_fired = fired.time;
    }
    ASSERT_LE(q.heap_size(), EventQueue::kCompactSlack * q.size() +
                                 EventQueue::kCompactMinimum)
        << "round " << round;
    ++now;
  }
  // Draining the survivors works after all that churn.
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_GT(fired, 0u);
}

TEST(EventQueueTest, CompactionPreservesCancelSemantics) {
  // Cancelling an id that survived a rebuild must still work, and ids of
  // compacted-away entries must stay invalid.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(q.push(10 + i, []() {}));
  for (int i = 0; i < 290; ++i) EXPECT_TRUE(q.cancel(ids[i]));  // compacts
  EXPECT_FALSE(q.cancel(ids[0]));      // already cancelled
  EXPECT_TRUE(q.cancel(ids[295]));     // survivor, still cancellable
  EXPECT_EQ(q.size(), 9u);
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 9u);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  SimTime seen = 0;
  sim.schedule(100, [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&]() {
    times.push_back(sim.now());
    sim.schedule(5, [&]() { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&]() { ++fired; });
  sim.schedule(100, [&]() { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);  // clock moved to the horizon
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtHorizonStillFires) {
  Simulator sim;
  int fired = 0;
  sim.schedule(50, [&]() { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StepRunsExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&]() { ++fired; });
  sim.schedule(2, [&]() { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CancelPending) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(10, [&]() { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ReturnsProcessedCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(static_cast<Duration>(i), []() {});
  EXPECT_EQ(sim.run(), 5u);
}

TEST(SimulatorDeathTest, SchedulingIntoPastAsserts) {
  Simulator sim;
  sim.schedule(10, []() {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(5, []() {}), "past");
}

// ----------------------------------------------------------- sharded sim --

TEST(ShardedSimTest, CrossShardPostsFireAfterNativesInPostKeyOrder) {
  // Pins the sequential multi-shard order. A post delivered at t fires
  // after every native event of its target at t - even one scheduled after
  // the post was made - and same-instant posts fire by (post time, poster,
  // per-poster sequence), not by the order they entered the queue.
  ShardedSim group(3);
  std::vector<std::string> log;
  const auto note = [&](const char* label) {
    return [&log, label]() { log.push_back(label); };
  };
  // t=1, shard 1: a post into shard 0 at t=10, made BEFORE the native
  // event shard 0 schedules for t=10 at t=5.
  group.schedule_on(1, 1, [&]() { group.post(0, 1, 10, note("post@10")); });
  group.schedule_on(0, 5,
                    [&]() { group.shard(0).schedule(5, note("native@10")); });
  // t=1, shard 2: the earliest post into t=20 (posted_at 1, poster 2).
  group.schedule_on(2, 1, [&]() { group.post(0, 2, 20, note("p2@1")); });
  // t=2, shard 2: posts into t=20 first, then hands shard 1 a same-instant
  // event that posts twice into t=20. Queue entry order is p2@2, p1@2a,
  // p1@2b; key order puts poster 1 ahead of poster 2 at posted_at 2.
  group.schedule_on(2, 2, [&]() {
    group.post(0, 2, 20, note("p2@2"));
    group.post(1, 2, 2, [&]() {
      group.post(0, 1, 20, note("p1@2a"));
      group.post(0, 1, 20, note("p1@2b"));
    });
  });
  // t=15, shard 0: a native event at t=20, scheduled after every post.
  group.schedule_on(0, 15,
                    [&]() { group.shard(0).schedule(5, note("native@20")); });
  group.run();
  const std::vector<std::string> expected = {
      "native@10", "post@10", "native@20", "p2@1",
      "p1@2a",     "p1@2b",   "p2@2"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(group.now(), 20);
}

// ------------------------------------------------------------- InlineFn --

TEST(InlineFnTest, SmallClosureStaysInline) {
  int hits = 0;
  InlineFn fn([&hits]() { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, OversizedClosureFallsBackToHeap) {
  struct Big {
    std::byte pad[InlineFn::kInlineSize + 64];
  };
  Big big{};
  big.pad[0] = std::byte{42};
  int result = 0;
  InlineFn fn([big, &result]() {
    result = static_cast<int>(big.pad[0]);
  });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(result, 42);
}

TEST(InlineFnTest, MoveTransfersClosure) {
  auto probe = std::make_shared<int>(5);
  InlineFn a([probe]() { ++*probe; });
  EXPECT_EQ(probe.use_count(), 2);
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(use-after-move): spec'd empty
  EXPECT_EQ(probe.use_count(), 2);     // moved, not copied
  b();
  EXPECT_EQ(*probe, 6);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*probe, 7);
  c.reset();
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(InlineFnTest, ResetDestroysClosureImmediately) {
  // The eager-cancel contract: reset() must release captured resources
  // NOW, not at the InlineFn's destruction.
  auto probe = std::make_shared<int>(1);
  InlineFn fn([probe]() {});
  EXPECT_EQ(probe.use_count(), 2);
  fn.reset();
  EXPECT_EQ(probe.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFnTest, HeapClosureResetReleases) {
  struct Big {
    std::shared_ptr<int> probe;
    std::byte pad[InlineFn::kInlineSize];
    void operator()() {}
  };
  auto probe = std::make_shared<int>(1);
  InlineFn fn(Big{probe, {}});
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(probe.use_count(), 2);
  fn.reset();
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(InlineFnTest, MoveAssignReleasesPreviousClosure) {
  auto old_probe = std::make_shared<int>(1);
  auto new_probe = std::make_shared<int>(2);
  InlineFn fn([old_probe]() {});
  EXPECT_EQ(old_probe.use_count(), 2);
  fn = InlineFn([new_probe]() {});
  EXPECT_EQ(old_probe.use_count(), 1);  // previous closure destroyed
  EXPECT_EQ(new_probe.use_count(), 2);
}

// ------------------------------------------------------------- time utils --

TEST(TimeTest, UnitHelpers) {
  EXPECT_EQ(microseconds(2), 2'000u);
  EXPECT_EQ(milliseconds(3), 3'000'000u);
  EXPECT_EQ(seconds(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(microseconds(7)), 7.0);
}

TEST(TimeTest, FromMsClampsNegative) {
  EXPECT_EQ(from_ms(-1.0), 0u);
  EXPECT_EQ(from_ms(1.5), 1'500'000u);
  // Out of range: NaN reads 0, amounts past kMaxMs saturate there.
  EXPECT_EQ(from_ms(std::nan("")), 0u);
  EXPECT_EQ(from_ms(1e300), 18'000'000'000'000'000'000u);
  EXPECT_FALSE(valid_ms(std::nan("")));
  EXPECT_FALSE(valid_ms(kMaxMs * 2));
  EXPECT_TRUE(valid_ms(kMaxMs));
}

// ---------------------------------------------------------- distributions --

TEST(LatencyModelTest, ConstantAlwaysSame) {
  Rng rng(1);
  const LatencyModel m = LatencyModel::constant(milliseconds(2));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng), milliseconds(2));
  EXPECT_DOUBLE_EQ(m.mean(), 2e6);
}

TEST(LatencyModelTest, UniformWithinBounds) {
  Rng rng(2);
  const LatencyModel m =
      LatencyModel::uniform(microseconds(100), microseconds(200));
  for (int i = 0; i < 1000; ++i) {
    const Duration d = m.sample(rng);
    EXPECT_GE(d, microseconds(100));
    EXPECT_LT(d, microseconds(200));
  }
  EXPECT_DOUBLE_EQ(m.mean(), 150e3);
}

TEST(LatencyModelTest, ExponentialMeanApproximation) {
  Rng rng(3);
  const LatencyModel m = LatencyModel::exponential(milliseconds(1));
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(m.sample(rng));
  EXPECT_NEAR(sum / n, 1e6, 5e4);
}

TEST(LatencyModelTest, LognormalMedianApproximation) {
  Rng rng(4);
  const LatencyModel m = LatencyModel::lognormal(milliseconds(1), 0.5);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i)
    samples.push_back(static_cast<double>(m.sample(rng)));
  std::nth_element(samples.begin(), samples.begin() + 5000, samples.end());
  EXPECT_NEAR(samples[5000], 1e6, 1e5);
}

TEST(LatencyModelTest, HeavyTailSaturatesAtTheLargestDuration) {
  // sigma = 40 puts a large share of samples far past 2^64 ns; they
  // saturate instead of casting out of range.
  Rng rng(1);
  const LatencyModel m = LatencyModel::lognormal(milliseconds(1), 40);
  Duration largest = 0;
  for (int i = 0; i < 1000; ++i) largest = std::max(largest, m.sample(rng));
  EXPECT_EQ(largest, std::numeric_limits<Duration>::max());
}

TEST(LatencyModelTest, ParetoBounded) {
  Rng rng(5);
  const LatencyModel m =
      LatencyModel::pareto(microseconds(100), milliseconds(100), 1.3);
  for (int i = 0; i < 2000; ++i) {
    const Duration d = m.sample(rng);
    EXPECT_GE(d, microseconds(100));
    EXPECT_LT(d, milliseconds(100));
  }
}

TEST(LatencyModelTest, ToStringMentionsKind) {
  EXPECT_NE(LatencyModel::constant(1).to_string().find("const"),
            std::string::npos);
  EXPECT_NE(LatencyModel::lognormal(milliseconds(1), 0.5)
                .to_string()
                .find("lognormal"),
            std::string::npos);
}

}  // namespace
}  // namespace tsu::sim
