// Benchmark program: runs one named workload of the update simulator for a
// fixed host-time budget, checks every output, and prints one JSON result
// document on stdout (run.py turns it into the benchmark's report).
//
//   tsu_perfbench --workload closed_traffic|service_open --seed 4242
//                 --seconds 50 [--trace 0|1] [--trace-out FILE]
//
// Untraced (--trace 0): builds the inputs, makes one warm-up execute call
// (its sim-time results are the run's reference), then repeats the execute
// call back to back until the budget is spent, each call right after a
// fixed reference kernel that the host times are scaled by. Every call must
// reproduce the reference bit for bit. service_open then makes two untimed
// probe runs for the checks the timed calls cannot show. End-to-end metrics
// come from this mode only.
//
// Traced (--trace 1): the same calls, alternately wrapped in spans and
// not, plus replays of each layer's public calls at the workload's shape
// and the extra executions the per-layer attribution needs (the traffic-off
// twin and the sharded twin of closed_traffic). Spans go to --trace-out as
// Chrome Trace Event JSON.
//
// Everything runs on one thread on the sequential engine.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <memory>
#include <optional>
#include <random>
#include <unordered_map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "tsu/controller/plan_cache.hpp"
#include "tsu/controller/shard.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/core/executor.hpp"
#include "tsu/core/service.hpp"
#include "tsu/dataplane/monitor.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/sim/event_queue.hpp"
#include "tsu/stats/summary.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/alloc_hooks.hpp"  // the one TU of this binary that does

#ifndef TSU_BENCH_BUILD_TYPE
#define TSU_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tsu;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

constexpr std::size_t kClosedFlows = 1000;
constexpr std::size_t kClosedSwitches = 210;
// The traced closed_traffic run also executes the same updates on this many
// hash-partitioned controller shards (sequential stepper) to measure the
// shard coordinator and the sharded event merge.
constexpr std::size_t kShardedTwinShards = 4;
constexpr std::size_t kServiceTemplates = 8;
constexpr std::size_t kServiceSwitches = 48;
constexpr std::size_t kServiceInFlight = 16;
constexpr double kServiceRate = 600;
constexpr std::uint64_t kServiceCompletions = 20000;

core::ExecutorConfig closed_config(std::uint64_t seed, bool traffic,
                                   std::size_t shards) {
  core::ExecutorConfig config;
  config.seed = seed;
  config.with_traffic = traffic;
  config.controller.max_in_flight = kClosedFlows;
  config.controller.admission = controller::AdmissionPolicy::kConflictAware;
  config.controller.batch_mode = controller::BatchMode::kAdaptive;
  config.controller.shards = shards;
  config.controller.partition = topo::PartitionScheme::kHash;
  config.controller.exec = sim::ExecMode::kSequential;
  return config;
}

core::ServiceConfig service_config(std::uint64_t seed) {
  core::ServiceConfig config;
  config.exec.seed = seed;
  config.exec.with_traffic = false;
  config.exec.controller.max_in_flight = kServiceInFlight;
  config.flows = kServiceTemplates;
  config.pool_switches = kServiceSwitches;
  config.arrival_rate_per_sec = kServiceRate;
  config.target_completions = kServiceCompletions;
  return config;
}

// -------------------------------------------------------------- helpers

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// Nearest-rank quantile of a sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Replay results are folded into this so the compiler cannot drop the
// replayed calls.
volatile std::size_t g_sink = 0;

// Host reference kernel: fixed work written against the standard library
// alone, so no change to the simulator moves it. Like an execute call it
// is bound by memory latency and the allocator: random read-modify-writes
// over a 16 MiB table, then hash-map updates and short-lived heap blocks.
// It takes about kReferenceKernelMs on an idle 4-vCPU Xeon VM. Returns
// its ms.
constexpr double kReferenceKernelMs = 16;

double reference_kernel_ms() {
  constexpr std::size_t kSlots = std::size_t{1} << 21;
  static std::vector<std::uint64_t> table(kSlots, 1);
  const auto start = Clock::now();
  std::mt19937_64 rng(777);
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t k = rng();
    std::uint64_t& slot = table[k & (kSlots - 1)];
    acc += slot;
    slot = acc ^ k;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::unique_ptr<std::vector<std::uint64_t>>> blocks(4096);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t k = rng();
    map[k & 0x3fff] += i;
    blocks[k & 4095] =
        std::make_unique<std::vector<std::uint64_t>>(1 + (k >> 58), i);
  }
  g_sink = g_sink + acc + map.size() + blocks[7]->size();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Times `fn` `reps` times; returns the fastest repetition in ns.
double fastest_ns(int reps, const std::function<void()>& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

// ------------------------------------------------------- result document

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // "sim": deterministic per seed; "host": measured
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;

  void metric(std::string name, double value, std::string unit,
              std::string clock) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(clock)});
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

std::string timing_json(const std::vector<double>& v) {
  return "{\"n\":" + std::to_string(v.size()) +
         ",\"min\":" + json_number(min_of(v)) +
         ",\"q1\":" + json_number(quantile(v, 0.25)) +
         ",\"median\":" + json_number(quantile(v, 0.5)) +
         ",\"q3\":" + json_number(quantile(v, 0.75)) +
         ",\"max\":" + json_number(quantile(v, 1.0)) + "}";
}

// ------------------------------------------------ sim-time run signature

// Everything an execute call computes in sim time, folded so two calls can
// be compared for bit identity.
struct Signature {
  std::uint64_t digest = 0;
  std::uint64_t fold = 0;

  void mix(std::uint64_t x) {
    fold ^= x + 0x9e3779b97f4a7c15ULL + (fold << 6) + (fold >> 2);
  }
  void mix(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    mix(bits);
  }
  bool operator==(const Signature&) const = default;
};

std::size_t total_events(const core::MultiFlowExecutionResult& r) {
  return std::accumulate(r.sharding.events_per_shard.begin(),
                         r.sharding.events_per_shard.end(), std::size_t{0});
}

Signature signature(const core::MultiFlowExecutionResult& r) {
  Signature s;
  s.digest = r.final_state_digest;
  s.mix(static_cast<std::uint64_t>(r.makespan));
  s.mix(static_cast<std::uint64_t>(r.frames_sent));
  s.mix(static_cast<std::uint64_t>(r.messages_sent));
  s.mix(static_cast<std::uint64_t>(r.control_bytes));
  s.mix(static_cast<std::uint64_t>(total_events(r)));
  s.mix(static_cast<std::uint64_t>(r.aggregate.total));
  s.mix(static_cast<std::uint64_t>(r.aggregate.delivered));
  s.mix(static_cast<std::uint64_t>(r.batching.batches_sent));
  s.mix(static_cast<std::uint64_t>(r.sharding.sync_overhead));
  for (const core::ExecutionResult& f : r.flows) {
    s.mix(static_cast<std::uint64_t>(f.update.started));
    s.mix(static_cast<std::uint64_t>(f.update.finished));
    s.mix(static_cast<std::uint64_t>(f.update.flow_mods_sent));
    s.mix(static_cast<std::uint64_t>(f.traffic.total));
  }
  return s;
}

Signature signature(const core::ServiceResult& r) {
  Signature s;
  s.digest = r.final_state_digest;
  s.mix(static_cast<std::uint64_t>(r.sim_duration));
  s.mix(static_cast<std::uint64_t>(r.frames_sent));
  s.mix(r.stats.completed);
  s.mix(r.stats.rejected);
  s.mix(r.stats.aborted);
  s.mix(static_cast<std::uint64_t>(r.stats.peak_pending));
  s.mix(r.stats.plan_hits);
  s.mix(r.completions.duration_ms.mean());
  s.mix(r.completions.wait_ms.mean());
  s.mix(static_cast<std::uint64_t>(r.retired_xids));
  s.mix(static_cast<std::uint64_t>(r.steady_state_entries_final));
  return s;
}

// ------------------------------------------------------ the timed loop

// Repeats `call` until `seconds` of host time are spent (at least
// kMinCalls times). Each call's wall time and allocation count are kept;
// each call's signature must equal the reference. Inputs are rebuilt
// (timed, as set-up) about every seconds/kSetupSamples so that set-up
// samples spread over the run like the execute samples do. The reference
// kernel runs right before every call, and each set-up and call sample is
// kept with the kernel time of its iteration (see reference_host_ms).
struct LoopResult {
  std::vector<double> call_ms;
  std::vector<double> call_ref_ms;  // kernel time paired with call_ms
  std::vector<double> traced_ms;    // calls wrapped in a span (traced run)
  std::vector<double> allocs;
  std::vector<double> setup_ms;
  std::vector<double> setup_ref_ms;  // kernel time paired with setup_ms
  std::size_t mismatches = 0;
};

constexpr std::size_t kMinCalls = 5;
constexpr std::size_t kSetupSamples = 25;

template <typename Call>
LoopResult timed_loop(double seconds, const Signature& reference,
                      const std::function<void()>& setup, Call&& call,
                      SpanRecorder* tracer, const char* span_name) {
  LoopResult out;
  reference_kernel_ms();  // faults its table in before the first sample
  const auto start = Clock::now();
  auto last_setup = start - std::chrono::hours(1);
  const auto setup_every =
      std::chrono::duration<double>(seconds / kSetupSamples);
  while (out.call_ms.size() + out.traced_ms.size() < kMinCalls ||
         elapsed_s(start) < seconds) {
    bool set_up = false;
    if (Clock::now() - last_setup >= setup_every) {
      last_setup = Clock::now();
      const auto t0 = Clock::now();
      setup();
      out.setup_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      set_up = true;
    }
    const double ref_ms = reference_kernel_ms();
    if (set_up) out.setup_ref_ms.push_back(ref_ms);
    // The traced run alternates: even calls inside a span, odd calls bare.
    const bool traced = tracer != nullptr &&
                        (out.call_ms.size() + out.traced_ms.size()) % 2 == 0;
    const std::uint64_t allocs0 = alloc_hooks::allocations();
    const auto t0 = Clock::now();
    Signature sig;
    {
      ScopedSpan span(traced ? tracer : nullptr, span_name);
      sig = call();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    out.allocs.push_back(
        static_cast<double>(alloc_hooks::allocations() - allocs0));
    if (traced) {
      out.traced_ms.push_back(ms);
    } else {
      out.call_ms.push_back(ms);
      out.call_ref_ms.push_back(ref_ms);
    }
    if (!(sig == reference)) ++out.mismatches;
  }
  return out;
}

// Host time on the reference host: the median over samples of
// ms[i] / ref_ms[i] (each sample over the reference kernel time measured
// next to it in the same process), times kReferenceKernelMs. Contention
// from other tenants slows the kernel and the simulator alike, so the
// ratio keeps what the code costs and drops most of what the host adds.

double reference_host_ms(const std::vector<double>& ms,
                         const std::vector<double>& ref_ms) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < ms.size() && i < ref_ms.size(); ++i)
    ratios.push_back(ms[i] / ref_ms[i]);
  return quantile(ratios, 0.5) * kReferenceKernelMs;
}

// -------------------------------------------------------- layer replays

// EventQueue hold model: `depth` pending events; each step pops the
// earliest and schedules a successor a short random delay later.
double replay_queue_ns(std::size_t depth, std::uint64_t seed) {
  constexpr std::size_t kSteps = 1'000'000;
  return fastest_ns(3, [&] {
           sim::EventQueue queue;
           Rng rng(seed);
           for (std::size_t i = 0; i < depth; ++i)
             queue.push(static_cast<sim::SimTime>(rng.uniform_u64(0, 200'000)),
                        [] {});
           for (std::size_t i = 0; i < kSteps; ++i) {
             const sim::SimTime t = queue.pop().time;
             queue.push(t + static_cast<sim::SimTime>(
                                rng.uniform_u64(1'000, 200'000)),
                        [] {});
           }
         }) /
         static_cast<double>(kSteps);
}

// ConsistencyMonitor::record for `packets` outcomes spread over `flows`
// per-flow monitors and `span` of sim time.
double replay_monitor_ns(std::size_t packets, std::size_t flows,
                         sim::Duration span) {
  if (packets == 0 || flows == 0) return 0;
  return fastest_ns(3, [&] {
           dataplane::MultiFlowMonitor monitors;
           std::vector<dataplane::ConsistencyMonitor*> by_flow;
           for (std::size_t f = 0; f < flows; ++f)
             by_flow.push_back(&monitors.monitor(static_cast<FlowId>(f + 1)));
           for (std::size_t i = 0; i < packets; ++i)
             by_flow[i % flows]->record(
                 static_cast<sim::SimTime>(
                     static_cast<double>(span) * static_cast<double>(i) /
                     static_cast<double>(packets)),
                 dataplane::PacketOutcome::kDelivered);
         }) /
         static_cast<double>(packets);
}

// Final-state rules per non-empty switch table: one exact-flow rule per
// flow whose new route crosses the switch.
double rules_per_table(const std::vector<update::Instance>& instances) {
  std::vector<std::size_t> rules;
  for (const update::Instance& inst : instances)
    for (const NodeId node : inst.new_path()) {
      if (node >= rules.size()) rules.resize(node + 1, 0);
      ++rules[node];
    }
  std::size_t tables = 0;
  std::size_t total = 0;
  for (const std::size_t r : rules)
    if (r > 0) {
      ++tables;
      total += r;
    }
  return tables == 0 ? 0
                     : static_cast<double>(total) / static_cast<double>(tables);
}

double replay_lookup_ns(std::size_t rules, std::uint64_t seed) {
  if (rules == 0) return 0;
  constexpr std::size_t kLookups = 1'000'000;
  flow::FlowTable table;
  for (std::size_t i = 0; i < rules; ++i)
    table.add(flow::FlowRule{
        flow::Match::exact_flow(static_cast<FlowId>(i + 1)),
        flow::Action::forward(static_cast<NodeId>(i)), 100, 0});
  const double ns = fastest_ns(3, [&] {
    Rng rng(seed);
    for (std::size_t i = 0; i < kLookups; ++i) {
      flow::Packet packet;
      packet.flow = static_cast<FlowId>(rng.index(rules) + 1);
      const std::optional<flow::FlowRule> hit = table.lookup(packet);
      g_sink = g_sink + (hit.has_value() ? hit->action.port : 0);
    }
  });
  return ns / static_cast<double>(kLookups);
}

// The workload's control frame mix: every FlowMod of every update plus one
// barrier request and reply per switch per round.
std::vector<proto::Message> frame_mix(const topo::PlannedPoolWorkload& w) {
  const core::ExecutorConfig defaults;
  std::vector<proto::Message> mix;
  Xid xid = 1;
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    const controller::UpdateRequest req = controller::request_from_schedule(
        w.instances[i], w.schedules[i], static_cast<FlowId>(defaults.flow + i),
        defaults.priority, defaults.interval);
    for (const std::vector<controller::RoundOp>& round : req.rounds) {
      for (const controller::RoundOp& op : round)
        mix.push_back(proto::make_flow_mod(xid++, op.mod));
      for (std::size_t b = 0; b < round.size(); ++b) {
        mix.push_back(proto::make_barrier_request(xid));
        mix.push_back(proto::make_barrier_reply(xid++));
      }
    }
  }
  return mix;
}

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  bool round_trip_ok = true;
};

CodecCost replay_codec(const std::vector<proto::Message>& mix) {
  CodecCost cost;
  if (mix.empty()) return cost;
  std::vector<std::vector<std::byte>> frames(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i)
    proto::encode_into(mix[i], frames[i]);
  std::vector<std::byte> scratch;
  cost.encode_ns = fastest_ns(5, [&] {
                     for (const proto::Message& m : mix) {
                       scratch.clear();
                       proto::encode_into(m, scratch);
                     }
                   }) /
                   static_cast<double>(mix.size());
  std::size_t decoded = 0;
  cost.decode_ns = fastest_ns(5, [&] {
                     for (const std::vector<std::byte>& f : frames)
                       decoded += proto::decode(f).ok() ? 1 : 0;
                   }) /
                   static_cast<double>(mix.size());
  cost.round_trip_ok = decoded == 5 * mix.size();
  return cost;
}

struct PlanCacheCost {
  double cold_ns = 0;
  double warm_ns = 0;
};

PlanCacheCost replay_plan_cache(const topo::PlannedPoolWorkload& w,
                                bool warm_path_used) {
  const core::ExecutorConfig defaults;
  const std::size_t n = w.instances.size();
  const auto request = [&](std::size_t i) {
    return controller::request_from_schedule(
        w.instances[i], w.schedules[i], static_cast<FlowId>(defaults.flow + i),
        defaults.priority, defaults.interval);
  };
  PlanCacheCost cost;
  // Enough compiles for a stable figure with 8 templates or 1000.
  const int cold_reps = n < 100 ? 200 : 2;
  cost.cold_ns = fastest_ns(3, [&] {
                   for (int r = 0; r < cold_reps; ++r)
                     for (std::size_t i = 0; i < n; ++i)
                       g_sink = g_sink + controller::compile_plan(request(i), 0)
                                             ->frames.size();
                 }) /
                 static_cast<double>(cold_reps * n);
  if (warm_path_used) {
    controller::PlanCache cache;
    for (std::size_t i = 0; i < n; ++i)
      cache.store(i, controller::compile_plan(request(i), 0));
    constexpr int kWarmReps = 20000;
    cost.warm_ns = fastest_ns(3, [&] {
                     for (int r = 0; r < kWarmReps; ++r)
                       for (std::size_t i = 0; i < n; ++i)
                         g_sink = g_sink +
                                  cache.lookup(i, 0)->request.rounds.size();
                   }) /
                   static_cast<double>(kWarmReps * n);
  }
  return cost;
}

struct BuildCost {
  double pool_build_ms = 0;
  double plan_ns_per_instance = 0;
};

BuildCost replay_build(std::size_t count, std::size_t switches) {
  BuildCost cost;
  std::vector<update::Instance> instances;
  cost.pool_build_ms = fastest_ns(5, [&] {
                         instances = topo::pool_workload(count, switches);
                       }) /
                       1e6;
  cost.plan_ns_per_instance =
      fastest_ns(5, [&] {
        for (const update::Instance& inst : instances)
          g_sink = g_sink + update::plan_peacock(inst).value().rounds.size();
      }) /
      static_cast<double>(instances.size());
  return cost;
}

// ------------------------------------------------------- metric catalog

// The gated end-to-end metrics (BENCHMARK.json "end_to_end") plus the
// figures printed beside them for the reader. Gated host times are medians
// on the reference host (see README.md, "Host timings").
struct EndToEnd {
  double call_s = 0;  // median execute call on the reference host
  double setup_s = 0;
  double wall_updates_per_s = 0;
  double peak_rss_mb = 0;
  double allocs_per_update = 0;
  double sim_updates_per_s = 0;
  double makespan_sim_ms = 0;
  double update_mean_sim_ms = 0;
  double response_mean_sim_ms = 0;
  double frames_per_update = 0;
  double completed_ratio = 0;
  // Not gated: raw host figures, closed-loop only, or 0 on every
  // closed-loop run.
  double setup_s_raw = 0;
  double wall_updates_per_s_raw = 0;
  double wall_events_per_s = 0;
  double update_p50_sim_ms = 0;
  double update_p99_sim_ms = 0;
  double wait_mean_sim_ms = 0;
  double failed_ratio = 0;
};

// The gated host times are on the reference host (reference_host_ms);
// the raw medians are printed beside them.
void set_host_times(EndToEnd& e, const LoopResult& loop) {
  e.setup_s = reference_host_ms(loop.setup_ms, loop.setup_ref_ms) / 1e3;
  e.setup_s_raw = quantile(loop.setup_ms, 0.5) / 1e3;
  e.call_s = reference_host_ms(loop.call_ms, loop.call_ref_ms) / 1e3;
}

void emit(Report& report, const EndToEnd& e, bool closed_loop) {
  report.metric("setup_s", e.setup_s, "s", "host");
  report.metric("wall_updates_per_s", e.wall_updates_per_s, "1/s", "host");
  report.metric("peak_rss_mb", e.peak_rss_mb, "MB", "host");
  report.metric("allocs_per_update", e.allocs_per_update, "count", "host");
  report.metric("sim_updates_per_s", e.sim_updates_per_s, "1/s", "sim");
  report.metric("makespan_sim_ms", e.makespan_sim_ms, "ms", "sim");
  report.metric("update_mean_sim_ms", e.update_mean_sim_ms, "ms", "sim");
  report.metric("response_mean_sim_ms", e.response_mean_sim_ms, "ms", "sim");
  report.metric("frames_per_update", e.frames_per_update, "count", "sim");
  report.metric("completed_ratio", e.completed_ratio, "ratio", "sim");
  report.metric("setup_s_raw", e.setup_s_raw, "s", "host");
  report.metric("wall_updates_per_s_raw", e.wall_updates_per_s_raw, "1/s",
                "host");
  if (closed_loop) {
    report.metric("wall_events_per_s", e.wall_events_per_s, "1/s", "host");
    report.metric("update_p50_sim_ms", e.update_p50_sim_ms, "ms", "sim");
    report.metric("update_p99_sim_ms", e.update_p99_sim_ms, "ms", "sim");
  }
  report.metric("wait_mean_sim_ms", e.wait_mean_sim_ms, "ms", "sim");
  report.metric("failed_ratio", e.failed_ratio, "ratio", "sim");
}

// Per-layer attribution (BENCHMARK.json "per_layer"). A field a workload
// cannot observe keeps its default, which README.md lists per workload.
struct Layers {
  double sim_events = 0;
  double sim_ns_per_event = 0;
  double queue_push_pop_ns = 0;
  double queue_depth = 0;
  double shard_ns_per_event_ratio = 1;
  double shard_event_imbalance = 1;
  double dataplane_packets = 0;
  double dataplane_events = 0;
  double dataplane_wall_share = 0;
  double monitor_record_ns = 0;
  double rules_per_table = 0;
  double lookup_ns = 0;
  double flow_mods = 0;
  double barriers = 0;
  double frames = 0;
  double messages = 0;
  double bytes = 0;
  double messages_per_frame = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double conflict_edges = 0;
  double blocked = 0;
  double max_in_flight = 0;
  double batches = 0;
  double timer_flushes = 0;
  double max_hold_sim_ms = 0;
  double plan_compiles = 0;
  double plan_hits = 0;
  double plan_hit_ratio = 0;
  double plan_cold_ns = 0;
  double plan_warm_ns = 0;
  double cross_shard_updates = 0;
  double rounds_synced = 0;
  double sync_overhead_sim_ms = 0;
  double update_p50_sim_ms = 0;
  double update_p99_sim_ms = 0;
  double wait_mean_sim_ms = 0;
  double peak_pending = 0;
  double rejected = 0;
  double peak_controller_depth = 0;
  double retired_xids = 0;
  double wait_p99_hist_sim_ms = 0;
  double update_p99_hist_sim_ms = 0;
  double pool_build_ms = 0;
  double plan_ns_per_instance = 0;
  double alloc_setup = 0;
  double alloc_per_event = 0;
  double trace_overhead_ratio = 0;
};

void emit(Report& report, const Layers& l) {
  report.metric("sim.events", l.sim_events, "count", "sim");
  report.metric("sim.ns_per_event", l.sim_ns_per_event, "ns", "host");
  report.metric("sim.queue.push_pop_ns", l.queue_push_pop_ns, "ns", "host");
  report.metric("sim.queue.depth", l.queue_depth, "count", "sim");
  report.metric("sim.shard.ns_per_event_ratio", l.shard_ns_per_event_ratio,
                "ratio", "host");
  report.metric("sim.shard.event_imbalance", l.shard_event_imbalance, "ratio",
                "sim");
  report.metric("dataplane.packets", l.dataplane_packets, "count", "sim");
  report.metric("dataplane.events", l.dataplane_events, "count", "sim");
  report.metric("dataplane.wall_share", l.dataplane_wall_share, "ratio",
                "host");
  report.metric("dataplane.monitor.record_ns", l.monitor_record_ns, "ns",
                "host");
  report.metric("flow.rules_per_table", l.rules_per_table, "count", "sim");
  report.metric("flow.lookup_ns", l.lookup_ns, "ns", "host");
  report.metric("switchsim.flow_mods", l.flow_mods, "count", "sim");
  report.metric("switchsim.barriers", l.barriers, "count", "sim");
  report.metric("channel.frames", l.frames, "count", "sim");
  report.metric("channel.messages", l.messages, "count", "sim");
  report.metric("channel.bytes", l.bytes, "bytes", "sim");
  report.metric("channel.messages_per_frame", l.messages_per_frame, "ratio",
                "sim");
  report.metric("proto.encode_ns", l.encode_ns, "ns", "host");
  report.metric("proto.decode_ns", l.decode_ns, "ns", "host");
  report.metric("controller.admission.conflict_edges", l.conflict_edges,
                "count", "sim");
  report.metric("controller.admission.blocked", l.blocked, "count", "sim");
  report.metric("controller.max_in_flight_observed", l.max_in_flight, "count",
                "sim");
  report.metric("controller.outbox.batches", l.batches, "count", "sim");
  report.metric("controller.outbox.timer_flushes", l.timer_flushes, "count",
                "sim");
  report.metric("controller.outbox.max_hold_sim_ms", l.max_hold_sim_ms, "ms",
                "sim");
  report.metric("controller.plan_cache.compiles", l.plan_compiles, "count",
                "sim");
  report.metric("controller.plan_cache.hits", l.plan_hits, "count", "sim");
  report.metric("controller.plan_cache.hit_ratio", l.plan_hit_ratio, "ratio",
                "sim");
  report.metric("controller.plan_cache.cold_ns", l.plan_cold_ns, "ns", "host");
  report.metric("controller.plan_cache.warm_ns", l.plan_warm_ns, "ns", "host");
  report.metric("controller.shard.cross_shard_updates", l.cross_shard_updates,
                "count", "sim");
  report.metric("controller.shard.rounds_synced", l.rounds_synced, "count",
                "sim");
  report.metric("controller.shard.sync_overhead_sim_ms",
                l.sync_overhead_sim_ms, "ms", "sim");
  report.metric("core.update_p50_sim_ms", l.update_p50_sim_ms, "ms", "sim");
  report.metric("core.update_p99_sim_ms", l.update_p99_sim_ms, "ms", "sim");
  report.metric("core.wait_mean_sim_ms", l.wait_mean_sim_ms, "ms", "sim");
  report.metric("core.service.peak_pending", l.peak_pending, "count", "sim");
  report.metric("core.service.rejected", l.rejected, "count", "sim");
  report.metric("core.service.peak_controller_depth", l.peak_controller_depth,
                "count", "sim");
  report.metric("core.service.retired_xids", l.retired_xids, "count", "sim");
  report.metric("core.service.wait_p99_hist_sim_ms", l.wait_p99_hist_sim_ms,
                "ms", "sim");
  report.metric("core.service.update_p99_hist_sim_ms",
                l.update_p99_hist_sim_ms, "ms", "sim");
  report.metric("topo.pool_build_ms", l.pool_build_ms, "ms", "host");
  report.metric("update.plan_ns_per_instance", l.plan_ns_per_instance, "ns",
                "host");
  report.metric("alloc.setup", l.alloc_setup, "count", "host");
  report.metric("alloc.per_event", l.alloc_per_event, "count", "host");
  report.metric("trace.overhead_ratio", l.trace_overhead_ratio, "ratio",
                "host");
}

// Replays shared by every workload: the event queue at the workload's
// pending depth, the codec over its frame mix, plan compilation (and the
// warm cache path where the workload uses it) and the input build.
void replay_common(Layers& l, Report& report,
                   const topo::PlannedPoolWorkload& w, std::uint64_t seed,
                   bool warm_cache_used, SpanRecorder* t) {
  {
    ScopedSpan span(t, "sim.event_queue.replay");
    l.queue_push_pop_ns =
        replay_queue_ns(static_cast<std::size_t>(l.queue_depth), seed);
  }
  l.rules_per_table = rules_per_table(w.instances);
  {
    ScopedSpan span(t, "proto.codec.replay");
    const CodecCost codec = replay_codec(frame_mix(w));
    report.check("codec_round_trip_decodes_every_frame", codec.round_trip_ok);
    l.encode_ns = codec.encode_ns;
    l.decode_ns = codec.decode_ns;
  }
  {
    ScopedSpan span(t, "controller.plan_cache.replay");
    const PlanCacheCost cache = replay_plan_cache(w, warm_cache_used);
    l.plan_cold_ns = cache.cold_ns;
    l.plan_warm_ns = cache.warm_ns;
  }
  {
    ScopedSpan span(t, "topo+update.build.replay");
    const BuildCost build =
        replay_build(w.instances.size(), w.instances.size() == kClosedFlows
                                             ? kClosedSwitches
                                             : kServiceSwitches);
    l.pool_build_ms = build.pool_build_ms;
    l.plan_ns_per_instance = build.plan_ns_per_instance;
  }
}

// Mean switches an update touches (old and new route), the unit of
// outstanding control events per in-flight update.
double mean_touched(const std::vector<update::Instance>& instances) {
  double touched = 0;
  for (const update::Instance& inst : instances)
    touched += static_cast<double>(inst.old_path().size() +
                                   inst.new_path().size()) / 2;
  return touched / static_cast<double>(instances.size());
}

// ------------------------------------------------------ the two modes

struct Args {
  std::string workload;
  std::uint64_t seed = 4242;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

struct RunOutput {
  Report report;
  std::string digest;
  std::string reference_digest;  // independent re-execution, if any
  LoopResult loop;
  // Updates one execute call attempts, and how many of them fail
  // (aborted, rejected or never completed).
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void add_loop_checks(Report& report, const LoopResult& loop) {
  report.check("sim_results_identical_across_calls", loop.mismatches == 0,
               std::to_string(loop.mismatches) + " of " +
                   std::to_string(loop.call_ms.size() + loop.traced_ms.size()) +
                   " calls differ from the warm-up call");
}

void add_oracle_checks(Report& report, const dataplane::MonitorReport& m) {
  report.check("no_bypassed_packets", m.bypassed == 0,
               std::to_string(m.bypassed));
  report.check("no_looped_packets", m.looped == 0, std::to_string(m.looped));
  report.check("no_blackholed_packets", m.blackholed == 0,
               std::to_string(m.blackholed));
}

// Builds the planned update pool and counts what the build allocates.
Result<topo::PlannedPoolWorkload> build_inputs(std::size_t count,
                                               std::size_t switches,
                                               double* allocs,
                                               SpanRecorder* t) {
  ScopedSpan span(t, "topo+update.planned_pool_workload");
  const std::uint64_t before = alloc_hooks::allocations();
  Result<topo::PlannedPoolWorkload> built =
      topo::planned_pool_workload(count, switches);
  *allocs = static_cast<double>(alloc_hooks::allocations() - before);
  return built;
}

void run_closed(const Args& args, SpanRecorder* t, RunOutput& out) {
  Report& report = out.report;
  ScopedSpan root(t, "core.run.closed_traffic");

  double setup_allocs = 0;
  Result<topo::PlannedPoolWorkload> built =
      build_inputs(kClosedFlows, kClosedSwitches, &setup_allocs, t);
  report.check("workload_builds", built.ok(),
               built.ok() ? "" : built.error().to_string());
  if (!built.ok()) return;
  const topo::PlannedPoolWorkload w = std::move(built).value();

  const core::ExecutorConfig config = closed_config(args.seed, true, 1);
  const auto execute = [&](const core::ExecutorConfig& c) {
    return core::execute_multiflow(w.instance_ptrs, w.schedule_ptrs, c);
  };

  Result<core::MultiFlowExecutionResult> warm = [&] {
    ScopedSpan span(t, "core.execute_multiflow.warmup");
    return execute(config);
  }();
  report.check("execute_succeeds", warm.ok(),
               warm.ok() ? "" : warm.error().to_string());
  if (!warm.ok()) return;
  const core::MultiFlowExecutionResult r = std::move(warm).value();
  // The simulator's own high-water mark: read before the reference kernel
  // and the untimed extra executions add theirs.
  const double rss_mb = peak_rss_mb();
  const Signature reference = signature(r);
  out.digest = hex(r.final_state_digest);

  bool call_failed = false;
  out.loop = timed_loop(
      args.seconds, reference,
      [&] {
        if (!topo::planned_pool_workload(kClosedFlows, kClosedSwitches).ok())
          call_failed = true;
      },
      [&] {
        const Result<core::MultiFlowExecutionResult> run = execute(config);
        if (!run.ok()) {
          call_failed = true;
          return Signature{};
        }
        return signature(run.value());
      },
      t, "core.execute_multiflow");
  report.check("every_call_succeeds", !call_failed);
  add_loop_checks(report, out.loop);
  add_oracle_checks(report, r.aggregate);

  // Sim-time outcome, from the reference call (every call matched it).
  const double attempted = static_cast<double>(w.instances.size());
  std::size_t completed = 0;
  std::size_t aborted = 0;
  stats::Summary duration_ms;
  stats::Summary wait_ms;
  stats::Summary response_ms;
  std::vector<double> durations;
  double flow_mods = 0;
  double barriers = 0;
  for (const core::ExecutionResult& f : r.flows) {
    flow_mods += static_cast<double>(f.update.flow_mods_sent);
    barriers += static_cast<double>(f.update.barriers_sent);
    if (f.update.aborted) {
      ++aborted;
      continue;
    }
    if (f.update.finished == 0 || f.update.finished < f.update.started)
      continue;
    ++completed;
    const double d = sim::to_ms(f.update.duration());
    duration_ms.add(d);
    wait_ms.add(sim::to_ms(f.update.admission_wait()));
    response_ms.add(sim::to_ms(f.update.finished - f.update.enqueued));
    durations.push_back(d);
  }
  report.check("every_update_accounted",
               r.flows.size() == w.instances.size() &&
                   completed + aborted == r.flows.size(),
               std::to_string(completed) + " completed, " +
                   std::to_string(aborted) + " aborted, " +
                   std::to_string(r.flows.size()) + " results for " +
                   std::to_string(w.instances.size()) + " updates");

  out.attempted = w.instances.size();
  out.failed = w.instances.size() - completed;

  const double events = static_cast<double>(total_events(r));
  const double call_s = quantile(out.loop.call_ms, 0.5) / 1e3;
  const double allocs = quantile(out.loop.allocs, 0.5);

  if (!args.trace) {
    EndToEnd e;
    set_host_times(e, out.loop);
    e.wall_updates_per_s = attempted / e.call_s;
    e.wall_updates_per_s_raw = attempted / call_s;
    e.peak_rss_mb = rss_mb;
    e.allocs_per_update = allocs / attempted;
    e.sim_updates_per_s =
        static_cast<double>(completed) / (sim::to_ms(r.makespan) / 1e3);
    e.makespan_sim_ms = r.makespan_ms();
    e.update_mean_sim_ms = duration_ms.mean();
    e.response_mean_sim_ms = response_ms.mean();
    e.frames_per_update = static_cast<double>(r.frames_sent) / attempted;
    e.completed_ratio = static_cast<double>(completed) / attempted;
    e.wall_events_per_s = events / e.call_s;
    e.update_p50_sim_ms = quantile(durations, 0.50);
    e.update_p99_sim_ms = quantile(durations, 0.99);
    e.wait_mean_sim_ms = wait_ms.mean();
    e.failed_ratio = 1 - e.completed_ratio;
    emit(report, e, true);
    return;
  }

  Layers l;
  l.sim_events = events;
  l.sim_ns_per_event = call_s * 1e9 / events;
  // Pending-event depth: one injection timer per flow plus the packets in
  // flight (route hops x link latency / interarrival).
  double hops = 0;
  for (const update::Instance& inst : w.instances)
    hops += static_cast<double>(inst.new_path().size());
  hops /= attempted;
  l.queue_depth =
      attempted * (1 + hops * static_cast<double>(config.link_latency.a) /
                           static_cast<double>(config.traffic_interarrival.a));

  // Shard layers: the same run on kShardedTwinShards controller shards.
  {
    ScopedSpan span(t, "core.execute_multiflow.sharded_twin");
    std::vector<double> ms;
    std::optional<core::MultiFlowExecutionResult> twin;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      Result<core::MultiFlowExecutionResult> run =
          execute(closed_config(args.seed, true, kShardedTwinShards));
      ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (run.ok()) twin = std::move(run).value();
    }
    report.check("sharded_twin_digest_equal",
                 twin && twin->final_state_digest == r.final_state_digest);
    if (twin) {
      const double twin_events = static_cast<double>(total_events(*twin));
      l.shard_ns_per_event_ratio =
          quantile(ms, 0.5) * 1e6 / twin_events / l.sim_ns_per_event;
      const auto& per_shard = twin->sharding.events_per_shard;
      l.shard_event_imbalance =
          static_cast<double>(
              *std::max_element(per_shard.begin(), per_shard.end())) *
          static_cast<double>(per_shard.size()) / twin_events;
      l.cross_shard_updates =
          static_cast<double>(twin->sharding.cross_shard_updates);
      l.rounds_synced = static_cast<double>(twin->sharding.rounds_synced);
      l.sync_overhead_sim_ms = twin->sharding.sync_overhead_ms();
    }
  }

  // Data plane: what the traffic-off twin does not do.
  {
    ScopedSpan span(t, "core.execute_multiflow.control_twin");
    std::vector<double> ms;
    double twin_events = 0;
    for (int i = 0; i < 10; ++i) {
      const auto t0 = Clock::now();
      const Result<core::MultiFlowExecutionResult> twin =
          execute(closed_config(args.seed, false, 1));
      ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      const bool same =
          twin.ok() && twin.value().final_state_digest == r.final_state_digest;
      if (i == 0) report.check("control_twin_digest_equal", same);
      if (twin.ok())
        twin_events = static_cast<double>(total_events(twin.value()));
    }
    l.dataplane_events = events - twin_events;
    l.dataplane_wall_share = 1 - quantile(ms, 0.5) / (call_s * 1e3);
  }
  {
    ScopedSpan span(t, "dataplane.monitor.replay");
    l.monitor_record_ns = replay_monitor_ns(
        r.aggregate.total, r.flows.size(),
        r.makespan + config.warmup + config.drain);
  }
  l.dataplane_packets = static_cast<double>(r.aggregate.total);

  replay_common(l, report, w, args.seed, false, t);
  {
    ScopedSpan span(t, "flow.table.lookup.replay");
    l.lookup_ns = replay_lookup_ns(
        static_cast<std::size_t>(std::lround(l.rules_per_table)), args.seed);
  }
  l.flow_mods = flow_mods;
  l.barriers = barriers;
  l.frames = static_cast<double>(r.frames_sent);
  l.messages = static_cast<double>(r.messages_sent);
  l.bytes = static_cast<double>(r.control_bytes);
  l.messages_per_frame = l.messages / l.frames;
  l.conflict_edges = static_cast<double>(r.conflict_edges);
  l.blocked = static_cast<double>(r.blocked_submissions);
  l.max_in_flight = static_cast<double>(r.max_in_flight_observed);
  l.batches = static_cast<double>(r.batching.batches_sent);
  l.timer_flushes = static_cast<double>(r.batching.timer_flushes);
  l.max_hold_sim_ms = r.batching.max_hold_ms();
  l.update_p50_sim_ms = quantile(durations, 0.50);
  l.update_p99_sim_ms = quantile(durations, 0.99);
  l.wait_mean_sim_ms = wait_ms.mean();
  l.alloc_setup = setup_allocs;
  l.alloc_per_event = allocs / events;
  l.trace_overhead_ratio =
      quantile(out.loop.traced_ms, 0.5) / (call_s * 1e3);
  emit(report, l);
}

// One untimed execute_service call with a snapshot every 10 ms of sim
// time. At each snapshot it reads the controller counters execute_service
// does not return, and counts every new completion per template from the
// coordinator's recent-completion ring (a snapshot sees a handful of
// completions, far fewer than the ring holds). The last snapshot fires
// after the last completion, so the values are final.
struct ServiceProbe {
  double conflict_edges = 0;
  double blocked = 0;
  double max_in_flight = 0;
  double batches = 0;
  double timer_flushes = 0;
  double max_hold_sim_ms = 0;
  std::vector<std::uint64_t> completions_per_template;
  std::uint64_t tracked = 0;  // completions seen through the ring
  bool ring_overrun = false;  // a completion left the ring unseen
  std::optional<core::ServiceResult> result;
};

ServiceProbe probe_service(core::ServiceConfig config) {
  ServiceProbe probe;
  probe.completions_per_template.assign(config.flows, 0);
  controller::ShardCoordinator* coordinator = nullptr;
  config.tune = [&](controller::ShardCoordinator& c) { coordinator = &c; };
  config.snapshot_interval = sim::milliseconds(10);
  config.snapshot_window = 1;
  config.on_snapshot = [&](const core::ServiceSnapshot&) {
    probe.conflict_edges = static_cast<double>(coordinator->conflict_edges());
    probe.blocked = static_cast<double>(coordinator->blocked_submissions());
    probe.max_in_flight =
        static_cast<double>(coordinator->max_in_flight_observed());
    probe.batches = static_cast<double>(coordinator->batches_sent());
    probe.timer_flushes = static_cast<double>(coordinator->timer_flushes());
    probe.max_hold_sim_ms = sim::to_ms(coordinator->max_hold());
    const controller::CompletionLog& log = coordinator->completions();
    const std::uint64_t fresh = log.count() - probe.tracked;
    if (fresh > log.recent().size()) probe.ring_overrun = true;
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(
                                      fresh, log.recent().size());
         ++i) {
      const std::uint64_t tmpl = log.recent_back(i).flow - config.exec.flow;
      if (tmpl < probe.completions_per_template.size())
        ++probe.completions_per_template[tmpl];
      else
        probe.ring_overrun = true;
    }
    probe.tracked = log.count();
  };
  Result<core::ServiceResult> run = core::execute_service(config);
  if (run.ok()) probe.result = std::move(run).value();
  return probe;
}

// The service's reverse template pool: execute_service alternates each
// template between old -> new and new -> old, planning the reverse
// direction with Peacock as it does here.
struct ReversePool {
  std::vector<update::Instance> instances;
  std::vector<update::Schedule> schedules;
  bool ok = true;
};

ReversePool reverse_pool(const topo::PlannedPoolWorkload& w) {
  ReversePool rev;
  for (const update::Instance& inst : w.instances) {
    Result<update::Instance> r =
        update::Instance::make(inst.new_path(), inst.old_path(),
                               inst.waypoint());
    if (!r.ok()) return {{}, {}, false};
    Result<update::Schedule> sched = update::plan_peacock(r.value());
    if (!sched.ok()) return {{}, {}, false};
    rev.instances.push_back(std::move(r).value());
    rev.schedules.push_back(std::move(sched).value());
  }
  return rev;
}

// The final state an open-loop run must reach, computed without the
// service loop: a template whose submissions completed an odd number of
// times ends on its new path (its last update ran forward), otherwise on
// its old path (the last one ran in reverse). One closed-loop
// execute_multiflow of every template in its final direction installs
// exactly those rules, so its final-state digest is the expected one.
std::optional<std::uint64_t> replayed_final_digest(
    const topo::PlannedPoolWorkload& w, const ReversePool& rev,
    const std::vector<std::uint64_t>& completions_per_template,
    const core::ExecutorConfig& exec) {
  std::vector<const update::Instance*> instances;
  std::vector<const update::Schedule*> schedules;
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    const bool forward = completions_per_template[i] % 2 == 1;
    instances.push_back(forward ? &w.instances[i] : &rev.instances[i]);
    schedules.push_back(forward ? &w.schedules[i] : &rev.schedules[i]);
  }
  core::ExecutorConfig config = exec;
  config.with_traffic = false;
  const Result<core::MultiFlowExecutionResult> run =
      core::execute_multiflow(instances, schedules, config);
  if (!run.ok()) return std::nullopt;
  return run.value().final_state_digest;
}

// Checks one probe run: every completion was seen, and the run ended in
// the state its per-template completion counts imply.
void add_probe_checks(Report& report, const std::string& which,
                      const ServiceProbe& probe,
                      const topo::PlannedPoolWorkload& w,
                      const ReversePool& rev,
                      const core::ExecutorConfig& exec) {
  report.check(which + "_runs", probe.result.has_value());
  if (!probe.result) return;
  const std::uint64_t completed = probe.result->stats.completed;
  report.check(which + "_sees_every_completion",
               !probe.ring_overrun && probe.tracked == completed,
               std::to_string(probe.tracked) + " of " +
                   std::to_string(completed));
  const std::optional<std::uint64_t> expected =
      rev.ok ? replayed_final_digest(w, rev, probe.completions_per_template,
                                     exec)
             : std::nullopt;
  report.check(which + "_final_state_matches_closed_loop_replay",
               expected && *expected == probe.result->final_state_digest,
               hex(probe.result->final_state_digest) + " vs replay " +
                   (expected ? hex(*expected) : std::string("(failed)")));
}

void run_service(const Args& args, SpanRecorder* t, RunOutput& out) {
  Report& report = out.report;
  ScopedSpan root(t, "core.run.service_open");

  // The template pool execute_service builds internally; the benchmark
  // builds it too, as its set-up, for the layer replays.
  double setup_allocs = 0;
  Result<topo::PlannedPoolWorkload> built =
      build_inputs(kServiceTemplates, kServiceSwitches, &setup_allocs, t);
  report.check("workload_builds", built.ok(),
               built.ok() ? "" : built.error().to_string());
  if (!built.ok()) return;
  const topo::PlannedPoolWorkload w = std::move(built).value();

  const core::ServiceConfig config = service_config(args.seed);
  Result<core::ServiceResult> warm = [&] {
    ScopedSpan span(t, "core.execute_service.warmup");
    return core::execute_service(config);
  }();
  report.check("execute_succeeds", warm.ok(),
               warm.ok() ? "" : warm.error().to_string());
  if (!warm.ok()) return;
  const core::ServiceResult r = std::move(warm).value();
  // The simulator's own high-water mark: read before the reference kernel
  // and the untimed extra executions add theirs.
  const double rss_mb = peak_rss_mb();
  out.digest = hex(r.final_state_digest);

  // The plan cache is transparent by contract: the cache-off run must
  // reach the same state with the same sim-time results.
  {
    ScopedSpan span(t, "core.execute_service.cache_off_reference");
    core::ServiceConfig off = config;
    off.exec.controller.plan_cache = false;
    const Result<core::ServiceResult> ref = core::execute_service(off);
    report.check("cache_off_reference_runs", ref.ok());
    if (ref.ok()) {
      const core::ServiceResult& o = ref.value();
      out.reference_digest = hex(o.final_state_digest);
      report.check("cache_off_reference_identical",
                   o.final_state_digest == r.final_state_digest &&
                       o.sim_duration == r.sim_duration &&
                       o.frames_sent == r.frames_sent &&
                       o.stats.completed == r.stats.completed &&
                       o.completions.duration_ms.mean() ==
                           r.completions.duration_ms.mean() &&
                       o.completions.wait_ms.mean() ==
                           r.completions.wait_ms.mean());
    }
  }

  bool call_failed = false;
  out.loop = timed_loop(
      args.seconds, signature(r),
      [&] {
        if (!topo::planned_pool_workload(kServiceTemplates, kServiceSwitches)
                 .ok())
          call_failed = true;
      },
      [&] {
        const Result<core::ServiceResult> run = core::execute_service(config);
        if (!run.ok()) {
          call_failed = true;
          return Signature{};
        }
        return signature(run.value());
      },
      t, "core.execute_service");
  report.check("every_call_succeeds", !call_failed);
  add_loop_checks(report, out.loop);

  // Two untimed probe runs check what the timed calls cannot show. The
  // traffic-off probe repeats the timed call with snapshots on; its final
  // state must match a closed-loop replay of each template's final
  // direction. The traffic-on probe runs live probe packets through the
  // same service for the consistency oracle. Traffic sources fork the run's
  // random stream, so it sees other arrivals and ends in another state,
  // which is checked against its own replay.
  const ReversePool rev = reverse_pool(w);
  report.check("reverse_pool_builds", rev.ok);
  ServiceProbe probe;
  {
    ScopedSpan span(t, "core.execute_service.control_probe");
    probe = probe_service(config);
  }
  add_probe_checks(report, "control_probe", probe, w, rev, config.exec);
  report.check("control_probe_digest_equal",
               probe.result &&
                   probe.result->final_state_digest == r.final_state_digest);
  {
    ScopedSpan span(t, "core.execute_service.traffic_probe");
    core::ServiceConfig traffic = config;
    traffic.exec.with_traffic = true;
    const ServiceProbe live = probe_service(traffic);
    add_probe_checks(report, "traffic_probe", live, w, rev, config.exec);
    if (live.result) {
      add_oracle_checks(report, live.result->traffic);
      report.check("traffic_probe_sends_packets",
                   live.result->traffic.total > 0,
                   std::to_string(live.result->traffic.total));
      report.check("traffic_probe_steady_state_entries_final_zero",
                   live.result->steady_state_entries_final == 0,
                   std::to_string(live.result->steady_state_entries_final));
    }
  }
  report.check("steady_state_entries_final_zero",
               r.steady_state_entries_final == 0,
               std::to_string(r.steady_state_entries_final));

  const core::ServiceStats& s = r.stats;
  const double attempted = static_cast<double>(s.arrivals);
  const double completed = static_cast<double>(s.completed - s.aborted);
  report.check("every_update_accounted",
               s.arrivals == s.accepted + s.rejected &&
                   s.accepted == s.submitted && s.submitted == s.completed &&
                   s.completed == r.completions.count && attempted > 0,
               std::to_string(s.arrivals) + " arrivals, " +
                   std::to_string(s.accepted) + " accepted, " +
                   std::to_string(s.rejected) + " rejected, " +
                   std::to_string(s.completed) + " completed, " +
                   std::to_string(s.aborted) + " aborted");

  out.attempted = s.arrivals;
  out.failed = s.arrivals - (s.completed - s.aborted);

  const double call_s = quantile(out.loop.call_ms, 0.5) / 1e3;
  const double allocs = quantile(out.loop.allocs, 0.5);
  const controller::CompletionStats& c = r.completions;

  if (!args.trace) {
    EndToEnd e;
    set_host_times(e, out.loop);
    e.wall_updates_per_s = completed / e.call_s;
    e.wall_updates_per_s_raw = completed / call_s;
    e.peak_rss_mb = rss_mb;
    e.allocs_per_update = allocs / attempted;
    e.sim_updates_per_s = completed / (sim::to_ms(r.sim_duration) / 1e3);
    e.makespan_sim_ms = sim::to_ms(r.sim_duration);
    e.update_mean_sim_ms = c.duration_ms.mean();
    e.response_mean_sim_ms = c.wait_ms.mean() + c.duration_ms.mean();
    e.frames_per_update = static_cast<double>(r.frames_sent) / attempted;
    e.completed_ratio = completed / attempted;
    e.wait_mean_sim_ms = c.wait_ms.mean();
    e.failed_ratio = 1 - e.completed_ratio;
    emit(report, e, false);
    return;
  }

  Layers l;
  l.queue_depth = probe.max_in_flight * mean_touched(w.instances);
  replay_common(l, report, w, args.seed, true, t);
  l.flow_mods = static_cast<double>(c.flow_mods_sent);
  l.barriers = static_cast<double>(c.barriers_sent);
  l.frames = static_cast<double>(r.frames_sent);
  // Unbatched (no outbox batches, no reply batching): one message a frame.
  if (probe.batches == 0) {
    l.messages = l.frames;
    l.messages_per_frame = 1;
  }
  l.conflict_edges = probe.conflict_edges;
  l.blocked = probe.blocked;
  l.max_in_flight = probe.max_in_flight;
  l.batches = probe.batches;
  l.timer_flushes = probe.timer_flushes;
  l.max_hold_sim_ms = probe.max_hold_sim_ms;
  l.plan_compiles = static_cast<double>(s.plan_compiles);
  l.plan_hits = static_cast<double>(s.plan_hits);
  l.plan_hit_ratio =
      l.plan_hits / std::max(1.0, l.plan_hits + l.plan_compiles);
  l.wait_mean_sim_ms = c.wait_ms.mean();
  l.peak_pending = static_cast<double>(s.peak_pending);
  l.rejected = static_cast<double>(s.rejected);
  l.peak_controller_depth = static_cast<double>(s.peak_controller_depth);
  l.retired_xids = static_cast<double>(r.retired_xids);
  l.wait_p99_hist_sim_ms = c.wait_ns.quantile(0.99) / 1e6;
  l.update_p99_hist_sim_ms = c.duration_ns.quantile(0.99) / 1e6;
  l.alloc_setup = setup_allocs;
  l.trace_overhead_ratio =
      quantile(out.loop.traced_ms, 0.5) / (call_s * 1e3);
  emit(report, l);
}

// ------------------------------------------------------------------ main

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_document(const Args& args, const RunOutput& out,
                    const std::string& trace_file, std::size_t spans) {
  const auto optional = [](const std::string& v) {
    return v.empty() ? std::string("null") : json_string(v);
  };
  std::string doc = "{\"workload\":" + json_string(args.workload);
  doc += ",\"seed\":" + std::to_string(args.seed);
  doc += ",\"seconds\":" + json_number(args.seconds);
  doc += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  doc += ",\"build\":{\"type\":" + json_string(TSU_BENCH_BUILD_TYPE);
  doc += ",\"compiler\":" + json_string(compiler()) + "}";
  doc += ",\"digest\":" + json_string(out.digest);
  doc += ",\"reference_digest\":" + optional(out.reference_digest);
  doc += ",\"updates\":{\"attempted\":" + std::to_string(out.attempted);
  doc += ",\"failed\":" + std::to_string(out.failed) + "}";
  doc += ",\"timing\":{\"call_ms\":" + timing_json(out.loop.call_ms);
  doc += ",\"traced_call_ms\":" + timing_json(out.loop.traced_ms);
  doc += ",\"setup_ms\":" + timing_json(out.loop.setup_ms);
  doc += ",\"reference_kernel_ms\":" + timing_json(out.loop.call_ref_ms);
  doc += ",\"allocs_per_call\":" + timing_json(out.loop.allocs) + "}";
  doc += ",\"trace_file\":" + optional(trace_file);
  doc += ",\"trace_spans\":" + std::to_string(spans);
  doc += ",\"checks\":[";
  for (std::size_t i = 0; i < out.report.checks.size(); ++i) {
    const Check& c = out.report.checks[i];
    if (i > 0) doc += ",";
    doc += "{\"name\":" + json_string(c.name);
    doc += ",\"ok\":";
    doc += c.ok ? "true" : "false";
    doc += ",\"detail\":" + json_string(c.detail) + "}";
  }
  doc += "],\"metrics\":[";
  for (std::size_t i = 0; i < out.report.metrics.size(); ++i) {
    const Metric& m = out.report.metrics[i];
    if (i > 0) doc += ",";
    doc += "{\"name\":" + json_string(m.name);
    doc += ",\"value\":" + json_number(m.value);
    doc += ",\"unit\":" + json_string(m.unit);
    doc += ",\"clock\":" + json_string(m.clock) + "}";
  }
  doc += "]}";
  std::printf("%s\n", doc.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tsu_perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  if (args.workload != "closed_traffic" && args.workload != "service_open") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  SpanRecorder tracer(args.workload + "/" + std::to_string(args.seed));
  SpanRecorder* t = args.trace ? &tracer : nullptr;
  RunOutput out;
  if (args.workload == "service_open")
    run_service(args, t, out);
  else
    run_closed(args, t, out);

  std::string trace_file;
  if (args.trace && !args.trace_out.empty()) {
    const bool written = tracer.write_chrome_trace(args.trace_out);
    out.report.check("trace_file_written", written, args.trace_out);
    if (written) trace_file = args.trace_out;
  }
  print_document(args, out, trace_file, tracer.size());
  return 0;
}
