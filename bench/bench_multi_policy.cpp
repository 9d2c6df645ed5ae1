// E11 (extension): multi-policy updates - parallelizing the message queue.
//
// The demo's controller serializes concurrent policy updates (E8). Its
// reference [1] (Dudycz, Ludwig, Schmid, DSN'16, "Can't touch this:
// Consistent network updates for multiple policies") asks how much of that
// serialization is necessary. merge_policies interleaves per-policy rounds
// under the "one policy per switch per round" discipline; this bench
// measures the resulting global round count against (a) full serialization
// (sum of rounds) and (b) the perfect-parallel lower bound (max of rounds),
// as a function of how much the policies' switch sets overlap.
//
// Also reports the round-compression ablation: how many rounds
// compress_schedule removes from WayUp/Peacock output when the hazards a
// constant-round algorithm defends against are absent from the instance.
//
// The batching section drives the controller's per-switch outbox across
// every BatchMode on the 1000-flow pool workload: frames per flow,
// makespan, p50/p99 per-flow install latency and the max outbox hold, so
// the frames-vs-latency trade-off is tracked per PR. With --json FILE, the
// admission-policy and batching sections additionally write their numbers
// as a JSON document (consumed by the CI stress job).
#include <chrono>
#include <fstream>
#include <string_view>

#include "bench_common.hpp"

#include "tsu/controller/plan_cache.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/core/service.hpp"
#include "tsu/json/json.hpp"
#include "tsu/sim/faults.hpp"
#include "tsu/util/alloc_hooks.hpp"
#include "tsu/topo/instances.hpp"
#include "tsu/update/optimizer.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

constexpr std::size_t kAdmissionFlows = 256;
constexpr std::size_t kAdmissionSwitches = 60;
constexpr std::size_t kBatchFlows = 1000;
constexpr std::size_t kBatchSwitches = 210;

// Builds k policies whose node universes overlap pairwise by `shared`
// switches out of `span`.
std::vector<update::Instance> make_policies(Rng& rng, std::size_t k,
                                            std::size_t shared) {
  std::vector<update::Instance> policies;
  topo::RandomInstanceOptions options;
  options.old_interior_min = 4;
  options.old_interior_max = 5;
  options.new_len_min = 4;
  options.new_len_max = 5;
  options.with_waypoint = false;
  for (std::size_t i = 0; i < k; ++i) {
    update::Instance inst = topo::random_instance(rng, options);
    // Shift node ids so consecutive policies share `shared` low ids.
    const NodeId offset =
        static_cast<NodeId>(i * (inst.node_count() - shared));
    graph::Path old_path = inst.old_path();
    graph::Path new_path = inst.new_path();
    for (NodeId& v : old_path) v += offset;
    for (NodeId& v : new_path) v += offset;
    policies.push_back(
        std::move(update::Instance::make(old_path, new_path)).value());
  }
  return policies;
}

// The compile-once submission path (controller/plan_cache.hpp): cold
// (lower the schedule, compute the footprint, encode every frame) vs warm
// (one cache lookup; the channel patches xids into the cached bytes)
// ns/submission at the component level, plus a service-level comparison of
// the same open-loop run with the cache off and on - sustained/s must
// match exactly (the transparency contract), wall time and the warm-window
// allocation count are what the cache buys. Gated figures
// (tools/check_bench_regression.py): warm/cold <= 0.7 and zero
// steady-state submission allocations.
json::Object submission_path_bench(bool* failed) {
  const topo::PlannedPoolWorkload pool =
      topo::planned_pool_workload(8, 48).value();
  const core::ExecutorConfig defaults;
  const std::size_t templates = pool.instances.size();
  constexpr int kReps = 2000;

  // Cold: the full per-submission pipeline the cache-off path runs.
  std::size_t sink = 0;
  const auto cold_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < templates; ++i) {
      controller::UpdateRequest req = controller::request_from_schedule(
          pool.instances[i], pool.schedules[i],
          static_cast<FlowId>(defaults.flow + i), defaults.priority,
          defaults.interval);
      const std::shared_ptr<const controller::CompiledPlan> plan =
          controller::compile_plan(std::move(req), 0);
      sink += plan->frames.size();
    }
  }
  const auto cold_stop = std::chrono::steady_clock::now();
  const double cold_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              cold_stop - cold_start)
                              .count()) /
      static_cast<double>(kReps * templates);

  // Warm: the hit path - one hash lookup returning the shared plan.
  controller::PlanCache cache;
  for (std::size_t i = 0; i < templates; ++i) {
    controller::UpdateRequest req = controller::request_from_schedule(
        pool.instances[i], pool.schedules[i],
        static_cast<FlowId>(defaults.flow + i), defaults.priority,
        defaults.interval);
    cache.store(i, controller::compile_plan(std::move(req), 0));
  }
  const auto warm_start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < templates; ++i) {
      const std::shared_ptr<const controller::CompiledPlan> plan =
          cache.lookup(i, 0);
      sink += plan->request.rounds.size();
    }
  }
  const auto warm_stop = std::chrono::steady_clock::now();
  const double warm_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              warm_stop - warm_start)
                              .count()) /
      static_cast<double>(kReps * templates);
  const double ratio = cold_ns > 0 ? warm_ns / cold_ns : 0.0;

  // Service level: the saturated open-loop point, cache off vs on. The
  // cache-on run additionally brackets a warm window (a third into the run
  // to two thirds) with the allocation counter - the submission path plus
  // the whole switch pipeline must stay off the heap once every template
  // has compiled.
  constexpr std::uint64_t kTarget = 10000;
  const auto service_config = [] {
    core::ServiceConfig config;
    config.exec.seed = 4242;
    config.exec.with_traffic = false;
    config.exec.controller.max_in_flight = 16;
    config.flows = 8;
    config.pool_switches = 48;
    config.arrival_rate_per_sec = 700;
    config.max_pending = 1024;
    config.target_completions = kTarget;
    return config;
  };
  core::ServiceConfig off_config = service_config();
  off_config.exec.controller.plan_cache = false;
  const Result<core::ServiceResult> off = core::execute_service(off_config);

  core::ServiceConfig on_config = service_config();
  on_config.snapshot_interval = sim::milliseconds(100);
  on_config.snapshot_window = 4;
  std::uint64_t window_start = 0;
  std::uint64_t window_end = 0;
  on_config.on_snapshot = [&](const core::ServiceSnapshot& snap) {
    if (window_start == 0 && snap.completed >= kTarget / 3)
      window_start = alloc_hooks::allocations();
    else if (window_start != 0 && window_end == 0 &&
             snap.completed >= 2 * kTarget / 3)
      window_end = alloc_hooks::allocations();
  };
  const Result<core::ServiceResult> on = core::execute_service(on_config);

  json::Object section;
  section.set("templates",
              json::Value(static_cast<std::int64_t>(templates)));
  section.set("cold_ns_per_submission", json::Value(cold_ns));
  section.set("warm_ns_per_submission", json::Value(warm_ns));
  section.set("warm_cold_ratio", json::Value(ratio));
  section.set("sink", json::Value(static_cast<std::int64_t>(sink & 0xff)));

  if (!off.ok() || !on.ok()) {
    std::fprintf(stderr, "submission-path bench service run failed: %s\n",
                 (!off.ok() ? off.error() : on.error()).to_string().c_str());
    *failed = true;
    return section;
  }
  const core::ServiceResult& off_result = off.value();
  const core::ServiceResult& on_result = on.value();
  const double hit_rate =
      on_result.stats.submitted == 0
          ? 0.0
          : static_cast<double>(on_result.stats.plan_hits) /
                static_cast<double>(on_result.stats.submitted);
  const std::uint64_t steady_allocs =
      window_end >= window_start ? window_end - window_start : 0;
  if (window_end == 0) *failed = true;  // the window never closed

  std::printf("\nsubmission path (8 templates, plan cache):\n"
              "  cold %s ns/submission, warm %s ns/submission (ratio %s)\n"
              "  service %llu completions: hit rate %s, "
              "%llu warm-window allocations\n"
              "  sustained/s on=%s off=%s (must match: transparency), "
              "wall ms on=%s off=%s\n",
              bench::fmt(cold_ns).c_str(), bench::fmt(warm_ns).c_str(),
              bench::fmt(ratio, 3).c_str(),
              static_cast<unsigned long long>(on_result.stats.completed),
              bench::fmt(hit_rate, 3).c_str(),
              static_cast<unsigned long long>(steady_allocs),
              bench::fmt(on_result.sustained_per_sec(), 1).c_str(),
              bench::fmt(off_result.sustained_per_sec(), 1).c_str(),
              bench::fmt(on_result.sharding.wall_ms).c_str(),
              bench::fmt(off_result.sharding.wall_ms).c_str());
  if (on_result.sustained_per_sec() != off_result.sustained_per_sec()) {
    std::fprintf(stderr, "plan cache changed sim-time throughput - "
                         "transparency broken, BENCH BUG\n");
    *failed = true;
  }

  section.set("service_completions",
              json::Value(static_cast<std::int64_t>(on_result.stats.completed)));
  section.set("plan_compiles", json::Value(static_cast<std::int64_t>(
                                   on_result.stats.plan_compiles)));
  section.set("plan_hits", json::Value(static_cast<std::int64_t>(
                               on_result.stats.plan_hits)));
  section.set("plan_invalidations",
              json::Value(static_cast<std::int64_t>(
                  on_result.stats.plan_invalidations)));
  section.set("hit_rate", json::Value(hit_rate));
  // Gated at zero: past warmup, submissions must never touch the heap.
  section.set("steady_allocs",
              json::Value(static_cast<std::int64_t>(steady_allocs)));
  section.set("sustained_per_sec_on",
              json::Value(on_result.sustained_per_sec()));
  section.set("sustained_per_sec_off",
              json::Value(off_result.sustained_per_sec()));
  section.set("sustained_delta",
              json::Value(on_result.sustained_per_sec() -
                          off_result.sustained_per_sec()));
  section.set("wall_ms_on", json::Value(on_result.sharding.wall_ms));
  section.set("wall_ms_off", json::Value(off_result.sharding.wall_ms));
  return section;
}

// Returns false if the admission section could not produce all its rows.
bool run(const char* json_path) {
  bool admission_failed = false;
  bench::print_header("E11", "multi-policy round merging",
                      "extension; paper reference [1] (DSN'16)");

  stats::Table table({"k policies", "switch overlap", "sum rounds (serial)",
                      "max rounds (ideal)", "merged rounds",
                      "parallel efficiency"});
  for (const std::size_t k : {2u, 4u, 8u}) {
    for (const std::size_t shared : {0u, 2u, 4u}) {
      Rng rng(9000 + k * 10 + shared);
      const std::vector<update::Instance> policies =
          make_policies(rng, k, shared);
      std::vector<update::Schedule> schedules;
      std::vector<const update::Instance*> policy_ptrs;
      std::vector<const update::Schedule*> schedule_ptrs;
      std::size_t sum_rounds = 0;
      std::size_t max_rounds = 0;
      // Keep policies and schedules aligned: skip a policy entirely when
      // the planner declines it.
      schedules.reserve(policies.size());
      for (const update::Instance& inst : policies) {
        Result<update::Schedule> schedule = update::plan_peacock(inst);
        if (!schedule.ok()) continue;
        sum_rounds += schedule.value().round_count();
        max_rounds = std::max(max_rounds, schedule.value().round_count());
        schedules.push_back(std::move(schedule).value());
        policy_ptrs.push_back(&inst);
      }
      for (const update::Schedule& schedule : schedules)
        schedule_ptrs.push_back(&schedule);
      const Result<update::MergedSchedule> merged =
          update::merge_policies(policy_ptrs, schedule_ptrs);
      if (!merged.ok()) continue;
      const double efficiency =
          static_cast<double>(max_rounds) /
          static_cast<double>(merged.value().round_count());
      table.add_row({std::to_string(k), std::to_string(shared),
                     std::to_string(sum_rounds), std::to_string(max_rounds),
                     std::to_string(merged.value().round_count()),
                     bench::fmt(efficiency * 100.0, 0) + "%"});
    }
  }
  bench::print_table(table);

  std::printf("\nround-compression ablation (compress_schedule):\n");
  stats::Table ablation({"algorithm", "instances", "mean rounds",
                         "mean rounds compressed", "rounds removed"});
  Rng rng(777777);
  topo::RandomInstanceOptions options;
  options.reuse_probability = 0.4;  // hazards frequently absent
  for (const core::Algorithm algorithm :
       {core::Algorithm::kWayUp, core::Algorithm::kPeacock}) {
    stats::Summary before;
    stats::Summary after;
    const std::uint32_t property =
        algorithm == core::Algorithm::kWayUp ? update::kWaypoint
                                             : update::kPeacockGuarantee;
    for (int i = 0; i < 80; ++i) {
      const update::Instance inst = topo::random_instance(rng, options);
      const Result<core::PlanOutcome> planned = core::plan(inst, algorithm);
      if (!planned.ok()) continue;
      const update::Schedule compressed = update::compress_schedule(
          inst, planned.value().schedule, property);
      before.add(static_cast<double>(planned.value().schedule.round_count()));
      after.add(static_cast<double>(compressed.round_count()));
    }
    ablation.add_row({core::to_string(algorithm),
                      std::to_string(before.count()),
                      bench::fmt(before.mean()), bench::fmt(after.mean()),
                      bench::fmt(before.mean() - after.mean())});
  }
  bench::print_table(ablation);

  // Wall-clock makespan through the *actual* controller: the demo's
  // serializing queue vs one merged multi-policy request.
  std::printf("\ncontrol-plane makespan: serializing queue vs merged request:\n");
  stats::Table makespan({"k policies", "serial queue ms", "merged ms",
                         "speedup"});
  for (const std::size_t k : {2u, 4u, 8u}) {
    Rng makespan_rng(31000 + k);
    const std::vector<update::Instance> policies =
        make_policies(makespan_rng, k, 2);
    std::vector<update::Schedule> schedules;
    std::vector<const update::Instance*> policy_ptrs;
    std::vector<const update::Schedule*> schedule_ptrs;
    schedules.reserve(policies.size());
    for (const update::Instance& inst : policies) {
      Result<update::Schedule> schedule = update::plan_peacock(inst);
      if (!schedule.ok()) continue;
      schedules.push_back(std::move(schedule).value());
      policy_ptrs.push_back(&inst);
    }
    for (const update::Schedule& schedule : schedules)
      schedule_ptrs.push_back(&schedule);
    core::ExecutorConfig config;
    config.with_traffic = false;
    config.switch_config.install_latency =
        sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
    const Result<std::vector<core::ExecutionResult>> serial =
        core::execute_queue(policy_ptrs, schedule_ptrs, config);
    const Result<core::MultiFlowExecutionResult> merged_run =
        core::execute_merged(policy_ptrs, schedule_ptrs, config);
    if (!serial.ok() || !merged_run.ok()) continue;
    const double serial_ms = sim::to_ms(
        serial.value().back().update.finished -
        serial.value().front().update.started);
    const double merged_ms =
        sim::to_ms(merged_run.value().updates.front().duration());
    makespan.add_row({std::to_string(k), bench::fmt(serial_ms),
                      bench::fmt(merged_ms),
                      bench::fmt(serial_ms / merged_ms, 1) + "x"});
  }
  bench::print_table(makespan);

  // The concurrent multi-flow engine: K requests in flight at once, with
  // and without per-switch frame batching, against the serializing queue.
  std::printf(
      "\nconcurrent engine: serial queue vs K in-flight vs K + batching:\n");
  stats::Table engine({"k policies", "serial ms", "concurrent ms",
                       "speedup", "serial frames", "batched frames",
                       "frames saved"});
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    Rng engine_rng(47000 + k);
    const std::vector<update::Instance> policies =
        make_policies(engine_rng, k, 0);
    std::vector<update::Schedule> schedules;
    std::vector<const update::Instance*> policy_ptrs;
    std::vector<const update::Schedule*> schedule_ptrs;
    schedules.reserve(policies.size());
    for (const update::Instance& inst : policies) {
      Result<update::Schedule> schedule = update::plan_peacock(inst);
      if (!schedule.ok()) continue;
      schedules.push_back(std::move(schedule).value());
      policy_ptrs.push_back(&inst);
    }
    for (const update::Schedule& schedule : schedules)
      schedule_ptrs.push_back(&schedule);
    core::ExecutorConfig config;
    config.with_traffic = false;
    const Result<std::vector<core::ExecutionResult>> serial =
        core::execute_queue(policy_ptrs, schedule_ptrs, config);
    core::ExecutorConfig concurrent_config = config;
    concurrent_config.controller.max_in_flight = k;
    const Result<core::MultiFlowExecutionResult> concurrent =
        core::execute_multiflow(policy_ptrs, schedule_ptrs,
                                concurrent_config);
    core::ExecutorConfig batched_config = concurrent_config;
    batched_config.controller.batch_mode = controller::BatchMode::kInstant;
    const Result<core::MultiFlowExecutionResult> batched =
        core::execute_multiflow(policy_ptrs, schedule_ptrs, batched_config);
    if (!serial.ok() || !concurrent.ok() || !batched.ok()) continue;
    const double serial_ms = sim::to_ms(
        serial.value().back().update.finished -
        serial.value().front().update.started);
    const double concurrent_ms = concurrent.value().makespan_ms();
    const std::size_t serial_frames = serial.value().front().frames_sent;
    const std::size_t batched_frames = batched.value().frames_sent;
    engine.add_row(
        {std::to_string(k), bench::fmt(serial_ms), bench::fmt(concurrent_ms),
         bench::fmt(serial_ms / concurrent_ms, 1) + "x",
         std::to_string(serial_frames), std::to_string(batched_frames),
         bench::fmt(100.0 * (1.0 - static_cast<double>(batched_frames) /
                                       static_cast<double>(serial_frames)),
                    0) + "%"});
  }
  bench::print_table(engine);

  // Admission policies on a shared-pool workload: flows share switches
  // (switch-level overlap) but never rules, so rule-level conflict
  // tracking must reach blind-level parallelism while serialize pays the
  // full queue; the safety oracle checks all three.
  std::printf("\nadmission policies: %zu flows over %zu shared switches:\n",
              kAdmissionFlows, kAdmissionSwitches);
  stats::Table admission_table({"policy", "makespan ms", "max in flight",
                                "conflict edges", "violations"});
  json::Array admission_json;
  const topo::PlannedPoolWorkload pool =
      topo::planned_pool_workload(kAdmissionFlows, kAdmissionSwitches)
          .value();
  for (const controller::AdmissionPolicy policy :
       {controller::AdmissionPolicy::kBlind,
        controller::AdmissionPolicy::kConflictAware,
        controller::AdmissionPolicy::kSerialize}) {
    core::ExecutorConfig config;
    config.seed = 4242;
    config.traffic_interarrival =
        sim::LatencyModel::constant(sim::milliseconds(2));
    config.controller.max_in_flight = kAdmissionFlows;
    config.controller.batch_mode = controller::BatchMode::kInstant;
    config.controller.admission = policy;
    const Result<core::MultiFlowExecutionResult> run =
        core::execute_multiflow(pool.instance_ptrs, pool.schedule_ptrs,
                                config);
    if (!run.ok()) {
      // A missing policy row would silently corrupt the CI-tracked JSON
      // series; fail the bench loudly instead.
      std::fprintf(stderr, "admission bench failed for policy %s: %s\n",
                   controller::to_string(policy),
                   run.error().to_string().c_str());
      admission_failed = true;
      continue;
    }
    const core::MultiFlowExecutionResult& result = run.value();
    const std::size_t violations = result.aggregate.bypassed +
                                   result.aggregate.looped +
                                   result.aggregate.blackholed;
    admission_table.add_row(
        {controller::to_string(policy), bench::fmt(result.makespan_ms()),
         std::to_string(result.max_in_flight_observed),
         std::to_string(result.conflict_edges),
         std::to_string(violations)});
    json::Object entry;
    entry.set("policy", json::Value(controller::to_string(policy)));
    entry.set("flows",
              json::Value(static_cast<std::int64_t>(kAdmissionFlows)));
    entry.set("switches",
              json::Value(static_cast<std::int64_t>(kAdmissionSwitches)));
    entry.set("makespan_ms", json::Value(result.makespan_ms()));
    entry.set("max_in_flight_observed",
              json::Value(
                  static_cast<std::int64_t>(result.max_in_flight_observed)));
    entry.set("conflict_edges",
              json::Value(static_cast<std::int64_t>(result.conflict_edges)));
    entry.set("blocked_submissions",
              json::Value(
                  static_cast<std::int64_t>(result.blocked_submissions)));
    entry.set("frames_sent",
              json::Value(static_cast<std::int64_t>(result.frames_sent)));
    entry.set("packets", json::Value(
                             static_cast<std::int64_t>(result.aggregate.total)));
    entry.set("violations", json::Value(static_cast<std::int64_t>(violations)));
    admission_json.push_back(json::Value(std::move(entry)));
  }
  bench::print_table(admission_table);

  // The adaptive outbox across batch modes: the 1000-flow pool workload,
  // every flow in flight at once under conflict-aware admission. Frames
  // must fall sharply in the windowed modes while the added install
  // latency stays bounded by the hold window.
  bool batching_failed = false;
  std::printf("\nbatch modes: %zu flows over %zu shared switches "
              "(window 0.3 ms):\n",
              kBatchFlows, kBatchSwitches);
  stats::Table batch_table({"mode", "frames", "frames/flow", "vs off",
                            "makespan ms", "p50 ms", "p99 ms",
                            "max hold ms"});
  json::Array batching_json;
  const topo::PlannedPoolWorkload batch_pool =
      topo::planned_pool_workload(kBatchFlows, kBatchSwitches).value();
  std::size_t off_frames = 0;
  for (const controller::BatchMode mode :
       {controller::BatchMode::kOff, controller::BatchMode::kInstant,
        controller::BatchMode::kWindow, controller::BatchMode::kAdaptive}) {
    core::ExecutorConfig config;
    config.seed = 4242;
    config.with_traffic = false;
    config.channel.latency =
        sim::LatencyModel::constant(sim::microseconds(100));
    config.switch_config.install_latency =
        sim::LatencyModel::constant(sim::microseconds(50));
    config.controller.max_in_flight = kBatchFlows;
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    config.controller.batch_mode = mode;
    config.controller.batch_window = sim::microseconds(300);
    const Result<core::MultiFlowExecutionResult> run =
        core::execute_multiflow(batch_pool.instance_ptrs,
                                batch_pool.schedule_ptrs, config);
    if (!run.ok()) {
      std::fprintf(stderr, "batching bench failed for mode %s: %s\n",
                   controller::to_string(mode),
                   run.error().to_string().c_str());
      batching_failed = true;
      continue;
    }
    const core::MultiFlowExecutionResult& result = run.value();
    stats::Percentiles install_ms;
    for (const core::ExecutionResult& flow : result.flows)
      install_ms.add(flow.update_ms());
    if (mode == controller::BatchMode::kOff) off_frames = result.frames_sent;
    const double saved =
        off_frames > 0
            ? 100.0 * (1.0 - static_cast<double>(result.frames_sent) /
                                 static_cast<double>(off_frames))
            : 0.0;
    batch_table.add_row(
        {controller::to_string(mode), std::to_string(result.frames_sent),
         bench::fmt(static_cast<double>(result.frames_sent) /
                    static_cast<double>(kBatchFlows)),
         bench::fmt(-saved, 0) + "%", bench::fmt(result.makespan_ms()),
         bench::fmt(install_ms.median()), bench::fmt(install_ms.p99()),
         bench::fmt(result.batching.max_hold_ms(), 3)});
    json::Object entry;
    entry.set("mode", json::Value(controller::to_string(mode)));
    entry.set("flows", json::Value(static_cast<std::int64_t>(kBatchFlows)));
    entry.set("switches",
              json::Value(static_cast<std::int64_t>(kBatchSwitches)));
    entry.set("frames_sent",
              json::Value(static_cast<std::int64_t>(result.frames_sent)));
    entry.set("messages_sent",
              json::Value(static_cast<std::int64_t>(result.messages_sent)));
    entry.set("batches_sent", json::Value(static_cast<std::int64_t>(
                                  result.batching.batches_sent)));
    entry.set("timer_flushes", json::Value(static_cast<std::int64_t>(
                                   result.batching.timer_flushes)));
    entry.set("budget_flushes", json::Value(static_cast<std::int64_t>(
                                    result.batching.budget_flushes)));
    entry.set("makespan_ms", json::Value(result.makespan_ms()));
    entry.set("install_p50_ms", json::Value(install_ms.median()));
    entry.set("install_p99_ms", json::Value(install_ms.p99()));
    entry.set("max_hold_ms", json::Value(result.batching.max_hold_ms()));
    batching_json.push_back(json::Value(std::move(entry)));
  }
  bench::print_table(batch_table);

  // Sharded controller scaling: the same 1000-flow pool through 1/2/4/8
  // hash-partitioned controller shards (hash scatters each flow's block of
  // switches, so nearly every update is cross-shard - the worst case for
  // the coordinator). Tracked per PR: makespan, frames per flow, and the
  // cross-shard round-sync overhead the two-phase round barrier costs.
  bool sharding_failed = false;
  std::printf("\nsharded controller: %zu flows over %zu switches "
              "(hash partition, adaptive batching):\n",
              kBatchFlows, kBatchSwitches);
  stats::Table shard_table({"shards", "makespan ms", "frames/flow",
                            "cross-shard updates", "rounds synced",
                            "sync overhead ms"});
  json::Array sharding_json;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    core::ExecutorConfig config;
    config.seed = 4242;
    config.with_traffic = false;
    config.channel.latency =
        sim::LatencyModel::constant(sim::microseconds(100));
    config.switch_config.install_latency =
        sim::LatencyModel::constant(sim::microseconds(50));
    config.switch_config.batch_replies = true;
    config.controller.max_in_flight = kBatchFlows;
    config.controller.admission = controller::AdmissionPolicy::kConflictAware;
    config.controller.batch_mode = controller::BatchMode::kAdaptive;
    config.controller.batch_window = sim::microseconds(300);
    config.controller.shards = shards;
    config.controller.partition = topo::PartitionScheme::kHash;
    const Result<core::MultiFlowExecutionResult> run =
        core::execute_multiflow(batch_pool.instance_ptrs,
                                batch_pool.schedule_ptrs, config);
    if (!run.ok()) {
      std::fprintf(stderr, "sharding bench failed for %zu shards: %s\n",
                   shards, run.error().to_string().c_str());
      sharding_failed = true;
      continue;
    }
    const core::MultiFlowExecutionResult& result = run.value();
    shard_table.add_row(
        {std::to_string(shards), bench::fmt(result.makespan_ms()),
         bench::fmt(static_cast<double>(result.frames_sent) /
                    static_cast<double>(kBatchFlows)),
         std::to_string(result.sharding.cross_shard_updates),
         std::to_string(result.sharding.rounds_synced),
         bench::fmt(result.sharding.sync_overhead_ms(), 3)});
    json::Object entry;
    entry.set("shards", json::Value(static_cast<std::int64_t>(shards)));
    entry.set("flows", json::Value(static_cast<std::int64_t>(kBatchFlows)));
    entry.set("switches",
              json::Value(static_cast<std::int64_t>(kBatchSwitches)));
    entry.set("partition", json::Value("hash"));
    entry.set("makespan_ms", json::Value(result.makespan_ms()));
    entry.set("frames_sent",
              json::Value(static_cast<std::int64_t>(result.frames_sent)));
    entry.set("messages_sent",
              json::Value(static_cast<std::int64_t>(result.messages_sent)));
    entry.set("cross_shard_updates",
              json::Value(static_cast<std::int64_t>(
                  result.sharding.cross_shard_updates)));
    entry.set("rounds_synced", json::Value(static_cast<std::int64_t>(
                                   result.sharding.rounds_synced)));
    entry.set("sync_overhead_ms",
              json::Value(result.sharding.sync_overhead_ms()));
    sharding_json.push_back(json::Value(std::move(entry)));
  }
  bench::print_table(shard_table);

  // Fault recovery: seeded chaos schedules (sim/faults.hpp) against the
  // admission pool, once per failure response. Tracked per PR: recovery
  // latency percentiles, resync traffic, rollback counts and the makespan
  // inflation faults cost over the fault-free run.
  bool faults_failed = false;
  constexpr std::size_t kFaultSeeds = 5;
  std::printf("\nfault recovery: %zu flows over %zu switches, "
              "%zu chaos seeds per response:\n",
              kAdmissionFlows, kAdmissionSwitches, kFaultSeeds);
  stats::Table fault_table({"response", "makespan ms", "inflation ms",
                            "recovery p50 ms", "recovery p99 ms", "resyncs",
                            "resync frames", "retries", "rollbacks",
                            "frames lost"});
  json::Array faults_json;
  const auto fault_config = [] {
    core::ExecutorConfig config;
    config.seed = 4242;
    config.channel.latency =
        sim::LatencyModel::constant(sim::microseconds(100));
    config.switch_config.install_latency =
        sim::LatencyModel::constant(sim::microseconds(50));
    config.traffic_interarrival =
        sim::LatencyModel::constant(sim::milliseconds(2));
    config.link_latency = sim::LatencyModel::constant(sim::microseconds(20));
    config.warmup = sim::milliseconds(2);
    config.drain = sim::milliseconds(10);
    config.controller.max_in_flight = kAdmissionFlows;
    // Above the loaded round RTT (~3 ms with every flow in flight), so
    // only real faults trip the liveness machinery.
    config.controller.liveness_timeout = sim::milliseconds(10);
    return config;
  };
  sim::ChaosOptions fault_options;
  fault_options.node_count = kAdmissionSwitches;
  fault_options.start_ms = 1.5;
  fault_options.horizon_ms = 10;
  fault_options.crashes = 2;
  fault_options.link_downs = 1;
  fault_options.blackholes = 1;
  fault_options.min_down_ms = 0.5;
  fault_options.max_down_ms = 2.5;
  const Result<core::MultiFlowExecutionResult> fault_free =
      core::execute_multiflow(pool.instance_ptrs, pool.schedule_ptrs,
                              fault_config());
  if (!fault_free.ok()) {
    std::fprintf(stderr, "fault bench baseline failed: %s\n",
                 fault_free.error().to_string().c_str());
    faults_failed = true;
  }
  const double clean_ms =
      fault_free.ok() ? fault_free.value().makespan_ms() : 0.0;
  for (const controller::FailureResponse response :
       {controller::FailureResponse::kWait,
        controller::FailureResponse::kRollback}) {
    sim::FaultStats merged;
    double makespan_sum_ms = 0;
    std::size_t runs = 0;
    for (std::size_t seed = 1; seed <= kFaultSeeds; ++seed) {
      core::ExecutorConfig config = fault_config();
      config.controller.failure_response = response;
      config.faults = sim::FaultSchedule::random(seed, fault_options);
      const Result<core::MultiFlowExecutionResult> run =
          core::execute_multiflow(pool.instance_ptrs, pool.schedule_ptrs,
                                  config);
      if (!run.ok()) {
        std::fprintf(stderr, "fault bench failed for %s seed %zu: %s\n",
                     controller::to_string(response), seed,
                     run.error().to_string().c_str());
        faults_failed = true;
        continue;
      }
      const sim::FaultStats& faults = run.value().faults;
      merged.crashes += faults.crashes;
      merged.link_downs += faults.link_downs;
      merged.blackholes += faults.blackholes;
      merged.frames_lost += faults.frames_lost;
      merged.timeouts += faults.timeouts;
      merged.resyncs += faults.resyncs;
      merged.resync_frames += faults.resync_frames;
      merged.rollbacks += faults.rollbacks;
      merged.retries += faults.retries;
      merged.resubmissions += faults.resubmissions;
      merged.recovery_ms.insert(merged.recovery_ms.end(),
                                faults.recovery_ms.begin(),
                                faults.recovery_ms.end());
      makespan_sum_ms += run.value().makespan_ms();
      ++runs;
    }
    if (runs == 0) continue;
    const double mean_ms = makespan_sum_ms / static_cast<double>(runs);
    fault_table.add_row(
        {controller::to_string(response), bench::fmt(mean_ms),
         bench::fmt(mean_ms - clean_ms), bench::fmt(merged.recovery_p50_ms()),
         bench::fmt(merged.recovery_p99_ms()),
         std::to_string(merged.resyncs),
         std::to_string(merged.resync_frames),
         std::to_string(merged.retries), std::to_string(merged.rollbacks),
         std::to_string(merged.frames_lost)});
    json::Object entry;
    entry.set("response", json::Value(controller::to_string(response)));
    entry.set("seeds", json::Value(static_cast<std::int64_t>(runs)));
    entry.set("flows",
              json::Value(static_cast<std::int64_t>(kAdmissionFlows)));
    entry.set("switches",
              json::Value(static_cast<std::int64_t>(kAdmissionSwitches)));
    entry.set("makespan_ms", json::Value(mean_ms));
    entry.set("clean_makespan_ms", json::Value(clean_ms));
    entry.set("recovery_p50_ms", json::Value(merged.recovery_p50_ms()));
    entry.set("recovery_p99_ms", json::Value(merged.recovery_p99_ms()));
    entry.set("crashes", json::Value(static_cast<std::int64_t>(merged.crashes)));
    entry.set("link_downs",
              json::Value(static_cast<std::int64_t>(merged.link_downs)));
    entry.set("blackholes",
              json::Value(static_cast<std::int64_t>(merged.blackholes)));
    entry.set("frames_lost",
              json::Value(static_cast<std::int64_t>(merged.frames_lost)));
    entry.set("timeouts",
              json::Value(static_cast<std::int64_t>(merged.timeouts)));
    entry.set("resyncs", json::Value(static_cast<std::int64_t>(merged.resyncs)));
    entry.set("resync_frames",
              json::Value(static_cast<std::int64_t>(merged.resync_frames)));
    entry.set("retries", json::Value(static_cast<std::int64_t>(merged.retries)));
    entry.set("rollbacks",
              json::Value(static_cast<std::int64_t>(merged.rollbacks)));
    entry.set("resubmissions",
              json::Value(static_cast<std::int64_t>(merged.resubmissions)));
    faults_json.push_back(json::Value(std::move(entry)));
  }
  bench::print_table(fault_table);

  // Open-loop service mode: Poisson arrivals at three operating points of
  // the same template pool - comfortably under capacity, near saturation,
  // and deep overload (where the bounded pending queue sheds load). All
  // sim-time figures are deterministic per seed, so the CI gate can hold
  // sustained throughput and the drain invariant to tight tolerances.
  bool open_loop_failed = false;
  constexpr std::uint64_t kServeTarget = 20000;
  std::printf("\nopen-loop service: 8 templates over 48 switches, "
              "%llu completions per point:\n",
              static_cast<unsigned long long>(kServeTarget));
  stats::Table serve_table({"operating point", "arrival/s", "sustained/s",
                            "p50 dur ms", "p99 dur ms", "p99 wait ms",
                            "rejected", "peak pending", "leftover entries"});
  json::Array open_loop_json;
  struct ServePoint {
    const char* label;
    double rate;
    std::size_t max_pending;
  };
  // The pool's service capacity under the default environment is ~690
  // updates/s (8 templates, ~12.5 ms per serialized update), which anchors
  // the three operating points.
  for (const ServePoint point :
       {ServePoint{"under_capacity", 500, 1024},
        ServePoint{"saturated", 700, 1024},
        ServePoint{"overload", 5000, 256}}) {
    core::ServiceConfig config;
    config.exec.seed = 4242;
    config.exec.with_traffic = false;
    config.exec.controller.max_in_flight = 16;
    config.flows = 8;
    config.pool_switches = 48;
    config.arrival_rate_per_sec = point.rate;
    config.max_pending = point.max_pending;
    config.target_completions = kServeTarget;
    const Result<core::ServiceResult> run = core::execute_service(config);
    if (!run.ok()) {
      std::fprintf(stderr, "open-loop bench failed for %s: %s\n",
                   point.label, run.error().to_string().c_str());
      open_loop_failed = true;
      continue;
    }
    const core::ServiceResult& result = run.value();
    serve_table.add_row(
        {point.label, bench::fmt(point.rate, 0),
         bench::fmt(result.sustained_per_sec(), 0),
         bench::fmt(result.completions.duration_ns.quantile(0.5) / 1e6),
         bench::fmt(result.completions.duration_ns.quantile(0.99) / 1e6),
         bench::fmt(result.completions.wait_ns.quantile(0.99) / 1e6),
         std::to_string(result.stats.rejected),
         std::to_string(result.stats.peak_pending),
         std::to_string(result.steady_state_entries_final)});
    json::Object entry;
    entry.set("label", json::Value(point.label));
    entry.set("arrival_rate_per_sec", json::Value(point.rate));
    entry.set("target_completions",
              json::Value(static_cast<std::int64_t>(kServeTarget)));
    entry.set("sustained_per_sec", json::Value(result.sustained_per_sec()));
    entry.set("p50_duration_ms",
              json::Value(result.completions.duration_ns.quantile(0.5) / 1e6));
    entry.set("p99_duration_ms",
              json::Value(result.completions.duration_ns.quantile(0.99) / 1e6));
    entry.set("p99_wait_ms",
              json::Value(result.completions.wait_ns.quantile(0.99) / 1e6));
    entry.set("rejected",
              json::Value(static_cast<std::int64_t>(result.stats.rejected)));
    entry.set("peak_pending", json::Value(static_cast<std::int64_t>(
                                  result.stats.peak_pending)));
    entry.set("steady_state_entries_final",
              json::Value(static_cast<std::int64_t>(
                  result.steady_state_entries_final)));
    entry.set("retired_xids", json::Value(static_cast<std::int64_t>(
                                  result.retired_xids)));
    open_loop_json.push_back(json::Value(std::move(entry)));
  }
  bench::print_table(serve_table);

  bool submission_failed = false;
  json::Object submission_path = submission_path_bench(&submission_failed);

  if (json_path != nullptr) {
    json::Object doc;
    doc.set("bench",
            json::Value("bench_multi_policy/admission+batching+sharding"));
    doc.set("results", json::Value(std::move(admission_json)));
    doc.set("batching", json::Value(std::move(batching_json)));
    doc.set("sharding", json::Value(std::move(sharding_json)));
    doc.set("faults", json::Value(std::move(faults_json)));
    doc.set("open_loop", json::Value(std::move(open_loop_json)));
    doc.set("submission_path", json::Value(std::move(submission_path)));
    std::ofstream out(json_path);
    out << json::write(json::Value(std::move(doc))) << "\n";
    std::printf("admission+batching+sharding JSON written to %s\n",
                json_path);
  }

  std::printf(
      "shape: disjoint policies merge at ~100%% parallel efficiency; shared\n"
      "switches serialize only the conflicting rounds. Compression removes\n"
      "the rounds constant-round algorithms spend on hazards the concrete\n"
      "instance does not have. Rule-level admission parallelizes the\n"
      "shared-switch pool blind admission races through and serialize\n"
      "queues behind. The windowed outbox trades a bounded (<= window)\n"
      "install-latency hold for sharply fewer, larger frames. Sharding\n"
      "partitions that work across controllers: a round's barriers cover\n"
      "the same switches either way, so the makespan stays flat even when\n"
      "hash partitioning makes nearly every update cross-shard; the sync\n"
      "overhead column sums each cross-shard round's confirmation spread\n"
      "(first shard done -> last shard done) over all concurrent updates,\n"
      "i.e. the slack the two-phase barrier absorbs off the critical path.\n");
  return !admission_failed && !batching_failed && !sharding_failed &&
         !faults_failed && !open_loop_failed &&
         !submission_failed;
}

}  // namespace
}  // namespace tsu

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--json") json_path = argv[i + 1];
  return tsu::run(json_path) ? 0 : 1;
}
