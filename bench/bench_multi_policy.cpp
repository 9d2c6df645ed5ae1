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
// Two more tables run the merged and concurrent engines through the real
// controller: the control-plane makespan of the serializing queue against
// one merged multi-policy request, and K requests in flight with and
// without per-switch frame batching.
//
// The scale configurations (admission policies, batch modes, shard counts,
// fault recovery, the open-loop service points) run as tests:
// scale_stress_test, batch_equivalence_test, shard_equivalence_test and
// service_test.
#include "bench_common.hpp"

#include "tsu/topo/instances.hpp"
#include "tsu/update/optimizer.hpp"
#include "tsu/update/schedulers.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

// k Peacock-planned policies whose node universes overlap pairwise by
// `shared` switches. A policy the planner declines is left out entirely,
// so the instance and schedule pointers stay aligned.
struct Policies {
  std::vector<update::Instance> instances;
  std::vector<update::Schedule> schedules;
  std::vector<const update::Instance*> instance_ptrs;
  std::vector<const update::Schedule*> schedule_ptrs;
};

Policies plan_policies(Rng& rng, std::size_t k, std::size_t shared) {
  Policies policies;
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
    policies.instances.push_back(
        std::move(update::Instance::make(old_path, new_path)).value());
  }
  policies.schedules.reserve(k);
  for (const update::Instance& inst : policies.instances) {
    Result<update::Schedule> schedule = update::plan_peacock(inst);
    if (!schedule.ok()) continue;
    policies.schedules.push_back(std::move(schedule).value());
    policies.instance_ptrs.push_back(&inst);
  }
  for (const update::Schedule& schedule : policies.schedules)
    policies.schedule_ptrs.push_back(&schedule);
  return policies;
}

void run() {
  bench::print_header("E11", "multi-policy round merging",
                      "extension; paper reference [1] (DSN'16)");

  stats::Table table({"k policies", "switch overlap", "sum rounds (serial)",
                      "max rounds (ideal)", "merged rounds",
                      "parallel efficiency"});
  for (const std::size_t k : {2u, 4u, 8u}) {
    for (const std::size_t shared : {0u, 2u, 4u}) {
      Rng rng(9000 + k * 10 + shared);
      const Policies policies = plan_policies(rng, k, shared);
      std::size_t sum_rounds = 0;
      std::size_t max_rounds = 0;
      for (const update::Schedule& schedule : policies.schedules) {
        sum_rounds += schedule.round_count();
        max_rounds = std::max(max_rounds, schedule.round_count());
      }
      const Result<update::MergedSchedule> merged = update::merge_policies(
          policies.instance_ptrs, policies.schedule_ptrs);
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
    const Policies policies = plan_policies(makespan_rng, k, 2);
    const auto& policy_ptrs = policies.instance_ptrs;
    const auto& schedule_ptrs = policies.schedule_ptrs;
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
    const Policies policies = plan_policies(engine_rng, k, 0);
    const auto& policy_ptrs = policies.instance_ptrs;
    const auto& schedule_ptrs = policies.schedule_ptrs;
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

  std::printf(
      "shape: disjoint policies merge at ~100%% parallel efficiency; shared\n"
      "switches serialize only the conflicting rounds. Compression removes\n"
      "the rounds constant-round algorithms spend on hazards the concrete\n"
      "instance does not have. Through the controller, a merged request\n"
      "and K requests in flight both beat the serializing queue, and\n"
      "batching packs the concurrent requests into fewer frames.\n");
}

}  // namespace
}  // namespace tsu

int main() {
  tsu::run();
  return 0;
}
