// E8: the controller's message queue under concurrent policy updates.
//
// The paper's controller enqueues REST messages and processes them
// strictly one at a time (§2; multi-policy scheduling is delegated to
// refs [1] and [3]). This bench submits k simultaneous policy updates and
// measures makespan, per-update duration and queueing delay - the head-of-
// line cost of the serializing design.
//
// Steady-state costs are gated elsewhere: allocations in
// tests/hotpath_alloc_test.cpp, wall time through the same-host A/B of
// tools/bench_ab.sh.
#include "bench_common.hpp"

#include "tsu/topo/instances.hpp"
#include "tsu/util/rng.hpp"

namespace tsu {
namespace {

void queue_bench() {
  bench::print_header("E8", "message-queue behaviour under k concurrent updates",
                      "section 2 (controller-side message queue; cf. [1],[3])");

  stats::Table table({"k requests", "makespan ms", "mean update ms",
                      "mean queueing delay ms", "max queueing delay ms"});

  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    Rng rng(1000 + k);
    topo::RandomInstanceOptions options;
    options.old_interior_min = 4;
    options.old_interior_max = 6;
    options.new_len_min = 4;
    options.new_len_max = 6;

    std::vector<update::Instance> instances;
    std::vector<update::Schedule> schedules;
    for (std::size_t i = 0; i < k; ++i) {
      instances.push_back(topo::random_instance(rng, options));
      const Result<core::PlanOutcome> planned =
          core::plan(instances.back(), core::Algorithm::kWayUp);
      if (!planned.ok()) {
        instances.pop_back();
        continue;
      }
      schedules.push_back(planned.value().schedule);
    }
    std::vector<const update::Instance*> instance_ptrs;
    std::vector<const update::Schedule*> schedule_ptrs;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      instance_ptrs.push_back(&instances[i]);
      schedule_ptrs.push_back(&schedules[i]);
    }

    core::ExecutorConfig config;
    config.with_traffic = false;
    config.channel.latency = sim::LatencyModel::constant(sim::milliseconds(1));
    config.switch_config.install_latency =
        sim::LatencyModel::lognormal(sim::milliseconds(1), 0.5);
    const Result<std::vector<core::ExecutionResult>> results =
        core::execute_queue(instance_ptrs, schedule_ptrs, config);
    if (!results.ok()) continue;

    stats::Summary durations;
    stats::Summary queueing;
    sim::SimTime first_start = ~sim::SimTime{0};
    sim::SimTime last_finish = 0;
    for (const core::ExecutionResult& r : results.value()) {
      durations.add(r.update_ms());
      queueing.add(sim::to_ms(r.update.queueing_delay()));
      first_start = std::min(first_start, r.update.started);
      last_finish = std::max(last_finish, r.update.finished);
    }
    const double makespan_ms = sim::to_ms(last_finish - first_start);
    table.add_row({std::to_string(results.value().size()),
                   bench::fmt(makespan_ms), bench::fmt(durations.mean()),
                   bench::fmt(queueing.mean()), bench::fmt(queueing.max())});
  }
  bench::print_table(table);
  std::printf(
      "shape: the makespan and queueing delay grow linearly in k - the\n"
      "serializing queue is simple and consistent but head-of-line blocked;\n"
      "refs [1]/[3] of the paper study schedulers for multiple policies.\n");
}

}  // namespace
}  // namespace tsu

int main() {
  tsu::queue_bench();
  return 0;
}
