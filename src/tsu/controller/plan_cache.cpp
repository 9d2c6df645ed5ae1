#include "tsu/controller/plan_cache.hpp"

#include <algorithm>
#include <array>
#include <memory_resource>
#include <unordered_set>
#include <utility>

#include "tsu/proto/codec.hpp"

namespace tsu::controller {

namespace {

// The last round of `request` that writes `ref`'s rule.
std::size_t last_round_touching(const UpdateRequest& request,
                                const RuleRef& ref) {
  for (std::size_t r = request.rounds.size(); r-- > 0;)
    for (const RoundOp& op : request.rounds[r])
      if (op.node == ref.node && op.mod.table == ref.table &&
          op.mod.match == ref.match)
        return r;
  TSU_ASSERT_MSG(false, "footprint rule no round touches");
  return 0;
}

}  // namespace

std::span<const std::byte> CompiledPlan::barrier_frame() {
  static const std::vector<std::byte> frame =
      proto::encode(proto::make_barrier_request(0));
  return frame;
}

std::shared_ptr<const CompiledPlan> compile_plan(UpdateRequest request,
                                                 std::uint64_t generation) {
  auto plan = std::make_shared<CompiledPlan>();
  plan->generation = generation;
  plan->request = std::move(request);
  plan->request.priority_class = 0;
  plan->request.enqueued.reset();
  const UpdateRequest& req = plan->request;
  const std::size_t rounds = req.rounds.size();

  plan->footprint = Footprint::of(req);

  // Size every table exactly up front: one allocation each.
  std::size_t ops = 0;
  std::size_t bytes = 0;
  for (const std::vector<RoundOp>& round : req.rounds) {
    ops += round.size();
    for (const RoundOp& op : round)
      bytes += proto::flow_mod_frame_size(op.mod);
  }
  plan->frames.reserve(bytes);
  plan->flow_mod_frames.reserve(ops);
  plan->touched.reserve(ops);
  plan->barrier_targets.reserve(ops);
  plan->round_starts.resize(rounds + 1);

  // The per-round switch sets live in a stack arena (falling back to the
  // heap only for very wide rounds); the allocator does not change a set's
  // iteration order.
  std::array<std::byte, 4096> arena;
  for (std::size_t r = 0; r < rounds; ++r) {
    CompiledPlan::RoundStart& start = plan->round_starts[r];
    start.op = static_cast<std::uint32_t>(plan->flow_mod_frames.size());
    start.barrier = static_cast<std::uint32_t>(plan->barrier_targets.size());
    for (const RoundOp& op : req.rounds[r]) {
      // Encode with xid 0; each send patches the live xid into its copy.
      CompiledPlan::FrameRef ref;
      ref.offset = static_cast<std::uint32_t>(plan->frames.size());
      proto::encode_append(proto::make_flow_mod(0, op.mod), plan->frames);
      ref.length =
          static_cast<std::uint32_t>(plan->frames.size() - ref.offset);
      plan->flow_mod_frames.push_back(ref);
      if (std::find(plan->touched.begin(), plan->touched.end(), op.node) ==
          plan->touched.end())
        plan->touched.push_back(op.node);
    }
    // The paper's per-round barrier fan-out, deduplicated through a fresh
    // unordered_set: its iteration order is the barrier send order, which
    // fixes xid assignment and same-instant event order.
    std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size());
    std::pmr::unordered_set<NodeId> round_switches(&pool);
    for (const RoundOp& op : req.rounds[r]) round_switches.insert(op.node);
    for (const NodeId node : round_switches)
      plan->barrier_targets.push_back(node);
  }
  CompiledPlan::RoundStart& end = plan->round_starts[rounds];
  end.op = static_cast<std::uint32_t>(plan->flow_mod_frames.size());
  end.barrier = static_cast<std::uint32_t>(plan->barrier_targets.size());

  // Release slices by counting sort on each rule's last round, in
  // footprint order: count into round_starts[last + 1], prefix-sum into
  // slice starts, place while advancing each start to its slice's end,
  // then shift the starts back by one round.
  const std::vector<RuleRef>& rules = plan->footprint.rules();
  for (const RuleRef& rule : rules)
    ++plan->round_starts[last_round_touching(req, rule) + 1].release;
  for (std::size_t r = 1; r <= rounds; ++r)
    plan->round_starts[r].release += plan->round_starts[r - 1].release;
  plan->release_rules.resize(rules.size());
  for (const RuleRef& rule : rules)
    plan->release_rules[plan->round_starts[last_round_touching(req, rule)]
                            .release++] = rule;
  for (std::size_t r = rounds; r > 0; --r)
    plan->round_starts[r].release = plan->round_starts[r - 1].release;
  plan->round_starts[0].release = 0;
  return plan;
}

}  // namespace tsu::controller
