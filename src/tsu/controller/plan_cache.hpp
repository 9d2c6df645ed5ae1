// Compiled update plans - the one form in which the controller runs an
// update - and the memo that lets repeat submissions share them.
//
// Every submission goes through a CompiledPlan: Controller::submit(request)
// compiles the request and submits the plan. A plan captures everything
// about an update that does not depend on the submission instant: the
// canonical UpdateRequest (rounds and all), its admission Footprint, the
// per-round release slices, the per-round barrier fan-out order, and every
// FlowMod frame pre-encoded with xid 0. Running a plan then costs only xid
// assignment and per-switch routing: the outbox or the channel copies the
// cached bytes and patches the live xid in (proto::patch_xid - the xid
// analogue of the codec's length patch), producing bytes identical to a
// fresh encode with that xid.
//
// The open-loop service mode submits the same few templates over and over,
// so it memoizes plans in a PlanCache: a hit skips lowering and compiling
// entirely. The memo is transparent - a cache-on run is bit-identical to
// the cache-off run (the service driver then calls submit(request), a memo
// of capacity 0 over the same controller code), which the equivalence
// suite pins. Generation tagging keeps it that way under faults: every plan
// records the controller's resync generation at compile time; a
// fault-driven resync rewrites shadow state and bumps the generation, so
// PlanCache::lookup discards any plan compiled before it (counted as an
// invalidation) rather than serving it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "tsu/controller/admission.hpp"
#include "tsu/controller/update_request.hpp"
#include "tsu/util/ids.hpp"

namespace tsu::controller {

// Everything about one update that does not depend on the submission
// instant. Immutable after compile_plan (shared across submissions through
// shared_ptr<const CompiledPlan>). Per-round tables are flat: one vector
// per table, sliced by `round_starts`.
struct CompiledPlan {
  // Offset/length of one pre-encoded frame inside `frames`.
  struct FrameRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  // Where one round's entries start in each flat table. `round_starts`
  // holds one entry per round plus a sentinel with the table ends, so
  // round r spans [round_starts[r], round_starts[r + 1]).
  struct RoundStart {
    std::uint32_t op = 0;
    std::uint32_t barrier = 0;
    std::uint32_t release = 0;
  };

  // The canonical request: rounds, name, flow, interval. Per-submission
  // fields (priority_class, enqueued) are reset to their defaults and
  // carried by each submission instead.
  UpdateRequest request;
  // Admission footprint, identical to Footprint::of(request).
  Footprint footprint;
  // Unique switches the request touches, in first-appearance order; the
  // sharded coordinator routes by this set.
  std::vector<NodeId> touched;
  // Pre-encoded FlowMod frames (xid 0) back to back, and one FrameRef per
  // round op.
  std::vector<std::byte> frames;
  std::vector<FrameRef> flow_mod_frames;
  // Per-round barrier fan-out targets, in exactly the order a fresh
  // std::unordered_set fed the round's ops iterates - the order xids are
  // assigned in, which the digests pin.
  std::vector<NodeId> barrier_targets;
  // Per-round footprint release slices (admission_release = round): every
  // footprint rule sits in the slice of the LAST round touching it, in
  // footprint order - once that round's barriers return, no later round
  // can write the rule again.
  std::vector<RuleRef> release_rules;
  std::vector<RoundStart> round_starts;
  // Controller resync generation at compile time; lookup() rejects plans
  // from older generations.
  std::uint64_t generation = 0;

  std::size_t rounds() const noexcept { return request.rounds.size(); }
  std::span<const std::byte> flow_mod_frame(std::size_t round,
                                            std::size_t op) const noexcept {
    const FrameRef& ref = flow_mod_frames[round_starts[round].op + op];
    return std::span<const std::byte>(frames).subspan(ref.offset, ref.length);
  }
  std::span<const NodeId> barrier_order(std::size_t round) const noexcept {
    return std::span<const NodeId>(barrier_targets)
        .subspan(round_starts[round].barrier,
                 round_starts[round + 1].barrier -
                     round_starts[round].barrier);
  }
  std::span<const RuleRef> release_slice(std::size_t round) const noexcept {
    return std::span<const RuleRef>(release_rules)
        .subspan(round_starts[round].release,
                 round_starts[round + 1].release -
                     round_starts[round].release);
  }
  // The BarrierRequest frame (xid 0). Barriers carry no payload, so every
  // barrier of every plan shares this one constant.
  static std::span<const std::byte> barrier_frame();
};

// Compiles `request` into an immutable plan: footprint, release slices,
// touched set, barrier order, and every FlowMod frame encoded once with
// xid 0.
std::shared_ptr<const CompiledPlan> compile_plan(UpdateRequest request,
                                                 std::uint64_t generation);

// The memo: template key -> compiled plan, with hit/compile/invalidation
// counters surfaced through ServiceStats. Keys are the caller's (the
// service executor derives one per (template, direction) from the update
// instance's identity digest), so the cache itself never inspects requests.
class PlanCache {
 public:
  // Returns the cached plan for `key` if it exists and was compiled at
  // `generation`; a generation mismatch (fault-driven resync since
  // compile) discards the stale plan and counts an invalidation. A miss
  // returns nullptr - the caller compiles and store()s.
  std::shared_ptr<const CompiledPlan> lookup(std::uint64_t key,
                                             std::uint64_t generation) {
    const auto it = plans_.find(key);
    if (it == plans_.end()) return nullptr;
    if (it->second->generation != generation) {
      ++invalidations_;
      plans_.erase(it);
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  void store(std::uint64_t key, std::shared_ptr<const CompiledPlan> plan) {
    ++compiles_;
    plans_[key] = std::move(plan);
  }

  std::uint64_t hits() const noexcept { return hits_; }
  // Misses that compiled a fresh plan (every invalidation is followed by
  // one, so misses == compiles).
  std::uint64_t compiles() const noexcept { return compiles_; }
  std::uint64_t invalidations() const noexcept { return invalidations_; }
  std::size_t size() const noexcept { return plans_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const CompiledPlan>>
      plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t compiles_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace tsu::controller
