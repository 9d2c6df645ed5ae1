// Flow table with OpenFlow add/modify/delete semantics and highest-priority
// matching (ties broken towards the more specific match, then insertion
// order, mirroring common switch behaviour).
//
// The rules are kept sorted best-first, so the answer to a lookup is the
// first rule in table order that matches. A rule that matches a packet
// either names the packet's flow or wildcards the flow field, so find()
// reads only those rules: an open-addressed index maps each flow to the
// first of its rules, each rule links to the next rule of its flow (or of
// the wildcard-flow chain) in table order, and find() merges the packet's
// flow chain with the wildcard chain. An exact-flow table answers in one
// hash probe. The index is rebuilt on every add, remove and clear - the
// rare control-plane path - and read on every packet hop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tsu/flow/match.hpp"

namespace tsu::flow {

struct FlowRule {
  Match match;
  Action action;
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;

  std::string to_string() const;
};

class FlowTable {
 public:
  // OpenFlow ADD: replaces a rule with identical match and priority,
  // otherwise inserts.
  void add(FlowRule rule);

  // OpenFlow MODIFY (non-strict): rewrites the action of every rule whose
  // match equals `match`; if none matched, behaves like ADD (which is what
  // OVS does for MODIFY on a miss). Returns number of rewritten rules.
  std::size_t modify(const Match& match, std::uint16_t priority,
                     const Action& action, std::uint64_t cookie);

  // OpenFlow DELETE (non-strict): removes every rule subsumed by `match`.
  // Returns the number of removed rules.
  std::size_t remove(const Match& match);

  // OpenFlow DELETE_STRICT: removes the rule with identical match and
  // priority, if present.
  bool remove_strict(const Match& match, std::uint16_t priority);

  // Highest-priority matching rule for `packet`, or null on a miss. The
  // pointer is valid until the next mutation.
  const FlowRule* find(const Packet& packet) const noexcept;

  // find() by value (a copy of the rule).
  std::optional<FlowRule> lookup(const Packet& packet) const;

  std::size_t size() const noexcept { return rules_.size(); }
  bool empty() const noexcept { return rules_.empty(); }
  const std::vector<FlowRule>& rules() const noexcept { return rules_; }
  void clear() noexcept {
    rules_.clear();
    index_.clear();
    wildcard_head_ = kNone;
  }

  std::string to_string() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Rebuilds index_ from rules_ (see the file comment).
  void reindex();
  std::size_t bucket_of(FlowId flow) const noexcept {
    return static_cast<std::size_t>((flow * 0x9E3779B97F4A7C15ull) >>
                                    bucket_shift_);
  }

  std::vector<FlowRule> rules_;  // kept sorted: priority desc, specificity
                                 // desc, insertion order
  // [0, n): each rule's next rule in its chain, kNone at the end;
  // [n, n + buckets): the first rule of a flow, kNone for an empty bucket.
  // The bucket count is a power of two >= 2n, probed linearly.
  std::vector<std::uint32_t> index_;
  std::uint32_t wildcard_head_ = kNone;  // first wildcard-flow rule
  unsigned bucket_shift_ = 64;
};

}  // namespace tsu::flow
