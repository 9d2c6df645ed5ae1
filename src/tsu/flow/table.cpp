#include "tsu/flow/table.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "tsu/util/assert.hpp"

namespace tsu::flow {

std::string FlowRule::to_string() const {
  std::ostringstream out;
  out << "prio=" << priority << " " << match.to_string() << " -> "
      << action.to_string();
  return out.str();
}

namespace {

// Ordering: priority desc, specificity desc. A new rule goes after every
// rule it does not beat, so among full ties the table keeps insertion
// order.
bool rule_before(const FlowRule& a, const FlowRule& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.match.specificity() > b.match.specificity();
}

}  // namespace

void FlowTable::add(FlowRule rule) {
  // Replace identical (match, priority) if present.
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].priority == rule.priority && rules_[i].match == rule.match) {
      rules_[i] = std::move(rule);
      return;
    }
  }
  // Insert in sorted position.
  std::size_t pos = rules_.size();
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rule_before(rule, rules_[i])) {
      pos = i;
      break;
    }
  }
  rules_.insert(rules_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(rule));
  reindex();
}

std::size_t FlowTable::modify(const Match& match, std::uint16_t priority,
                              const Action& action, std::uint64_t cookie) {
  std::size_t rewritten = 0;
  for (FlowRule& rule : rules_) {
    if (rule.match == match) {
      rule.action = action;
      rule.cookie = cookie;
      ++rewritten;
    }
  }
  if (rewritten == 0) {
    add(FlowRule{match, action, priority, cookie});
    return 1;
  }
  return rewritten;
}

std::size_t FlowTable::remove(const Match& match) {
  std::size_t removed = 0;
  for (std::size_t i = rules_.size(); i > 0; --i) {
    const std::size_t idx = i - 1;
    if (match.subsumes(rules_[idx].match)) {
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(idx));
      ++removed;
    }
  }
  if (removed > 0) reindex();
  return removed;
}

bool FlowTable::remove_strict(const Match& match, std::uint16_t priority) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].priority == priority && rules_[i].match == match) {
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
      reindex();
      return true;
    }
  }
  return false;
}

void FlowTable::reindex() {
  const std::size_t n = rules_.size();
  const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(2 * n, 4));
  TSU_ASSERT_MSG(n < kNone, "flow table exceeds its index width");
  // Geometric growth: a table that grows one rule at a time reallocates
  // its index as rarely as its rule vector.
  if (n + buckets > index_.capacity())
    index_.reserve(std::max(n + buckets, 2 * index_.capacity()));
  index_.assign(n + buckets, kNone);
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  std::uint32_t* next = index_.data();
  std::uint32_t* heads = next + n;
  const std::size_t mask = buckets - 1;
  wildcard_head_ = kNone;
  // Back to front, each rule pushed onto the front of its chain: every
  // chain ends up in table order.
  for (std::size_t i = n; i-- > 0;) {
    const auto rule = static_cast<std::uint32_t>(i);
    const std::optional<FlowId>& flow = rules_[i].match.flow;
    if (!flow.has_value()) {
      next[i] = wildcard_head_;
      wildcard_head_ = rule;
      continue;
    }
    std::size_t b = bucket_of(*flow);
    while (heads[b] != kNone && *rules_[heads[b]].match.flow != *flow)
      b = (b + 1) & mask;
    next[i] = heads[b];
    heads[b] = rule;
  }
}

const FlowRule* FlowTable::find(const Packet& packet) const noexcept {
  if (rules_.empty()) return nullptr;
  const std::uint32_t* next = index_.data();
  const std::uint32_t* heads = next + rules_.size();
  const std::size_t mask = index_.size() - rules_.size() - 1;
  std::uint32_t exact = kNone;
  for (std::size_t b = bucket_of(packet.flow); heads[b] != kNone;
       b = (b + 1) & mask) {
    if (*rules_[heads[b]].match.flow == packet.flow) {
      exact = heads[b];
      break;
    }
  }
  // Merge the flow's chain with the wildcard chain in table order (kNone
  // is the largest index); the first full match is the best rule.
  std::uint32_t wild = wildcard_head_;
  while (exact != kNone || wild != kNone) {
    std::uint32_t i;
    if (exact < wild) {
      i = exact;
      exact = next[i];
    } else {
      i = wild;
      wild = next[i];
    }
    if (rules_[i].match.matches(packet)) return &rules_[i];
  }
  return nullptr;
}

std::optional<FlowRule> FlowTable::lookup(const Packet& packet) const {
  const FlowRule* rule = find(packet);
  if (rule == nullptr) return std::nullopt;
  return *rule;
}

std::string FlowTable::to_string() const {
  std::ostringstream out;
  for (const FlowRule& rule : rules_) out << rule.to_string() << "\n";
  return out.str();
}

}  // namespace tsu::flow
