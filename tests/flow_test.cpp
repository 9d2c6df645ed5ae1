#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tsu/flow/match.hpp"
#include "tsu/flow/table.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::flow {
namespace {

Packet packet(FlowId flow, NodeId src = 1, NodeId dst = 12,
              std::uint32_t in_port = 0) {
  Packet p;
  p.flow = flow;
  p.src_host = src;
  p.dst_host = dst;
  p.in_port = in_port;
  return p;
}

// ------------------------------------------------------------------ Match --

TEST(MatchTest, WildcardMatchesEverything) {
  const Match m = Match::wildcard();
  EXPECT_TRUE(m.matches(packet(1)));
  EXPECT_TRUE(m.matches(packet(999, 5, 6, 7)));
}

TEST(MatchTest, ExactFlowMatches) {
  const Match m = Match::exact_flow(7);
  EXPECT_TRUE(m.matches(packet(7)));
  EXPECT_FALSE(m.matches(packet(8)));
}

TEST(MatchTest, MultiFieldConjunction) {
  Match m;
  m.flow = 1;
  m.src_host = 2;
  EXPECT_TRUE(m.matches(packet(1, 2)));
  EXPECT_FALSE(m.matches(packet(1, 3)));
  EXPECT_FALSE(m.matches(packet(2, 2)));
}

TEST(MatchTest, InPortField) {
  Match m;
  m.in_port = 4;
  EXPECT_TRUE(m.matches(packet(1, 2, 3, 4)));
  EXPECT_FALSE(m.matches(packet(1, 2, 3, 5)));
}

TEST(MatchTest, SubsumesWildcardOverConcrete) {
  const Match wild = Match::wildcard();
  const Match narrow = Match::exact_flow(1);
  EXPECT_TRUE(wild.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wild));
  EXPECT_TRUE(narrow.subsumes(narrow));
}

TEST(MatchTest, SubsumesDifferentValuesFalse) {
  const Match a = Match::exact_flow(1);
  const Match b = Match::exact_flow(2);
  EXPECT_FALSE(a.subsumes(b));
  EXPECT_FALSE(b.subsumes(a));
}

TEST(MatchTest, SpecificityCountsFields) {
  EXPECT_EQ(Match::wildcard().specificity(), 0);
  EXPECT_EQ(Match::exact_flow(1).specificity(), 1);
  Match m;
  m.flow = 1;
  m.src_host = 2;
  m.dst_host = 3;
  m.in_port = 4;
  EXPECT_EQ(m.specificity(), 4);
}

TEST(MatchTest, ToStringShowsFieldsOrStar) {
  EXPECT_EQ(Match::wildcard().to_string(), "{*}");
  EXPECT_EQ(Match::exact_flow(3).to_string(), "{flow=3}");
}

TEST(ActionTest, Constructors) {
  EXPECT_EQ(Action::forward(5).kind, ActionKind::kForward);
  EXPECT_EQ(Action::forward(5).port, 5u);
  EXPECT_EQ(Action::deliver().kind, ActionKind::kDeliver);
  EXPECT_EQ(Action::drop().kind, ActionKind::kDrop);
}

// -------------------------------------------------------------- FlowTable --

TEST(FlowTableTest, EmptyLookupMisses) {
  const FlowTable t;
  EXPECT_FALSE(t.lookup(packet(1)).has_value());
}

TEST(FlowTableTest, AddAndLookup) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const auto rule = t.lookup(packet(1));
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, Action::forward(2));
  EXPECT_FALSE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, HigherPriorityWins) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 1, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(9), 100, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(9));
  EXPECT_EQ(t.lookup(packet(2))->action, Action::drop());
}

TEST(FlowTableTest, SpecificityBreaksPriorityTies) {
  FlowTable t;
  t.add(FlowRule{Match::wildcard(), Action::drop(), 10, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(4), 10, 0});
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(4));
}

TEST(FlowTableTest, AddReplacesIdenticalMatchAndPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 100, 0});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(3));
}

TEST(FlowTableTest, AddKeepsDistinctPriorities) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(1), Action::forward(3), 50, 0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(packet(1))->action, Action::forward(2));  // prio 100
}

TEST(FlowTableTest, ModifyRewritesAction) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  const std::size_t n = t.modify(Match::exact_flow(1), 100,
                                 Action::forward(7), 42);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  const auto rule = t.lookup(packet(1));
  EXPECT_EQ(rule->action, Action::forward(7));
  EXPECT_EQ(rule->cookie, 42u);
}

TEST(FlowTableTest, ModifyOnMissBehavesLikeAdd) {
  FlowTable t;
  const std::size_t n = t.modify(Match::exact_flow(5), 80,
                                 Action::forward(2), 0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(packet(5))->priority, 80);
}

TEST(FlowTableTest, RemoveNonStrictSubsumption) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  // Wildcard delete clears everything it subsumes.
  EXPECT_EQ(t.remove(Match::wildcard()), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, RemoveExactOnlyTouchesThatFlow) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::exact_flow(2), Action::forward(3), 100, 0});
  EXPECT_EQ(t.remove(Match::exact_flow(1)), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.lookup(packet(2)).has_value());
}

TEST(FlowTableTest, RemoveStrictNeedsExactPriority) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_FALSE(t.remove_strict(Match::exact_flow(1), 99));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.remove_strict(Match::exact_flow(1), 100));
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, InsertionOrderBreaksFullTies) {
  FlowTable t;
  Match m1;
  m1.flow = 1;
  Match m2;
  m2.src_host = 1;
  // Same priority, same specificity; first-inserted wins.
  t.add(FlowRule{m1, Action::forward(10), 50, 0});
  t.add(FlowRule{m2, Action::forward(20), 50, 0});
  EXPECT_EQ(t.lookup(packet(1, 1))->action, Action::forward(10));
}

TEST(FlowTableTest, ClearEmptiesTable) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(FlowTableTest, ToStringListsRules) {
  FlowTable t;
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  EXPECT_NE(t.to_string().find("prio=100"), std::string::npos);
}

// --------------------------------------------- FlowTable vs. linear scan --

// The OpenFlow table semantics written the plain way: rules in insertion
// order with an explicit sequence number, sorted (priority desc,
// specificity desc, sequence asc) on demand, first match wins.
struct ReferenceTable {
  struct Entry {
    FlowRule rule;
    std::uint64_t seq;
  };

  void add(const FlowRule& rule) {
    for (Entry& e : entries)
      if (e.rule.priority == rule.priority && e.rule.match == rule.match) {
        e.rule = rule;
        return;
      }
    entries.push_back(Entry{rule, next_seq++});
  }
  void modify(const Match& match, std::uint16_t priority, const Action& action,
              std::uint64_t cookie) {
    bool hit = false;
    for (Entry& e : entries)
      if (e.rule.match == match) {
        e.rule.action = action;
        e.rule.cookie = cookie;
        hit = true;
      }
    if (!hit) add(FlowRule{match, action, priority, cookie});
  }
  void remove(const Match& match) {
    std::erase_if(entries,
                  [&](const Entry& e) { return match.subsumes(e.rule.match); });
  }
  void remove_strict(const Match& match, std::uint16_t priority) {
    std::erase_if(entries, [&](const Entry& e) {
      return e.rule.priority == priority && e.rule.match == match;
    });
  }
  std::vector<Entry> sorted() const {
    std::vector<Entry> out = entries;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.rule.priority != b.rule.priority)
        return a.rule.priority > b.rule.priority;
      if (a.rule.match.specificity() != b.rule.match.specificity())
        return a.rule.match.specificity() > b.rule.match.specificity();
      return a.seq < b.seq;
    });
    return out;
  }

  std::vector<Entry> entries;
  std::uint64_t next_seq = 0;
};

bool same_rule(const FlowRule& a, const FlowRule& b) {
  return a.match == b.match && a.action == b.action &&
         a.priority == b.priority && a.cookie == b.cookie;
}

// Small value domains so rules collide, overlap and shadow each other.
Match random_match(Rng& rng) {
  Match m;
  if (!rng.bernoulli(0.3)) m.flow = rng.uniform_u64(1, 5);
  if (rng.bernoulli(0.4)) m.src_host = static_cast<NodeId>(rng.index(3));
  if (rng.bernoulli(0.4)) m.dst_host = static_cast<NodeId>(10 + rng.index(3));
  if (rng.bernoulli(0.3)) m.in_port = static_cast<std::uint32_t>(rng.index(3));
  return m;
}

TEST(FlowTablePropertyTest, FindEqualsTheFirstMatchOfAReferenceScan) {
  constexpr std::uint64_t kSeeds = 500;
  std::uint64_t exact_hits = 0;
  std::uint64_t wildcard_hits = 0;
  std::uint64_t misses = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FlowTable table;
    ReferenceTable ref;
    for (int step = 0; step < 200; ++step) {
      const Match match = random_match(rng);
      const auto priority = static_cast<std::uint16_t>(100 * (1 + rng.index(3)));
      const Action action = Action::forward(static_cast<NodeId>(rng.index(50)));
      const std::uint64_t cookie = rng.index(1000);
      const std::size_t op = rng.index(100);
      if (op < 50) {
        table.add(FlowRule{match, action, priority, cookie});
        ref.add(FlowRule{match, action, priority, cookie});
      } else if (op < 65) {
        table.modify(match, priority, action, cookie);
        ref.modify(match, priority, action, cookie);
      } else if (op < 75) {
        table.remove(match);
        ref.remove(match);
      } else if (op < 99) {
        // Half the strict removals name a rule that is present.
        Match target = match;
        std::uint16_t prio = priority;
        if (!ref.entries.empty() && rng.bernoulli(0.5)) {
          const FlowRule& r = ref.entries[rng.index(ref.entries.size())].rule;
          target = r.match;
          prio = r.priority;
        }
        table.remove_strict(target, prio);
        ref.remove_strict(target, prio);
      } else {
        table.clear();
        ref.entries.clear();
      }

      const std::vector<ReferenceTable::Entry> expected = ref.sorted();
      ASSERT_EQ(table.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_TRUE(same_rule(table.rules()[i], expected[i].rule))
            << "rule " << i << " at step " << step;

      for (int probe = 0; probe < 8; ++probe) {
        Packet p;
        p.flow = rng.uniform_u64(1, 6);
        p.src_host = static_cast<NodeId>(rng.index(3));
        p.dst_host = static_cast<NodeId>(10 + rng.index(3));
        p.in_port = static_cast<std::uint32_t>(rng.index(3));
        const FlowRule* want = nullptr;
        for (const FlowRule& rule : table.rules())
          if (rule.match.matches(p)) {
            want = &rule;
            break;
          }
        const FlowRule* got = table.find(p);
        ASSERT_EQ(got, want) << "step " << step;
        const std::optional<FlowRule> looked = table.lookup(p);
        ASSERT_EQ(looked.has_value(), got != nullptr);
        if (got == nullptr) {
          ++misses;
        } else {
          ASSERT_TRUE(same_rule(*looked, *got));
          ++(got->match.flow.has_value() ? exact_hits : wildcard_hits);
        }
      }
    }
  }
  // Vacuity guards: hits through the flow index, hits through the
  // wildcard chain, and misses all occur.
  EXPECT_GT(exact_hits, 10000u);
  EXPECT_GT(wildcard_hits, 10000u);
  EXPECT_GT(misses, 10000u);
}

TEST(FlowTableTest, FindReturnsTheTableEntry) {
  FlowTable t;
  EXPECT_EQ(t.find(packet(1)), nullptr);
  t.add(FlowRule{Match::exact_flow(1), Action::forward(2), 100, 0});
  t.add(FlowRule{Match::wildcard(), Action::drop(), 10, 0});
  EXPECT_EQ(t.find(packet(1)), &t.rules()[0]);
  EXPECT_EQ(t.find(packet(7)), &t.rules()[1]);
  t.clear();
  EXPECT_EQ(t.find(packet(1)), nullptr);
}

}  // namespace
}  // namespace tsu::flow
