#include "lint/automaton.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace aqua::lint {
namespace {

AutomatonFacts Facts(const std::string& pattern) {
  auto lp = ParseListPattern(pattern);
  EXPECT_TRUE(lp.ok()) << lp.status().ToString() << " in " << pattern;
  return lp.ok() ? AnalyzeListPatternAutomaton(lp->body) : AutomatonFacts{};
}

TEST(AutomatonTest, PlainConcatenation) {
  AutomatonFacts f = Facts("a b");
  EXPECT_TRUE(f.compiled);
  EXPECT_FALSE(f.language_empty);
  EXPECT_FALSE(f.accepts_empty);
  EXPECT_FALSE(f.has_live_eps_cycle);
}

TEST(AutomatonTest, StarAcceptsEmpty) {
  AutomatonFacts f = Facts("[[a]]*");
  EXPECT_TRUE(f.compiled);
  EXPECT_FALSE(f.language_empty);
  EXPECT_TRUE(f.accepts_empty);
  EXPECT_FALSE(f.has_live_eps_cycle);
}

TEST(AutomatonTest, UnsatisfiablePredicateKillsItsEdge) {
  AutomatonFacts f = Facts("{x > 3 && x < 1}");
  EXPECT_TRUE(f.compiled);
  EXPECT_TRUE(f.language_empty);
  // A dead mandatory element also kills the whole concatenation.
  EXPECT_TRUE(Facts("a {x > 3 && x < 1} b").language_empty);
  // ...but not an alternation with a live branch.
  EXPECT_FALSE(Facts("a | {x > 3 && x < 1}").language_empty);
}

TEST(AutomatonTest, ClosureOverNullableBodyHasLiveEpsCycle) {
  AutomatonFacts f = Facts("[[[[a]]*]]+");
  EXPECT_TRUE(f.compiled);
  EXPECT_TRUE(f.has_live_eps_cycle);
  EXPECT_TRUE(f.accepts_empty);
  EXPECT_FALSE(f.language_empty);
}

TEST(AutomatonTest, DeadClosureHasNoLiveCycle) {
  // The inner closure diverges, but behind a dead predicate its states are
  // unreachable over live edges, so the cycle is not live.
  AutomatonFacts f = Facts("{x > 3 && x < 1} [[[[a]]*]]+ b");
  EXPECT_TRUE(f.compiled);
  EXPECT_TRUE(f.language_empty);
  EXPECT_FALSE(f.has_live_eps_cycle);
}

TEST(AutomatonTest, MemoAnswersLikeAFreshAnalysis) {
  AutomatonMemo memo;
  for (int round = 0; round < 2; ++round) {
    for (const char* pattern :
         {"a b", "[[a]]*", "{x > 3 && x < 1}", "[[[[a]]*]]+"}) {
      auto lp = ParseListPattern(pattern);
      ASSERT_TRUE(lp.ok()) << lp.status().ToString();
      AutomatonFacts want = AnalyzeListPatternAutomaton(lp->body);
      for (int repeat = 0; repeat < 2; ++repeat) {
        AutomatonFacts got = memo.Analyze(lp->body);
        EXPECT_EQ(got.compiled, want.compiled) << pattern;
        EXPECT_EQ(got.language_empty, want.language_empty) << pattern;
        EXPECT_EQ(got.accepts_empty, want.accepts_empty) << pattern;
        EXPECT_EQ(got.has_live_eps_cycle, want.has_live_eps_cycle) << pattern;
      }
    }
  }
}

}  // namespace
}  // namespace aqua::lint
