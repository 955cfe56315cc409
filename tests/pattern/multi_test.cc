#include "pattern/multi.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"

namespace aqua {
namespace {

class MultiNfaTest : public testing::AquaTestBase {
 protected:
  std::vector<ListPatternRef> Bodies(const std::vector<std::string>& pats) {
    std::vector<ListPatternRef> bodies;
    for (const auto& p : pats) bodies.push_back(LP(p).body);
    return bodies;
  }

  /// The reference answer for one pattern: the backtracking matcher's
  /// unanchored existence question.
  bool BacktrackerExists(const ListPatternRef& body, const List& l) {
    ListMatcher matcher(store_, l);
    ListMatchOptions opts;
    opts.max_matches = 1;
    auto matches = matcher.FindAll(AnchoredListPattern{body}, opts);
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
    return matches.ok() && !matches->empty();
  }

  /// The reference mask: one backtracking existence search per pattern.
  uint64_t BacktrackerMatchAll(const std::vector<ListPatternRef>& bodies,
                               const List& l) {
    uint64_t mask = 0;
    for (size_t j = 0; j < bodies.size(); ++j) {
      if (BacktrackerExists(bodies[j], l)) mask |= 1ULL << j;
    }
    return mask;
  }

  /// Asserts NFA and lazy-DFA agree with N independent backtracking
  /// searches on `list_lit`.
  void CheckAgainstBacktracker(const std::vector<std::string>& pats,
                               const std::string& list_lit) {
    std::vector<ListPatternRef> bodies = Bodies(pats);
    List l = L(list_lit);
    uint64_t expected = BacktrackerMatchAll(bodies, l);

    ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
    AlphabetScratch scratch;
    EXPECT_EQ(multi.MatchAll(store_, l, &scratch), expected) << list_lit;

    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
    EXPECT_EQ(dfa.MatchAll(store_, l, &scratch), expected) << list_lit;
  }

  /// One pattern (N=1): the NFA's answer, after checking that the lazy DFA
  /// and the backtracker give the same one.
  bool Exists(const std::string& list_lit, const std::string& pattern) {
    ListPatternRef body = LP(pattern).body;
    List l = L(list_lit);
    auto nfa = MultiNfa::CompileSearch({body});
    EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
    if (!nfa.ok()) return false;
    AlphabetScratch scratch;
    const bool found = (nfa->MatchAll(store_, l, &scratch) & 1) != 0;
    auto dfa = LazyMultiDfa::Make(&*nfa);
    EXPECT_TRUE(dfa.ok()) << dfa.status().ToString();
    if (dfa.ok()) {
      EXPECT_EQ((dfa->MatchAll(store_, l, &scratch) & 1) != 0, found)
          << pattern << " over " << list_lit;
    }
    EXPECT_EQ(BacktrackerExists(body, l), found)
        << pattern << " over " << list_lit;
    return found;
  }

  /// The whole-list question (`^p$`), answered by the backtracker. The
  /// automaton only prefilters it, so a whole match must also set the
  /// existence bit: checked here, with `MatchesWhole` against the anchored
  /// search.
  bool Whole(const std::string& list_lit, const std::string& pattern) {
    ListPatternRef body = LP(pattern).body;
    List l = L(list_lit);
    ListMatcher matcher(store_, l);
    auto whole = matcher.MatchesWhole(body);
    EXPECT_TRUE(whole.ok()) << whole.status().ToString();
    if (!whole.ok()) return false;
    ListMatchOptions opts;
    opts.max_matches = 1;
    auto anchored =
        matcher.FindAll(AnchoredListPattern{body, true, true}, opts);
    EXPECT_TRUE(anchored.ok()) << anchored.status().ToString();
    if (anchored.ok()) {
      EXPECT_EQ(!anchored->empty(), *whole) << pattern << " over " << list_lit;
    }
    if (*whole) {
      EXPECT_TRUE(Exists(list_lit, pattern))
          << "prefilter drops a whole match: " << pattern << " over "
          << list_lit;
    }
    return *whole;
  }
};

// The single-pattern automaton: the N=1 case every list prefilter runs on.
class NfaTest : public MultiNfaTest {};

TEST_F(NfaTest, ExistsMatchBothModes) {
  // Both simulation modes: `Exists` answers by NFA simulation and checks
  // the lazy DFA (and the backtracker) against it.
  EXPECT_TRUE(Exists("[x a b y]", "a b"));
  EXPECT_FALSE(Exists("[x a y]", "a b"));
  EXPECT_TRUE(Exists("[x]", "a*"));  // empty match
  EXPECT_TRUE(Exists("[a]", "a"));
}

TEST_F(NfaTest, WholeMatchBasics) {
  EXPECT_TRUE(Whole("[a b c]", "a b c"));
  EXPECT_FALSE(Whole("[a b c]", "a b"));
  EXPECT_TRUE(Exists("[a b c]", "a b"));  // a match, but not of the whole
  EXPECT_FALSE(Whole("[a b]", "a b c"));
  EXPECT_FALSE(Exists("[a b]", "a b c"));
  EXPECT_TRUE(Whole("[]", "[[a]]*"));
  EXPECT_FALSE(Whole("[]", "a"));
  EXPECT_FALSE(Exists("[]", "a"));
}

TEST_F(NfaTest, ClosuresAndAlternation) {
  EXPECT_TRUE(Exists("[a a a]", "a+"));
  EXPECT_FALSE(Exists("[b c]", "a+"));
  EXPECT_TRUE(Exists("[c a b a b c]", "[[a b]]+ c"));
  EXPECT_FALSE(Exists("[a b a c]", "[[a b]]+ c"));
  EXPECT_TRUE(Exists("[c]", "a | b | c"));
  EXPECT_FALSE(Exists("[d]", "a | b | c"));
  EXPECT_TRUE(Exists("[a x x b]", "a ?* b"));
  EXPECT_FALSE(Exists("[b x x a]", "a ?* b"));
}

TEST_F(NfaTest, PruneIsTransparentToTheLanguage) {
  EXPECT_TRUE(Exists("[a b c]", "a !? c"));
  EXPECT_TRUE(Exists("[a b c]", "!a ? c"));
  EXPECT_FALSE(Exists("[a c]", "a !? c"));
}

TEST_F(NfaTest, PointsEpsilonOrConsume) {
  EXPECT_TRUE(Exists("[a @x b]", "a @x b"));
  EXPECT_TRUE(Exists("[a b]", "a @x b"));
  EXPECT_FALSE(Exists("[a @y b]", "a @x b"));
  // Predicates and ? do not see instance points.
  EXPECT_FALSE(Exists("[a @x b]", "a ? b"));
}

TEST_F(NfaTest, SearchLoopSkipsConcatenationPoints) {
  // A match may begin after an instance point: the search loop consumes
  // points as well as cells, as the backtracker tries every begin.
  EXPECT_TRUE(Exists("[a @x b]", "b"));
  EXPECT_TRUE(Exists("[@x @y b c]", "b c"));
  EXPECT_TRUE(Exists("[@x a]", "a"));
  EXPECT_FALSE(Exists("[@x a]", "b"));
}

TEST_F(NfaTest, AgreesWithBacktrackingMatcher) {
  // Cross-check the two list-matching engines over a pattern battery.
  const char* kPatterns[] = {"a b",   "a ?* c", "[[a | b]]+", "a+ b*",
                             "?* c ?*", "[[a b]]* c"};
  const char* kLists[] = {"[a b c]", "[c b a]", "[a a b b c c]",
                          "[a b a b c]", "[]", "[c]"};
  for (const char* pat : kPatterns) {
    for (const char* lst : kLists) Exists(lst, pat);
  }
}

TEST_F(NfaTest, CompileRejectsTreeAtomsAndNull) {
  auto bad = ListPattern::TreeAtom(TreePattern::AnyLeaf());
  EXPECT_TRUE(MultiNfa::CompileSearch({bad}).status().IsInvalidArgument());
  EXPECT_TRUE(
      MultiNfa::CompileSearch({nullptr}).status().IsInvalidArgument());
}

TEST_F(NfaTest, StateCountIsLinearInPattern) {
  ASSERT_OK_AND_ASSIGN(MultiNfa small,
                       MultiNfa::CompileSearch({LP("a b").body}));
  ASSERT_OK_AND_ASSIGN(MultiNfa big,
                       MultiNfa::CompileSearch({LP("a b c d e f g h").body}));
  EXPECT_LT(small.num_states(), big.num_states());
  EXPECT_LT(big.num_states(), 64u);
}

// The lazy DFA over the single-pattern automaton.
class DfaTest : public MultiNfaTest {};

TEST_F(DfaTest, AgreesWithNfaOnWholeMatch) {
  // The whole-match battery: the DFA agrees with the NFA on every list, and
  // `Whole` checks that neither drops a list the pattern matches whole.
  const char* kPatterns[] = {"a b c", "a ?* c", "[[a | b]]+", "a* b* c*",
                             "a @x b"};
  const char* kLists[] = {"[a b c]", "[a c]",  "[b b b]", "[a @x b]",
                          "[a b]",   "[c]",    "[]"};
  for (const char* pat : kPatterns) {
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch({LP(pat).body}));
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    AlphabetScratch scratch;
    for (const char* lst : kLists) {
      List l = L(lst);
      EXPECT_EQ(dfa.MatchAll(store_, l, &scratch),
                nfa.MatchAll(store_, l, &scratch))
          << pat << " over " << lst;
      Whole(lst, pat);
    }
  }
}

TEST_F(DfaTest, AgreesWithNfaOnExistsSearchMode) {
  const char* kPatterns[] = {"a b", "a ?* c", "b+"};
  const char* kLists[] = {"[x a b y]", "[a x c]", "[x y z]", "[b]", "[]"};
  for (const char* pat : kPatterns) {
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch({LP(pat).body}));
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    AlphabetScratch scratch;
    for (const char* lst : kLists) {
      List l = L(lst);
      EXPECT_EQ(dfa.MatchAll(store_, l, &scratch),
                nfa.MatchAll(store_, l, &scratch))
          << pat << " over " << lst;
    }
  }
}

TEST_F(DfaTest, TransitionsAreCachedAcrossCalls) {
  ASSERT_OK_AND_ASSIGN(MultiNfa nfa,
                       MultiNfa::CompileSearch({LP("a ? f").body}));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
  AlphabetScratch scratch;
  List l = L("[a b f a c f]");
  ASSERT_EQ(dfa.MatchAll(store_, l, &scratch), 1u);
  size_t after_first = dfa.num_transitions();
  EXPECT_GT(after_first, 0u);
  // The same input signature set re-uses cached transitions.
  ASSERT_EQ(dfa.MatchAll(store_, l, &scratch), 1u);
  EXPECT_EQ(dfa.num_transitions(), after_first);
}

TEST_F(DfaTest, RejectsNullAndTooManyPredicates) {
  EXPECT_TRUE(LazyMultiDfa::Make(nullptr).status().IsInvalidArgument());

  // 59 distinct predicates exceed the 58-bit signature budget.
  std::vector<ListPatternRef> parts;
  for (int i = 0; i < 59; ++i) {
    parts.push_back(ListPattern::Pred(
        Predicate::AttrEquals("name", Value::String("x" + std::to_string(i)))));
  }
  ASSERT_OK_AND_ASSIGN(MultiNfa nfa,
                       MultiNfa::CompileSearch({ListPattern::Concat(parts)}));
  EXPECT_TRUE(LazyMultiDfa::Make(&nfa).status().IsInvalidArgument());
}

TEST_F(MultiNfaTest, GoldenAcceptMasksOnOverlappingPatterns) {
  // Three patterns sharing a prefix: the per-list result masks are exactly
  // the per-pattern existence answers, bit j = pattern j.
  std::vector<std::string> pats = {"a b", "a b c", "a"};
  std::vector<ListPatternRef> bodies = Bodies(pats);
  ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
  EXPECT_EQ(multi.num_patterns(), 3u);
  EXPECT_EQ(multi.full_mask(), 0b111u);
  AlphabetScratch scratch;
  EXPECT_EQ(multi.MatchAll(store_, L("[a b c]"), &scratch), 0b111u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a b]"), &scratch), 0b101u);
  EXPECT_EQ(multi.MatchAll(store_, L("[a]"), &scratch), 0b100u);
  EXPECT_EQ(multi.MatchAll(store_, L("[x a b y]"), &scratch), 0b101u);
  EXPECT_EQ(multi.MatchAll(store_, L("[x]"), &scratch), 0u);
  EXPECT_EQ(multi.MatchAll(store_, L("[]"), &scratch), 0u);
}

TEST_F(MultiNfaTest, TrieMergesCommonPrefixes) {
  // "a b" + "a b c" + "a d": the second pattern rides the first's two
  // states, the third rides one — three shared-state hits total — and the
  // shared alphabet interns `a` once across all three patterns.
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "a b c",
                                                       "a d"})));
  EXPECT_EQ(multi.trie_shared_states(), 3u);
  EXPECT_EQ(multi.alphabet().size(), 4u);  // a, b, c, d

  // No sharing when every pattern starts differently.
  ASSERT_OK_AND_ASSIGN(MultiNfa disjoint,
                       MultiNfa::CompileSearch(Bodies({"a", "b", "c"})));
  EXPECT_EQ(disjoint.trie_shared_states(), 0u);

  // The merged automaton is smaller than the sum of the parts.
  size_t solo_states = 0;
  for (const auto& body : Bodies({"a b", "a b c", "a d"})) {
    ASSERT_OK_AND_ASSIGN(MultiNfa solo, MultiNfa::CompileSearch({body}));
    solo_states += solo.num_states();
  }
  EXPECT_LT(multi.num_states(), solo_states);
}

TEST_F(MultiNfaTest, IdenticalPatternsShareEverything) {
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "a b"})));
  EXPECT_EQ(multi.alphabet().size(), 2u);
  AlphabetScratch scratch;
  // Both bits always agree.
  EXPECT_EQ(multi.MatchAll(store_, L("[a b]"), &scratch), 0b11u);
  EXPECT_EQ(multi.MatchAll(store_, L("[b a]"), &scratch), 0u);
}

TEST_F(MultiNfaTest, PointsAndClosuresMatchSequential) {
  // The merged scan's mask equals one backtracking search per pattern.
  std::vector<std::string> pats = {"a @x b", "a ?* c", "[[a | b]]+", "a+ b*",
                                   "@x", "?* c"};
  for (const char* lst :
       {"[a b c]", "[a @x b]", "[a @y b]", "[c]", "[]", "[@x]",
        "[a a b b c]", "[x y z]"}) {
    CheckAgainstBacktracker(pats, lst);
  }
}

TEST_F(MultiNfaTest, RandomizedAgreementWithIndependentScans) {
  // Random pattern groups over random lists: the merged automaton's mask
  // must be bit-for-bit the N independent backtracking existence searches,
  // for both the NFA simulation and the lazy DFA.
  const std::vector<std::string> kPatternPool = {
      "a",        "a b",      "a b c", "b c",      "a ?* c", "[[a | b]] c",
      "a+",       "b* c",     "?* c",  "a @x b",   "c | d",  "[[a b]]+",
      "!a b",     "a !? c",   "d",     "a [[b | c]]"};
  const std::vector<std::string> kAtoms = {"a", "b", "c", "d", "@x", "@y"};
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> pats;
    size_t n_pats = 2 + rng() % 8;
    for (size_t j = 0; j < n_pats; ++j) {
      pats.push_back(kPatternPool[rng() % kPatternPool.size()]);
    }
    std::string lst = "[";
    size_t len = rng() % 12;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) lst += ' ';
      lst += kAtoms[rng() % kAtoms.size()];
    }
    lst += ']';
    CheckAgainstBacktracker(pats, lst);
  }
}

TEST_F(MultiNfaTest, LazyDfaCachesTransitions) {
  ASSERT_OK_AND_ASSIGN(MultiNfa multi,
                       MultiNfa::CompileSearch(Bodies({"a b", "b c"})));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&multi));
  AlphabetScratch scratch;
  List l = L("[a b c a b c a b c]");
  uint64_t first = dfa.MatchAll(store_, l, &scratch);
  uint64_t misses_after_first = dfa.cache_misses();
  uint64_t second = dfa.MatchAll(store_, l, &scratch);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, 0b11u);
  // The second scan replays cached transitions only.
  EXPECT_EQ(dfa.cache_misses(), misses_after_first);
  EXPECT_GT(dfa.cache_hits(), 0u);
}

TEST_F(MultiNfaTest, CompileRejectsBadGroups) {
  EXPECT_TRUE(MultiNfa::CompileSearch({}).status().IsInvalidArgument());
  std::vector<ListPatternRef> many(65, LP("a").body);
  EXPECT_TRUE(MultiNfa::CompileSearch(many).status().IsInvalidArgument());
  // Tree atoms are the matcher's job.
  std::vector<ListPatternRef> with_tree = {
      ListPattern::TreeAtom(TreePattern::AnyLeaf())};
  EXPECT_TRUE(
      MultiNfa::CompileSearch(with_tree).status().IsInvalidArgument());
}

TEST_F(MultiNfaTest, LazyDfaRejectsWideAlphabets) {
  // 59 distinct predicates exceed the 58-bit signature budget: the NFA
  // still answers, the DFA refuses.
  std::vector<ListPatternRef> bodies;
  for (int k = 0; k < 59; ++k) {
    bodies.push_back(
        ListPattern::Pred(Predicate::Compare("val", CmpOp::kEq,
                                             Value::Int(k))));
  }
  // 59 patterns of one predicate each (<= 64 patterns, > 58 predicates).
  ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
  EXPECT_EQ(multi.alphabet().size(), 59u);
  EXPECT_TRUE(LazyMultiDfa::Make(&multi).status().IsInvalidArgument());
  AlphabetScratch scratch;
  List l = L("[a]");  // Items carry val; `a` has val null -> no matches
  EXPECT_EQ(multi.MatchAll(store_, l, &scratch), 0u);
}

TEST_F(MultiNfaTest, SixtyFourPatternsFillTheMask) {
  std::vector<ListPatternRef> bodies(64, LP("a").body);
  ASSERT_OK_AND_ASSIGN(MultiNfa multi, MultiNfa::CompileSearch(bodies));
  EXPECT_EQ(multi.full_mask(), ~0ULL);
  AlphabetScratch scratch;
  EXPECT_EQ(multi.MatchAll(store_, L("[a]"), &scratch), ~0ULL);
  EXPECT_EQ(multi.MatchAll(store_, L("[b]"), &scratch), 0u);
}

#ifndef AQUA_OBS_DISABLED
TEST_F(MultiNfaTest, EarlyMatchEvaluatesOnlyTheFirstChunk) {
  // Chunks grow from 16 elements, so a match in the first element of a
  // long list evaluates one 16-row chunk, not a 256-row one; a miss still
  // scans the whole list. Both paths count the same steps and rows.
  std::string lst = "[a";
  for (int i = 1; i < 1000; ++i) lst += " b";
  lst += "]";
  List l = L(lst);
  ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch({LP("a").body}));
  ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
  AlphabetScratch scratch;
  obs::Registry& reg = obs::Registry::Global();

  obs::Snapshot before = reg.Snap();
  EXPECT_EQ(nfa.MatchAll(store_, l, &scratch), 1u);
  obs::Snapshot delta = reg.Snap().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("exec.batch_scan_rows"), 16u);
  EXPECT_EQ(delta.CounterValue("pattern.nfa_steps"), 1u);

  before = reg.Snap();
  EXPECT_EQ(dfa.MatchAll(store_, l, &scratch), 1u);
  delta = reg.Snap().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("exec.batch_scan_rows"), 16u);
  EXPECT_EQ(delta.CounterValue("pattern.dfa_hits") +
                delta.CounterValue("pattern.dfa_misses"),
            1u);
  EXPECT_EQ(delta.CounterValue("pattern.nfa_steps"),
            delta.CounterValue("pattern.dfa_misses"));

  ASSERT_OK_AND_ASSIGN(MultiNfa miss, MultiNfa::CompileSearch({LP("c").body}));
  before = reg.Snap();
  EXPECT_EQ(miss.MatchAll(store_, l, &scratch), 0u);
  delta = reg.Snap().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("exec.batch_scan_rows"), 1000u);
  EXPECT_EQ(delta.CounterValue("pattern.nfa_steps"), 1000u);
}
#endif  // AQUA_OBS_DISABLED

}  // namespace
}  // namespace aqua
