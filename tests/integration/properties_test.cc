// Property-based tests over randomized workloads:
//  * split pieces always reassemble to the original tree/list;
//  * derived operators agree with their split-based definitions;
//  * the list search automaton (NFA and lazy DFA, single and merged) agrees
//    with the backtracking matcher, and batched execution with single;
//  * a matcher reading the automaton's signature column agrees with one
//    evaluating predicates against the store;
//  * select is order-stable (matched nodes keep their preorder order);
//  * list operators agree with tree operators through the §6 mapping;
//  * hash-indexed set dedup agrees with a linear deep-equality scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "test_util.h"

namespace aqua {
namespace {

/// A seeded generator of random list patterns over a tiny label alphabet —
/// the fuzz driver for cross-engine agreement.
ListPatternRef RandomListPattern(std::mt19937_64& rng, int depth) {
  auto atom = [&]() -> ListPatternRef {
    switch (rng() % 3) {
      case 0:
        return ListPattern::Any();
      case 1:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("a")));
      default:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("b")));
    }
  };
  if (depth <= 0) return atom();
  switch (rng() % 6) {
    case 0: {
      std::vector<ListPatternRef> parts;
      size_t n = 2 + rng() % 2;
      for (size_t i = 0; i < n; ++i) {
        parts.push_back(RandomListPattern(rng, depth - 1));
      }
      return ListPattern::Concat(std::move(parts));
    }
    case 1:
      return ListPattern::Alt({RandomListPattern(rng, depth - 1),
                               RandomListPattern(rng, depth - 1)});
    case 2:
      return ListPattern::Star(RandomListPattern(rng, depth - 1));
    case 3:
      return ListPattern::Plus(RandomListPattern(rng, depth - 1));
    case 4:
      return ListPattern::Prune(RandomListPattern(rng, depth - 1));
    default:
      return atom();
  }
}

/// A seeded generator of random tree patterns (leaves, nodes with child
/// sequences, disjunctions, prunes).
TreePatternRef RandomTreePattern(std::mt19937_64& rng, int depth) {
  auto pred = [&]() -> PredicateRef {
    switch (rng() % 3) {
      case 0:
        return nullptr;  // ?
      case 1:
        return Predicate::AttrEquals("name", Value::String("a"));
      default:
        return Predicate::AttrEquals("name", Value::String("b"));
    }
  };
  if (depth <= 0) return TreePattern::Leaf(pred());
  switch (rng() % 4) {
    case 0: {
      // A node with a small child sequence padded by ?*.
      std::vector<ListPatternRef> seq;
      seq.push_back(ListPattern::AnyStar());
      seq.push_back(
          ListPattern::TreeAtom(RandomTreePattern(rng, depth - 1)));
      if (rng() % 2 == 0) {
        seq.push_back(
            ListPattern::TreeAtom(RandomTreePattern(rng, depth - 1)));
      }
      seq.push_back(ListPattern::AnyStar());
      return TreePattern::Node(pred(), ListPattern::Concat(std::move(seq)));
    }
    case 1:
      return TreePattern::Alt({RandomTreePattern(rng, depth - 1),
                               RandomTreePattern(rng, depth - 1)});
    case 2:
      return TreePattern::Prune(RandomTreePattern(rng, depth - 1));
    default:
      return TreePattern::Leaf(pred());
  }
}

class PropertiesTest : public testing::AquaTestBase,
                       public ::testing::WithParamInterface<uint64_t> {
 protected:
  /// A random datum over a tiny alphabet, so equal datums recur: trees and
  /// lists over `a`/`b` and two concat-point labels, int/double scalars
  /// that coerce to equal, and tuples and sets of those (sets built in a
  /// random order).
  Datum RandomDatum(std::mt19937_64& rng, int depth) {
    switch (rng() % (depth > 0 ? 6 : 3)) {
      case 0: {
        const double kNums[] = {0.0, -0.0, 1.0, 1.5};
        if (rng() % 2 == 0) return Datum::Scalar(Value::Int(rng() % 2));
        return Datum::Scalar(Value::Double(kNums[rng() % 4]));
      }
      case 1:
        return Datum::Of(T(RandomTreeLiteral(rng, 2)));
      case 2: {
        std::string lit = "[";
        for (size_t i = rng() % 3; i > 0; --i) lit += RandomAtom(rng) + " ";
        return Datum::Of(L(lit + "]"));
      }
      case 3:
        return Datum::Tuple(
            {RandomDatum(rng, depth - 1), RandomDatum(rng, depth - 1)});
      default: {
        std::vector<Datum> elems;
        for (size_t i = rng() % 4; i > 0; --i) {
          elems.push_back(RandomDatum(rng, depth - 1));
        }
        std::shuffle(elems.begin(), elems.end(), rng);
        return Datum::Set(std::move(elems));
      }
    }
  }

  static std::string RandomAtom(std::mt19937_64& rng) {
    const char* kAtoms[] = {"a", "b", "a", "b", "@x", "@y"};
    return kAtoms[rng() % 6];
  }

  static std::string RandomTreeLiteral(std::mt19937_64& rng, int depth) {
    std::string atom = RandomAtom(rng);
    if (atom[0] == '@' || depth == 0) return atom;
    size_t kids = rng() % 3;
    if (kids == 0) return atom;
    atom += "(";
    for (size_t i = 0; i < kids; ++i) {
      atom += (i > 0 ? " " : "") + RandomTreeLiteral(rng, depth - 1);
    }
    return atom + ")";
  }
};

/// Same datum in the same order all the way down, scalar types included:
/// the dedup winner, not merely an equal element.
bool Identical(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind() || !a.Equals(b)) return false;
  if (a.is_scalar()) return a.scalar().type() == b.scalar().type();
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Identical(a.at(i), b.at(i))) return false;
  }
  return true;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertiesTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(PropertiesTest, SplitReassemblesRandomTrees) {
  RandomTreeSpec spec;
  spec.num_nodes = 120;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));

  const char* kPatterns[] = {"a", "b(?*)", "a(!?* b ?*)", "c(?* !? ?*)",
                             "a(b ?*) | b(a ?*)"};
  for (const char* pat : kPatterns) {
    TreeMatchOptions mopts;
    mopts.max_matches = 20;
    TreeMatcher matcher(store_, t, mopts);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP(pat)));
    for (const TreeMatch& m : matches) {
      ASSERT_OK_AND_ASSIGN(SplitPieces pieces,
                           MakeSplitPieces(t, m, SplitOptions{}));
      EXPECT_OK(pieces.x.Validate());
      EXPECT_OK(pieces.y.Validate());
      Tree reassembled = ReassembleSplit(pieces);
      ASSERT_TRUE(reassembled.StructurallyEquals(t))
          << pat << " seed=" << GetParam();
    }
  }
}

TEST_P(PropertiesTest, ListSplitReassembles) {
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 60, {"a", "b", "c"}, GetParam()));
  const char* kPatterns[] = {"a", "a ? b", "a !?+ c", "[[a | b]]+", "^?* c"};
  for (const char* pat : kPatterns) {
    ListMatcher matcher(store_, l);
    ListMatchOptions mopts;
    mopts.max_matches = 30;
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(LP(pat), mopts));
    for (const ListMatch& m : matches) {
      ListSplitPieces pieces = MakeListSplitPieces(l, m);
      List reassembled = ReassembleListSplit(pieces);
      ASSERT_TRUE(reassembled == l) << pat << " seed=" << GetParam();
    }
  }
}

TEST_P(PropertiesTest, DerivedOperatorsAgreeWithSplitForms) {
  RandomTreeSpec spec;
  spec.num_nodes = 80;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  for (const char* pat : {"a(?* b ?*)", "b", "c(!?*)"}) {
    auto tp = TP(pat);
    ASSERT_OK_AND_ASSIGN(Datum direct, TreeSubSelect(store_, t, tp));
    ASSERT_OK_AND_ASSIGN(Datum derived, TreeSubSelectViaSplit(store_, t, tp));
    EXPECT_TRUE(direct.Equals(derived)) << pat << " seed=" << GetParam();
  }
}

TEST_P(PropertiesTest, IndexedSubSelectAgreesWithNaive) {
  RandomTreeSpec spec;
  spec.num_nodes = 150;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  ASSERT_OK_AND_ASSIGN(AttributeIndex index,
                       AttributeIndex::BuildForTree(store_, t, "name"));
  for (const char* pat : {"a(?* b ?*)", "b(? ?)", "c"}) {
    auto tp = TP(pat);
    ASSERT_OK_AND_ASSIGN(Datum naive, TreeSubSelect(store_, t, tp));
    ASSERT_OK_AND_ASSIGN(Datum indexed,
                         TreeSubSelectIndexed(store_, t, tp, index));
    EXPECT_TRUE(naive.Equals(indexed)) << pat << " seed=" << GetParam();
  }
}

/// Unanchored existence by the backtracking matcher: the question the list
/// search automaton answers. Errors (a blown step budget) pass through.
Result<bool> BacktrackerExists(const StoreView& store, const List& l,
                               const ListPatternRef& body,
                               size_t max_steps = 0) {
  ListMatcher matcher(store, l);
  ListMatchOptions opts;
  opts.max_matches = 1;
  opts.max_steps = max_steps;
  AQUA_ASSIGN_OR_RETURN(auto matches,
                        matcher.FindAll(AnchoredListPattern{body}, opts));
  return !matches.empty();
}

/// Bit 0 of the single-pattern search automaton, by NFA simulation and by
/// lazy DFA (which must agree).
bool AutomatonExists(const StoreView& store, const List& l,
                     const ListPatternRef& body) {
  auto nfa = MultiNfa::CompileSearch({body});
  EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
  if (!nfa.ok()) return false;
  AlphabetScratch scratch;
  const bool found = (nfa->MatchAll(store, l, &scratch) & 1) != 0;
  auto dfa = LazyMultiDfa::Make(&*nfa);
  EXPECT_TRUE(dfa.ok()) << dfa.status().ToString();
  if (dfa.ok()) {
    EXPECT_EQ((dfa->MatchAll(store, l, &scratch) & 1) != 0, found)
        << body->ToString();
  }
  return found;
}

TEST_P(PropertiesTest, NfaAgreesWithBacktrackerOnRandomLists) {
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 40, {"a", "b"}, GetParam()));
  const char* kPatterns[] = {"a b",       "a* b a*", "[[a | b b]]+",
                             "a ?* b ?*", "b+ a+",   "[[a b]]*",
                             "a a a a",   "b b b b b b"};
  for (const char* pat : kPatterns) {
    auto body = LP(pat).body;
    ASSERT_OK_AND_ASSIGN(bool expected, BacktrackerExists(store_, l, body));
    EXPECT_EQ(AutomatonExists(store_, l, body), expected) << pat;
  }
}

TEST_P(PropertiesTest, SelectIsOrderAndAncestryStable) {
  RandomTreeSpec spec;
  spec.num_nodes = 100;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  auto pred = P("name == \"a\" || name == \"b\"");
  ASSERT_OK_AND_ASSIGN(auto forest, TreeSelect(store_, t, pred));

  // Flatten the forest's node names in preorder; they must equal the
  // satisfying nodes of the input in input preorder (stability).
  std::vector<std::string> result_names;
  for (const Tree& piece : forest) {
    EXPECT_OK(piece.Validate());
    for (NodeId v : piece.Preorder()) {
      result_names.push_back(label_(piece.payload(v).oid()));
    }
  }
  std::vector<std::string> expected;
  for (NodeId v : t.Preorder()) {
    if (pred->Eval(store_, t.payload(v).oid())) {
      expected.push_back(label_(t.payload(v).oid()));
    }
  }
  // Preorder of contracted pieces preserves relative order of kept nodes.
  EXPECT_EQ(result_names, expected);
  // Every kept node satisfies the predicate.
  for (const auto& name : result_names) {
    EXPECT_TRUE(name == "a" || name == "b");
  }
}

TEST_P(PropertiesTest, ListOpsAgreeWithTreeOpsThroughTheMapping) {
  // §6: select/apply on a list equal select/apply on its list-like tree.
  ASSERT_OK_AND_ASSIGN(
      List l, MakeRandomList(store_, 30, {"a", "b", "c"}, GetParam()));
  ASSERT_OK_AND_ASSIGN(Tree chain, ListToTree(l));
  auto pred = P("name == \"a\"");

  ASSERT_OK_AND_ASSIGN(List list_selected, ListSelect(store_, l, pred));
  ASSERT_OK_AND_ASSIGN(auto tree_forest, TreeSelect(store_, chain, pred));
  // The tree select of a chain yields one chain (or none) whose node
  // sequence equals the filtered list.
  List from_tree;
  if (!tree_forest.empty()) {
    ASSERT_EQ(tree_forest.size(), 1u);
    ASSERT_OK_AND_ASSIGN(from_tree, TreeToList(tree_forest[0]));
  }
  EXPECT_TRUE(from_tree == list_selected)
      << Str(from_tree) << " vs " << Str(list_selected);

  auto mapper = [this](ObjectStore& store, Oid oid) -> Result<Oid> {
    AQUA_ASSIGN_OR_RETURN(Value name, store.GetAttr(oid, "name"));
    return store.Create("Item",
                        {{"name", Value::String(name.string_value() + "x")},
                         {"val", Value::Int(0)}});
  };
  ASSERT_OK_AND_ASSIGN(List list_mapped, ListApply(store_, l, mapper));
  ASSERT_OK_AND_ASSIGN(Tree tree_mapped, TreeApply(store_, chain, mapper));
  ASSERT_OK_AND_ASSIGN(List tree_mapped_list, TreeToList(tree_mapped));
  // Oids differ (apply creates fresh objects) but names must align.
  ASSERT_EQ(tree_mapped_list.size(), list_mapped.size());
  EXPECT_EQ(Str(tree_mapped_list), Str(list_mapped));
}

TEST_P(PropertiesTest, FuzzedListPatternsAgreeAcrossEngines) {
  std::mt19937_64 rng(GetParam() * 7919);
  ASSERT_OK_AND_ASSIGN(List l,
                       MakeRandomList(store_, 18, {"a", "b"}, GetParam()));
  ListMatchOptions budgeted;
  budgeted.max_matches = 1;
  budgeted.max_steps = 100000;  // skip patterns whose backtracking explodes
  size_t compared = 0;
  for (int round = 0; round < 30; ++round) {
    ListPatternRef body = RandomListPattern(rng, 3);
    AnchoredListPattern anchored{body, true, true};
    ListMatcher matcher(store_, l);
    auto matches = matcher.FindAll(anchored, budgeted);
    if (!matches.ok()) continue;  // budget blown: exponential shape
    bool expected = !matches->empty();
    ++compared;
    // The search automaton answers the unanchored question.
    auto exists = BacktrackerExists(store_, l, body, budgeted.max_steps);
    if (exists.ok()) {
      EXPECT_EQ(AutomatonExists(store_, l, body), *exists)
          << body->ToString() << " seed=" << GetParam();
    }
    // Simplification preserves the language.
    AnchoredListPattern simplified{SimplifyListPattern(body), true, true};
    ListMatcher matcher2(store_, l);
    auto simplified_matches = matcher2.FindAll(simplified, budgeted);
    if (simplified_matches.ok()) {
      EXPECT_EQ(!simplified_matches->empty(), expected)
          << body->ToString() << " simplified to "
          << simplified.body->ToString();
    }
  }
  EXPECT_GT(compared, 5u);  // the budget must not skip everything
}

TEST_P(PropertiesTest, FuzzedTreePatternsSatisfyMatchInvariants) {
  std::mt19937_64 rng(GetParam() * 104729);
  RandomTreeSpec spec;
  spec.num_nodes = 40;
  spec.labels = {"a", "b"};
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  for (int round = 0; round < 15; ++round) {
    TreePatternRef tp = RandomTreePattern(rng, 2);
    TreeMatchOptions opts;
    opts.max_matches = 25;
    TreeMatcher matcher(store_, t, opts);
    ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(tp));
    for (const TreeMatch& m : matches) {
      // Matched nodes and cuts are valid, disjoint node sets.
      ASSERT_LT(m.root, t.size());
      for (NodeId v : m.matched) ASSERT_LT(v, t.size());
      for (const TreeCut& cut : m.cuts) {
        ASSERT_LT(cut.node, t.size());
        for (NodeId v : m.matched) {
          EXPECT_NE(v, cut.node) << tp->ToString();
        }
      }
      // Pieces reassemble to the original tree.
      ASSERT_OK_AND_ASSIGN(SplitPieces pieces,
                           MakeSplitPieces(t, m, SplitOptions{}));
      ASSERT_TRUE(ReassembleSplit(pieces).StructurallyEquals(t))
          << tp->ToString() << " seed=" << GetParam();
    }
    // Boolean and enumeration views agree on existence.
    TreeMatcher bool_matcher(store_, t);
    ASSERT_OK_AND_ASSIGN(bool anywhere, bool_matcher.MatchesAnywhere(tp));
    EXPECT_EQ(anywhere, !matches.empty()) << tp->ToString();
  }
}

TEST_P(PropertiesTest, MatchPiecesContainOnlyMatchedPayloads) {
  RandomTreeSpec spec;
  spec.num_nodes = 90;
  spec.seed = GetParam();
  ASSERT_OK_AND_ASSIGN(Tree t, MakeRandomTree(store_, spec));
  TreeMatchOptions mopts;
  mopts.max_matches = 10;
  TreeMatcher matcher(store_, t, mopts);
  ASSERT_OK_AND_ASSIGN(auto matches, matcher.FindAll(TP("a(?* b ?*)")));
  for (const TreeMatch& m : matches) {
    ASSERT_OK_AND_ASSIGN(Tree y, MakeMatchPiece(t, m, SplitOptions{}));
    // y's root carries the same object as the match root.
    EXPECT_EQ(y.payload(y.root()).oid(), t.payload(m.root).oid());
    // The number of cells in y equals the number of matched nodes.
    size_t cells = 0;
    for (NodeId v : y.Preorder()) {
      if (y.payload(v).is_cell()) ++cells;
    }
    EXPECT_EQ(cells, m.matched.size());
    // Points in y correspond 1:1 to cuts, labelled a1..an in order.
    auto labels = y.PointLabels();
    ASSERT_EQ(labels.size(), m.cuts.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(labels[i], "a" + std::to_string(i + 1));
    }
  }
}

/// A random list literal over cells `a`, `b` and the concatenation point
/// `@x` (points exercise the search loop's skip over non-cells).
std::string RandomListLiteral(std::mt19937_64& rng, size_t max_len) {
  static const char* kAtoms[] = {"a", "b", "a", "b", "@x"};
  std::string lit = "[";
  const size_t len = rng() % (max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    if (i > 0) lit += ' ';
    lit += kAtoms[rng() % 5];
  }
  return lit + "]";
}

/// A random list pattern for the signature-column route: the operators of
/// `RandomListPattern` plus pattern points `@x` and a negated predicate.
ListPatternRef RandomColumnPattern(std::mt19937_64& rng, int depth) {
  if (depth <= 0 || rng() % 6 == 0) {
    switch (rng() % 5) {
      case 0:
        return ListPattern::Any();
      case 1:
        return ListPattern::Point("x");
      case 2:
        return ListPattern::Pred(Predicate::Not(
            Predicate::AttrEquals("name", Value::String("a"))));
      case 3:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("a")));
      default:
        return ListPattern::Pred(
            Predicate::AttrEquals("name", Value::String("b")));
    }
  }
  switch (rng() % 5) {
    case 0: {
      std::vector<ListPatternRef> parts;
      for (size_t i = 2 + rng() % 2; i > 0; --i) {
        parts.push_back(RandomColumnPattern(rng, depth - 1));
      }
      return ListPattern::Concat(std::move(parts));
    }
    case 1:
      return ListPattern::Alt({RandomColumnPattern(rng, depth - 1),
                               RandomColumnPattern(rng, depth - 1)});
    case 2:
      return ListPattern::Star(RandomColumnPattern(rng, depth - 1));
    case 3:
      return ListPattern::Plus(RandomColumnPattern(rng, depth - 1));
    default:
      return ListPattern::Prune(RandomColumnPattern(rng, depth - 1));
  }
}

/// A pattern over more than 64 distinct predicates: an alternation of 70
/// absent names and `a`, then a random tail. Merged first into a batch, it
/// pushes every later pattern's slots into the second signature word.
ListPatternRef WideListPattern(std::mt19937_64& rng) {
  std::vector<ListPatternRef> alts;
  for (int k = 0; k < 70; ++k) {
    std::string absent = "w";
    absent += std::to_string(k);
    alts.push_back(ListPattern::Pred(
        Predicate::AttrEquals("name", Value::String(std::move(absent)))));
  }
  alts.push_back(
      ListPattern::Pred(Predicate::AttrEquals("name", Value::String("a"))));
  return ListPattern::Concat(
      {ListPattern::Alt(std::move(alts)), RandomColumnPattern(rng, 2)});
}

/// The signature-column route: a matcher reading the merged scan's column
/// (one bit test per probe, begins filtered by the begin set) returns the
/// `Eval` route's matches in the same order without evaluating a
/// predicate, and the interpreter, per-plan `Execute` and `ExecuteBatch`
/// at 1 and 4 threads give the same answers byte for byte. Unbudgeted, so
/// the begin filter is on; bodies whose `Eval` enumeration exceeds the
/// budget are left out. Odd rounds merge a pattern of more than 64
/// predicates first: two signature words, and no DFA.
void CheckColumnRoute(Database& db, const AtomFn& atom, std::mt19937_64& rng,
                      size_t budget, uint64_t seed) {
  LabelFn label = AttrLabelFn(&db.store(), "name");
  auto render = [&](const Result<Datum>& r) {
    return r.ok() ? r->ToString(label) : r.status().ToString();
  };
  auto lp_of = [](const std::string& text) {
    auto lp = ParseListPattern(text);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    return lp.ok() ? *lp : AnchoredListPattern{};
  };
  size_t column_compared = 0;
  for (int round = 0; round < 12; ++round) {
    const bool wide = round % 2 == 1;
    std::string name = "c";
    name += std::to_string(round);
    const std::string lit = RandomListLiteral(rng, 24);
    ASSERT_OK_AND_ASSIGN(List l, ParseListLiteral(lit, atom));
    ASSERT_OK(db.RegisterList(name, l));

    std::vector<AnchoredListPattern> lps;
    const size_t n = 1 + rng() % 6;
    for (size_t j = 0; j < n; ++j) {
      ListPatternRef body = wide && j == 0 ? WideListPattern(rng)
                                           : RandomColumnPattern(rng, 3);
      if (rng() % 4 == 0) {
        body = ListPattern::Concat({ListPattern::Any(), body});
      }
      AnchoredListPattern lp{body, rng() % 4 == 0, rng() % 4 == 0};
      ListMatchOptions bounded;
      bounded.max_steps = budget;
      if (!ListMatcher(db.store(), l).FindAll(lp, bounded).ok()) continue;
      lps.push_back(lp);
    }
    if (lps.empty()) continue;
    std::vector<ListPatternRef> bodies;
    for (const AnchoredListPattern& lp : lps) bodies.push_back(lp.body);
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch(bodies));
    if (wide) {
      EXPECT_GT(nfa.alphabet().sig_stride(), 1u);
      EXPECT_FALSE(LazyMultiDfa::Make(&nfa).ok());
    }
    AlphabetScratch scratch;
    std::vector<uint64_t> column;
    const uint64_t mask = nfa.MatchAll(db.store(), l, &scratch, &column);
    ASSERT_EQ(column.size(), l.size() * nfa.alphabet().sig_stride());

    for (size_t j = 0; j < lps.size(); ++j) {
      const ListPatternSlots slots =
          ListPatternSlots::Resolve(*lps[j].body, nfa.alphabet());
      ListMatcher by_eval(db.store(), l);
      ListMatcher by_column(db.store(), l, column.data(), &slots);
      ASSERT_OK_AND_ASSIGN(std::vector<ListMatch> want,
                           by_eval.FindAll(lps[j]));
      ASSERT_OK_AND_ASSIGN(std::vector<ListMatch> got,
                           by_column.FindAll(lps[j]));
      const std::string where = lps[j].ToString() + " over " + lit +
                                " seed=" + std::to_string(seed);
      EXPECT_TRUE(got == want) << where;
      EXPECT_EQ(by_column.pred_evals(), 0u) << where;
      EXPECT_LE(by_column.steps(), by_eval.steps()) << where;
      if (((mask >> j) & 1) == 0) {
        EXPECT_TRUE(want.empty()) << where;
      }
      EXPECT_EQ(render(ListSubSelect(db.store(), l, lps[j])),
                render(ListSubSelectPrefiltered(db.store(), l, lps[j], {},
                                                ListPrefilter{})))
          << where;
      ++column_compared;
    }

    const PlanRef scan = Q::ScanList(name);
    for (const PlanRef& input :
         {scan, Q::ListSubSelect(scan, lp_of("? ? ? ? ?"))}) {
      std::vector<PlanRef> plans;
      for (const AnchoredListPattern& lp : lps) {
        plans.push_back(Q::ListSubSelect(input, lp));
      }
      Executor single(&db);
      single.set_threads(1);
      std::vector<std::string> want;
      for (size_t j = 0; j < plans.size(); ++j) {
        want.push_back(render(single.Execute(plans[j])));
        if (input == scan) {
          EXPECT_EQ(want.back(),
                    render(ListSubSelectPrefiltered(db.store(), l, lps[j], {},
                                                    ListPrefilter{})))
              << "plan " << j << " seed=" << seed;
        }
      }
      for (size_t threads : {1u, 4u}) {
        Executor batch(&db);
        batch.set_threads(threads);
        std::vector<Result<Datum>> got = batch.ExecuteBatch(plans);
        ASSERT_EQ(got.size(), plans.size());
        for (size_t j = 0; j < plans.size(); ++j) {
          EXPECT_EQ(render(got[j]), want[j])
              << lps[j].ToString() << " at threads=" << threads
              << " seed=" << seed;
        }
      }
    }
  }
  EXPECT_GT(column_compared, 10u);

}

TEST_P(PropertiesTest, MergedListAutomatonAgreesWithBacktrackerAndBatch) {
  // Differential net over the list existence paths: for a batch of 1..8
  // random patterns, every bit of the merged automaton (NFA simulation and
  // lazy DFA) is the backtracker's unanchored existence answer, and
  // `ExecuteBatch` equals per-plan `Execute` at 1 and 4 threads; then the
  // signature-column route against the `Eval` route (`CheckColumnRoute`).
  std::mt19937_64 rng(GetParam() * 6151);
  Database db;
  ASSERT_OK(RegisterItemType(db.store()));
  AtomFn atom = MakeInterningAtomFn(&db.store(), "Item", "name");
  LabelFn label = AttrLabelFn(&db.store(), "name");
  // A result or error, rendered for byte-for-byte comparison.
  auto render = [&](const Result<Datum>& r) {
    return r.ok() ? r->ToString(label) : r.status().ToString();
  };
  constexpr size_t kBudget = 100000;  // skip bits whose backtracking explodes
  size_t compared = 0;
  for (int round = 0; round < 12; ++round) {
    const std::string name = "l" + std::to_string(round);
    const std::string lit = RandomListLiteral(rng, 16);
    ASSERT_OK_AND_ASSIGN(List l, ParseListLiteral(lit, atom));
    ASSERT_OK(db.RegisterList(name, l));

    std::vector<ListPatternRef> bodies;
    const size_t n = 1 + rng() % 8;
    for (size_t j = 0; j < n; ++j) bodies.push_back(RandomListPattern(rng, 3));
    ASSERT_OK_AND_ASSIGN(MultiNfa nfa, MultiNfa::CompileSearch(bodies));
    ASSERT_OK_AND_ASSIGN(LazyMultiDfa dfa, LazyMultiDfa::Make(&nfa));
    AlphabetScratch scratch;
    const uint64_t nfa_mask = nfa.MatchAll(db.store(), l, &scratch);
    const uint64_t dfa_mask = dfa.MatchAll(db.store(), l, &scratch);
    EXPECT_EQ(nfa_mask, dfa_mask) << lit;
    for (size_t j = 0; j < n; ++j) {
      auto exists = BacktrackerExists(db.store(), l, bodies[j], kBudget);
      if (!exists.ok()) continue;
      ++compared;
      EXPECT_EQ(((nfa_mask >> j) & 1) != 0, *exists)
          << bodies[j]->ToString() << " over " << lit
          << " seed=" << GetParam();
    }

    // The same patterns as plans, randomly anchored, over the list itself
    // and over its windows (a set input that fans out across workers).
    ListSplitOptions opts;
    opts.match.max_steps = kBudget;
    const PlanRef scan = Q::ScanList(name);
    for (const PlanRef& input :
         {scan, Q::ListSubSelect(scan, LP("? ?* ?"))}) {
      std::vector<PlanRef> plans;
      for (const ListPatternRef& body : bodies) {
        AnchoredListPattern lp{body, rng() % 4 == 0, rng() % 4 == 0};
        plans.push_back(Q::ListSubSelect(input, lp, opts));
      }
      Executor single(&db);
      single.set_threads(1);
      std::vector<std::string> want;
      for (const PlanRef& plan : plans) {
        want.push_back(render(single.Execute(plan)));
      }
      for (size_t threads : {1u, 4u}) {
        Executor batch(&db);
        batch.set_threads(threads);
        std::vector<Result<Datum>> got = batch.ExecuteBatch(plans);
        ASSERT_EQ(got.size(), plans.size());
        for (size_t j = 0; j < plans.size(); ++j) {
          EXPECT_EQ(render(got[j]), want[j])
              << "plan " << j << " at threads=" << threads
              << " seed=" << GetParam();
        }
      }
    }
  }
  EXPECT_GT(compared, 10u);  // the budget must not skip everything

  CheckColumnRoute(db, atom, rng, kBudget, GetParam());
}

TEST_P(PropertiesTest, HashedSetDedupAgreesWithLinearScan) {
  std::mt19937_64 rng(GetParam() * 1299709);
  std::vector<Datum> pool;
  for (int i = 0; i < 300; ++i) pool.push_back(RandomDatum(rng, 2));

  // Equal datums hash equal; the pool holds many equal pairs.
  size_t equal_pairs = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (!pool[i].Equals(pool[j])) continue;
      ++equal_pairs;
      EXPECT_EQ(pool[i].Hash(), pool[j].Hash())
          << pool[i].ToString(label_) << " vs " << pool[j].ToString(label_);
    }
  }
  EXPECT_GT(equal_pairs, 50u);

  // Insertion order and winners match the linear-scan reference dedup.
  std::vector<Datum> reference;
  for (const Datum& d : pool) {
    bool seen = false;
    for (const Datum& r : reference) seen = seen || r.Equals(d);
    if (!seen) reference.push_back(d);
  }
  Datum set = Datum::Set(pool);
  ASSERT_EQ(set.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(Identical(set.at(i), reference[i])) << "element " << i;
  }
  Datum unioned = Datum::Set({});
  for (size_t k = 0; k < pool.size(); k += 7) {
    std::vector<Datum> chunk(pool.begin() + k,
                             pool.begin() + std::min(k + 7, pool.size()));
    unioned.SetUnion(Datum::Set(std::move(chunk)));
  }
  EXPECT_TRUE(Identical(unioned, set));
  for (const Datum& d : pool) EXPECT_TRUE(set.SetContains(d));

  // Set equality agrees with order-insensitive two-way containment.
  std::vector<Datum> shuffled = reference;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  Datum reordered = Datum::Set(shuffled);
  EXPECT_TRUE(reordered.Equals(set));
  EXPECT_EQ(reordered.Hash(), set.Hash());
  shuffled.pop_back();
  EXPECT_FALSE(Datum::Set(shuffled).Equals(set));
}

}  // namespace
}  // namespace aqua
