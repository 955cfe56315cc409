#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/obs.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua::lint {
namespace {

bool Has(const std::vector<Diagnostic>& diags, DiagCode code) {
  return std::any_of(diags.begin(), diags.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

class LintPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One stored and one computed attribute (§3.1 footnote 2).
    ASSERT_OK(db_.store()
                  .schema()
                  .RegisterType("Doc", {{"title", ValueType::kString, true},
                                        {"word_count", ValueType::kInt,
                                         /*stored=*/false}})
                  .status());
    ASSERT_OK_AND_ASSIGN(
        Oid a, db_.store().Create("Doc", {{"title", Value::String("a")}}));
    ASSERT_OK_AND_ASSIGN(
        Oid b, db_.store().Create("Doc", {{"title", Value::String("b")}}));
    Tree t = Tree::Node(NodePayload::Cell(a),
                        {Tree::Leaf(NodePayload::Cell(b))});
    ASSERT_OK(db_.RegisterTree("docs", std::move(t)));
    List l;
    l.Append(NodePayload::Cell(a));
    l.Append(NodePayload::Cell(b));
    ASSERT_OK(db_.RegisterList("doclist", std::move(l)));
  }

  TreePatternRef TP(const std::string& p) {
    PatternParserOptions opts;
    opts.default_attr = "title";
    auto tp = ParseTreePattern(p, opts);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    return tp.ok() ? *tp : nullptr;
  }
  AnchoredListPattern LP(const std::string& p) {
    PatternParserOptions opts;
    opts.default_attr = "title";
    auto lp = ParseListPattern(p, opts);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    return lp.ok() ? *lp : AnchoredListPattern{};
  }
  PredicateRef P(const std::string& p) {
    auto pred = ParsePredicate(p);
    EXPECT_TRUE(pred.ok()) << pred.status().ToString();
    return pred.ok() ? *pred : nullptr;
  }

  /// `lint.collection_walks` delta over one `Lint` call.
  uint64_t CollectionWalks(const PlanRef& plan,
                           std::vector<Diagnostic>* diags) {
    obs::Registry::set_enabled(true);
    obs::Snapshot before = obs::Registry::Global().Snap();
    *diags = Lint(db_, plan);
    return obs::Registry::Global()
        .Snap()
        .DeltaSince(before)
        .CounterValue("lint.collection_walks");
  }

  Database db_;
};

// The walk counts are compiled out with observability.
#ifndef AQUA_OBS_DISABLED
#define EXPECT_WALKS(expected, actual) EXPECT_EQ(actual, expected)
#else
#define EXPECT_WALKS(expected, actual) (void)(actual)
#endif

size_t CountCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  return static_cast<size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [code](const Diagnostic& d) { return d.code == code; }));
}

TEST_F(LintPlanTest, CleanPlanHasNoDiagnostics) {
  auto plan = Q::TreeSubSelect(Q::ScanTree("docs"), TP("a(?*)"));
  EXPECT_TRUE(Lint(db_, plan).empty());
}

TEST_F(LintPlanTest, AQL012UnknownCollection) {
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("missing"), TP("a")));
  ASSERT_TRUE(Has(diags, DiagCode::kUnknownCollection));
  EXPECT_EQ(diags.front().severity, Severity::kError);
  EXPECT_EQ(diags.front().context, "ScanTree");
}

TEST_F(LintPlanTest, AQL010TreeOpOverListCollection) {
  // `docs` is a tree; scanning it as a list (and vice versa) is a
  // parameter mismatch, as is feeding a tree operator from a list scan.
  EXPECT_TRUE(Has(Lint(db_, Q::ScanList("docs")),
                  DiagCode::kOperatorParamMismatch));
  EXPECT_TRUE(Has(Lint(db_, Q::ScanTree("doclist")),
                  DiagCode::kOperatorParamMismatch));
  EXPECT_TRUE(
      Has(Lint(db_, Q::TreeSubSelect(Q::ScanList("doclist"), TP("a"))),
          DiagCode::kOperatorParamMismatch));
}

TEST_F(LintPlanTest, AQL010IndexedOpWithoutIndex) {
  auto plan = Q::IndexedSubSelect("docs", "title",
                                  P("title == \"a\""), TP("a(?*)"), {});
  EXPECT_TRUE(Has(Lint(db_, plan), DiagCode::kOperatorParamMismatch));
  // With the index built, the same plan is clean.
  ASSERT_OK(db_.CreateIndex("docs", "title"));
  EXPECT_TRUE(Lint(db_, plan).empty());
}

TEST_F(LintPlanTest, AQL009AndAQL005ForUnsatisfiableSelect) {
  auto diags =
      Lint(db_, Q::TreeSelect(Q::ScanTree("docs"),
                              P("title == \"a\" && title == \"b\"")));
  EXPECT_TRUE(Has(diags, DiagCode::kContradictoryPredicate));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyOperator));
}

TEST_F(LintPlanTest, AQL009ForEmptyPatternOperator) {
  auto diags = Lint(
      db_, Q::ListSubSelect(Q::ScanList("doclist"),
                            LP("{x > 3 && x < 1}")));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyOperator));
  EXPECT_TRUE(Has(diags, DiagCode::kEmptyPattern));
}

TEST_F(LintPlanTest, AQL011ComputedAttribute) {
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("docs"),
                                          TP("{word_count > 10}")));
  ASSERT_TRUE(Has(diags, DiagCode::kComputedAttribute));
  for (const Diagnostic& d : diags) {
    if (d.code != DiagCode::kComputedAttribute) continue;
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_NE(d.message.find("word_count"), std::string::npos);
  }
}

TEST_F(LintPlanTest, AQL011StoredOnlyPlanWalksNoCollection) {
  // The schema has a computed attribute, but no predicate reads it: the
  // check ends at the schema and never touches the scanned collections.
  std::vector<Diagnostic> diags;
  uint64_t walks = CollectionWalks(
      Q::TreeSubSelect(Q::TreeSelect(Q::ScanTree("docs"), P("title != \"c\"")),
                       TP("{title == \"a\"}(?*)")),
      &diags);
  EXPECT_FALSE(Has(diags, DiagCode::kComputedAttribute));
  EXPECT_WALKS(0u, walks);
}

TEST_F(LintPlanTest, AQL011WalksEachCollectionOncePerCall) {
  // Three nodes over one scan; the select and the sub_select both read the
  // computed attribute. Both are flagged, from a single collection walk.
  std::vector<Diagnostic> diags;
  uint64_t walks = CollectionWalks(
      Q::TreeSubSelect(
          Q::TreeSelect(Q::ScanTree("docs"), P("word_count > 1")),
          TP("{word_count > 10}")),
      &diags);
  EXPECT_EQ(CountCode(diags, DiagCode::kComputedAttribute), 2u);
  EXPECT_WALKS(1u, walks);
}

TEST_F(LintPlanTest, AQL011AttributeComputedOnlyInAbsentType) {
  // `title` is computed in Digest, but `docs` holds only Docs, which store
  // it. The schema cannot rule the read out; the collection walk does.
  ASSERT_OK(db_.store()
                .schema()
                .RegisterType("Digest", {{"title", ValueType::kString,
                                          /*stored=*/false}})
                .status());
  std::vector<Diagnostic> diags;
  uint64_t walks = CollectionWalks(
      Q::TreeSubSelect(Q::ScanTree("docs"), TP("{title == \"a\"}(?*)")),
      &diags);
  EXPECT_FALSE(Has(diags, DiagCode::kComputedAttribute));
  EXPECT_WALKS(1u, walks);
  // A Digest in the collection makes the same read a violation.
  ASSERT_OK_AND_ASSIGN(Oid digest,
                       db_.store().Create("Digest",
                                          {{"title", Value::String("d")}}));
  List mixed;
  mixed.Append(NodePayload::Cell(digest));
  ASSERT_OK(db_.RegisterList("mixed", std::move(mixed)));
  EXPECT_TRUE(Has(Lint(db_, Q::ListSubSelect(Q::ScanList("mixed"),
                                             LP("{title == \"a\"}"))),
                  DiagCode::kComputedAttribute));
}

TEST_F(LintPlanTest, PatternSourceRendersCarets) {
  PlanLintOptions opts;
  opts.pattern_source = "{title == \"a\" && title == \"b\"}";
  auto diags = LintPlan(
      db_,
      Q::TreeSubSelect(Q::ScanTree("docs"),
                       TP("{title == \"a\" && title == \"b\"}")),
      opts);
  ASSERT_FALSE(diags.empty());
  std::string rendered = RenderDiagnostics(diags);
  EXPECT_NE(rendered.find("^"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("title"), std::string::npos) << rendered;
}

TEST_F(LintPlanTest, EmitsObsCounters) {
  obs::Registry::Global().ResetAll();
  obs::Registry::set_enabled(true);
  auto diags = Lint(db_, Q::TreeSubSelect(Q::ScanTree("missing"), TP("a")));
  ASSERT_FALSE(diags.empty());
#ifndef AQUA_OBS_DISABLED
  // The count macros expand to nothing when observability is compiled out.
  EXPECT_GE(obs::Registry::Global().GetCounter("lint.diag_emitted")->value(),
            diags.size());
  EXPECT_GE(obs::Registry::Global().GetCounter("lint.diag.AQL012")->value(),
            1u);
#endif
}

}  // namespace
}  // namespace aqua::lint
