#include "query/validate.h"

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "query/builder.h"
#include "test_util.h"

namespace aqua {
namespace {

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A type with one stored and one computed attribute (§3.1 footnote 2).
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
    tree_ = Tree::Node(NodePayload::Cell(a),
                       {Tree::Leaf(NodePayload::Cell(b))});
    ASSERT_OK(db_.RegisterTree("docs", tree_));
    List l;
    l.Append(NodePayload::Cell(a));
    l.Append(NodePayload::Cell(b));
    list_ = l;
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

  /// `lint.collection_walks` delta over `fn`.
  template <typename Fn>
  uint64_t CollectionWalks(Fn fn) {
    obs::Registry::set_enabled(true);
    obs::Snapshot before = obs::Registry::Global().Snap();
    fn();
    return obs::Registry::Global()
        .Snap()
        .DeltaSince(before)
        .CounterValue("lint.collection_walks");
  }

  /// Registers `Digest`, which computes `score` and stores nothing. No
  /// collection holds a Digest, so reading `score` is never a violation.
  void RegisterAbsentComputedType() {
    ASSERT_OK(db_.store()
                  .schema()
                  .RegisterType("Digest", {{"score", ValueType::kInt,
                                            /*stored=*/false}})
                  .status());
  }

  Database db_;
  Tree tree_;
  List list_;
};

// The walk counts are compiled out with observability.
#ifndef AQUA_OBS_DISABLED
#define EXPECT_WALKS(expected, actual) EXPECT_EQ(actual, expected)
#else
#define EXPECT_WALKS(expected, actual) (void)(actual)
#endif

TEST_F(ValidateTest, StoredAttributePasses) {
  EXPECT_OK(ValidateTreePatternAgainst(db_.store(), tree_,
                                       TP("{title == \"a\"}(?*)")));
  EXPECT_OK(ValidateListPatternAgainst(db_.store(), list_,
                                       LP("{title == \"a\"} ?")));
}

TEST_F(ValidateTest, ComputedAttributeRejected) {
  Status st = ValidateTreePatternAgainst(db_.store(), tree_,
                                         TP("{word_count > 100}(?*)"));
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("word_count"), std::string::npos);
  EXPECT_TRUE(ValidateListPatternAgainst(db_.store(), list_,
                                         LP("{word_count > 100}"))
                  .IsInvalidArgument());
}

TEST_F(ValidateTest, ComputedAttributeInsideStructureRejected) {
  // Nested in a child sequence / conjunction / prune — still found.
  EXPECT_TRUE(ValidateTreePatternAgainst(
                  db_.store(), tree_,
                  TP("{title == \"a\"}(!{word_count > 1} ?*)"))
                  .IsInvalidArgument());
  EXPECT_TRUE(ValidateTreePatternAgainst(
                  db_.store(), tree_,
                  TP("{title == \"a\" && word_count > 1}"))
                  .IsInvalidArgument());
}

TEST_F(ValidateTest, UnknownAttributeIsAllowed) {
  // Predicates on attributes no present type declares simply never match;
  // they are not a stored-ness violation.
  EXPECT_OK(ValidateTreePatternAgainst(db_.store(), tree_,
                                       TP("{citizen == \"USA\"}")));
}

TEST_F(ValidateTest, PlanValidationWalksScans) {
  auto good = Q::TreeSubSelect(Q::ScanTree("docs"), TP("{title == \"a\"}"));
  EXPECT_OK(ValidatePlanPatterns(db_, good));

  auto bad = Q::TreeSubSelect(Q::ScanTree("docs"), TP("{word_count > 1}"));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad).IsInvalidArgument());

  auto bad_select =
      Q::TreeSelect(Q::ScanTree("docs"),
                    Predicate::Compare("word_count", CmpOp::kGt,
                                       Value::Int(0)));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad_select).IsInvalidArgument());

  auto bad_list = Q::ListSubSelect(Q::ScanList("doclist"),
                                   LP("{word_count > 1}"));
  EXPECT_TRUE(ValidatePlanPatterns(db_, bad_list).IsInvalidArgument());

  EXPECT_TRUE(ValidatePlanPatterns(db_, nullptr).IsInvalidArgument());
}

TEST_F(ValidateTest, StoredOnlyChecksWalkNoCollection) {
  auto plan = Q::TreeSubSelect(
      Q::TreeSelect(Q::ScanTree("docs"),
                    Predicate::AttrEquals("title", Value::String("b"))),
      TP("{title == \"a\"}(?*)"));
  EXPECT_WALKS(0u, CollectionWalks([&] {
                 EXPECT_OK(ValidatePlanPatterns(db_, plan));
                 EXPECT_OK(ValidateTreePatternAgainst(
                     db_.store(), tree_, TP("{title == \"a\"}(?*)")));
                 EXPECT_OK(ValidateListPatternAgainst(
                     db_.store(), list_, LP("{title == \"a\"} ?")));
               }));
}

TEST_F(ValidateTest, PlanWalksEachCollectionOnce) {
  // The root reads `score`, computed only in the absent Digest type, so
  // the walk runs and clears it; the select below then reads the computed
  // `word_count` and fails from the same walk's memoized type set.
  RegisterAbsentComputedType();
  auto plan = Q::TreeSubSelect(
      Q::TreeSelect(Q::ScanTree("docs"),
                    Predicate::Compare("word_count", CmpOp::kGt,
                                       Value::Int(0))),
      TP("{score > 1}"));
  EXPECT_WALKS(1u, CollectionWalks([&] {
                 Status st = ValidatePlanPatterns(db_, plan);
                 EXPECT_TRUE(st.IsInvalidArgument());
                 EXPECT_NE(st.message().find("word_count"), std::string::npos);
               }));
}

TEST_F(ValidateTest, AttributeComputedOnlyInAbsentTypePasses) {
  RegisterAbsentComputedType();
  EXPECT_WALKS(3u, CollectionWalks([&] {
                 EXPECT_OK(ValidatePlanPatterns(
                     db_, Q::TreeSubSelect(Q::ScanTree("docs"),
                                           TP("{score > 1}"))));
                 EXPECT_OK(ValidateTreePatternAgainst(db_.store(), tree_,
                                                      TP("{score > 1}")));
                 EXPECT_OK(ValidateListPatternAgainst(db_.store(), list_,
                                                      LP("{score > 1}")));
               }));
}

TEST_F(ValidateTest, UnknownCollectionFailsWhenNoWalkIsNeeded) {
  // Needing no walk does not hide a missing collection.
  EXPECT_TRUE(ValidatePlanPatterns(
                  db_, Q::TreeSubSelect(Q::ScanTree("missing"),
                                        TP("{title == \"a\"}")))
                  .IsNotFound());
}

TEST_F(ValidateTest, NullPatternsRejected) {
  EXPECT_TRUE(ValidateTreePatternAgainst(db_.store(), tree_, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ValidateListPatternAgainst(db_.store(), list_, AnchoredListPattern{})
          .IsInvalidArgument());
}

}  // namespace
}  // namespace aqua
