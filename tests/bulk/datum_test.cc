#include "bulk/datum.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"

namespace aqua {
namespace {

using DatumTest = testing::AquaTestBase;

TEST_F(DatumTest, Kinds) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_TRUE(Datum::Scalar(Value::Int(1)).is_scalar());
  EXPECT_TRUE(Datum::Of(T("a")).is_tree());
  EXPECT_TRUE(Datum::Of(L("[a]")).is_list());
  EXPECT_TRUE(Datum::Tuple({}).is_tuple());
  EXPECT_TRUE(Datum::Set({}).is_set());
}

TEST_F(DatumTest, SetDeduplicatesStructurally) {
  Datum s = Datum::Set({Datum::Of(T("a(b)")), Datum::Of(T("a(b)")),
                        Datum::Of(T("a(c)"))});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.SetContains(Datum::Of(T("a(b)"))));
  EXPECT_FALSE(s.SetContains(Datum::Of(T("b(a)"))));
}

TEST_F(DatumTest, SetEqualityIsOrderInsensitive) {
  Datum s1 = Datum::Set({Datum::Scalar(Value::Int(1)),
                         Datum::Scalar(Value::Int(2))});
  Datum s2 = Datum::Set({Datum::Scalar(Value::Int(2)),
                         Datum::Scalar(Value::Int(1))});
  EXPECT_TRUE(s1.Equals(s2));
  Datum s3 = Datum::Set({Datum::Scalar(Value::Int(1))});
  EXPECT_FALSE(s1.Equals(s3));
}

TEST_F(DatumTest, TupleEqualityIsPositional) {
  Datum t1 = Datum::Tuple({Datum::Scalar(Value::Int(1)),
                           Datum::Scalar(Value::Int(2))});
  Datum t2 = Datum::Tuple({Datum::Scalar(Value::Int(2)),
                           Datum::Scalar(Value::Int(1))});
  EXPECT_FALSE(t1.Equals(t2));
  EXPECT_TRUE(t1.Equals(Datum::Tuple(
      {Datum::Scalar(Value::Int(1)), Datum::Scalar(Value::Int(2))})));
}

TEST_F(DatumTest, MixedKindsNeverEqual) {
  EXPECT_FALSE(Datum::Of(T("a")).Equals(Datum::Of(L("[a]"))));
  EXPECT_FALSE(Datum().Equals(Datum::Set({})));
}

TEST_F(DatumTest, ListAndTreeEqualityDelegate) {
  EXPECT_TRUE(Datum::Of(L("[a b]")).Equals(Datum::Of(L("[a b]"))));
  EXPECT_FALSE(Datum::Of(L("[a b]")).Equals(Datum::Of(L("[b a]"))));
}

TEST_F(DatumTest, BuildersMutate) {
  Datum s = Datum::Set({});
  s.SetInsert(Datum::Scalar(Value::Int(1)));
  s.SetInsert(Datum::Scalar(Value::Int(1)));
  EXPECT_EQ(s.size(), 1u);
  Datum t = Datum::Tuple({});
  t.TupleAppend(Datum::Scalar(Value::Int(1)));
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(DatumTest, ToStringForms) {
  EXPECT_EQ(Datum().ToString(label_), "null");
  EXPECT_EQ(Datum::Scalar(Value::Int(3)).ToString(label_), "3");
  EXPECT_EQ(Datum::Of(T("a(b)")).ToString(label_), "a(b)");
  EXPECT_EQ(Datum::Of(L("[a]")).ToString(label_), "[a]");
  Datum tup = Datum::Tuple({Datum::Of(T("a")), Datum::Of(L("[b]"))});
  EXPECT_EQ(tup.ToString(label_), "<a, [b]>");
  Datum set = Datum::Set({Datum::Scalar(Value::Int(1))});
  EXPECT_EQ(set.ToString(label_), "{1}");
}

TEST_F(DatumTest, EqualDatumsHashEqualOnCoercionAndOrderCorners) {
  auto same = [](const Datum& a, const Datum& b) {
    EXPECT_TRUE(a.Equals(b));
    EXPECT_TRUE(b.Equals(a));
    EXPECT_EQ(a.Hash(), b.Hash());
  };
  same(Datum::Scalar(Value::Int(1)), Datum::Scalar(Value::Double(1.0)));
  same(Datum::Scalar(Value::Double(0.0)), Datum::Scalar(Value::Double(-0.0)));
  same(Datum::Scalar(Value::Int(0)), Datum::Scalar(Value::Double(-0.0)));
  // Nested sets built in different orders.
  Datum inner1 = Datum::Set({Datum::Of(T("a(b)")), Datum::Of(L("[a b]")),
                             Datum::Scalar(Value::Int(2))});
  Datum inner2 = Datum::Set({Datum::Scalar(Value::Double(2.0)),
                             Datum::Of(L("[a b]")), Datum::Of(T("a(b)"))});
  same(inner1, inner2);
  same(Datum::Set({inner1, Datum::Of(T("c"))}),
       Datum::Set({Datum::Of(T("c")), inner2}));
  same(Datum::Tuple({inner1, Datum()}), Datum::Tuple({inner2, Datum()}));
  // Shared and copied bulk values compare and hash alike.
  same(Datum::Shared(std::make_shared<const Tree>(T("a(b c)"))),
       Datum::Of(T("a(b c)")));
}

TEST_F(DatumTest, HashSeparatesKindsLabelsAndShapes) {
  auto differ = [](const Datum& a, const Datum& b) {
    EXPECT_FALSE(a.Equals(b));
    EXPECT_NE(a.Hash(), b.Hash());
  };
  differ(Datum::Of(T("a")), Datum::Of(L("[a]")));
  differ(Datum::Of(T("a(@x)")), Datum::Of(T("a(@y)")));
  differ(Datum::Of(L("[a @x]")), Datum::Of(L("[a @y]")));
  differ(Datum::Of(T("a(b c)")), Datum::Of(T("a(b(c))")));
  differ(Datum::Of(T("a(b(c) d)")), Datum::Of(T("a(b(c d))")));
  differ(Datum::Tuple({Datum::Of(T("a"))}), Datum::Set({Datum::Of(T("a"))}));
  differ(Datum::Set({}), Datum());
}

TEST_F(DatumTest, SetUnionKeepsFirstOccurrencesInOrder) {
  Datum out = Datum::Set({Datum::Of(T("b")), Datum::Of(T("c"))});
  out.SetUnion(Datum::Set({Datum::Of(T("a")), Datum::Of(T("c")),
                           Datum::Of(T("d"))}));
  EXPECT_EQ(out.ToString(label_), "{b, c, a, d}");
  // Into an empty set the union is the argument itself.
  Datum empty = Datum::Set({});
  empty.SetUnion(out);
  EXPECT_EQ(empty.ToString(label_), "{b, c, a, d}");
  EXPECT_TRUE(empty.Equals(out));
  EXPECT_TRUE(empty.SetContains(Datum::Of(T("d"))));
  // A tuple's fields join like its elements would.
  empty.SetUnion(Datum::Tuple({Datum::Of(T("e")), Datum::Of(T("b"))}));
  EXPECT_EQ(empty.ToString(label_), "{b, c, a, d, e}");
}

TEST_F(DatumTest, DistinctTreeInsertsMakeLinearlyManyDeepCompares) {
  constexpr size_t kN = 4096;
  std::vector<Datum> trees;
  trees.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    trees.push_back(Datum::Of(
        Tree::Node(NodePayload::Cell(Oid(1 + i % 64)),
                   {Tree::Leaf(NodePayload::Cell(Oid(1 + i / 64)))})));
  }
  obs::Snapshot before = obs::Registry::Global().Snap();
  Datum set = Datum::Set({});
  for (const Datum& t : trees) set.SetInsert(t);
  for (const Datum& t : trees) set.SetInsert(t);  // every one a duplicate
  EXPECT_EQ(set.size(), kN);
#ifndef AQUA_OBS_DISABLED
  obs::Snapshot delta = obs::Registry::Global().Snap().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("datum.set_inserts"), 2 * kN);
  // A linear scan makes ~n²/2 = 8.4M compares for the distinct inserts
  // alone; hashed, a compare happens only on a hash hit.
  EXPECT_LE(delta.CounterValue("datum.deep_equal_calls"), 2 * kN);
  EXPECT_GE(delta.CounterValue("datum.deep_equal_calls"), kN);
#endif
}

// The set index is allocated per set: other datums do not pay for it.
struct DatumLayoutWithoutSetIndex {
  Datum::Kind kind;
  Value scalar;
  std::shared_ptr<const List> list;
  std::shared_ptr<const Tree> tree;
  std::vector<Datum> children;
};
static_assert(sizeof(Datum) <= sizeof(DatumLayoutWithoutSetIndex));

}  // namespace
}  // namespace aqua
