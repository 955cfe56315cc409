#include "object/schema.h"

#include <gtest/gtest.h>

namespace aqua {
namespace {

TEST(SchemaTest, RegisterAndLookup) {
  Schema schema;
  auto id = schema.RegisterType("Person", {{"name", ValueType::kString, true},
                                           {"age", ValueType::kInt, true}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(schema.num_types(), 1u);

  auto by_name = schema.TypeIdOf("Person");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, *id);

  auto def = schema.GetType(*id);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->name(), "Person");
  EXPECT_EQ((*def)->num_attrs(), 2u);
}

TEST(SchemaTest, DuplicateTypeNameRejected) {
  Schema schema;
  ASSERT_TRUE(schema.RegisterType("T", {}).ok());
  EXPECT_TRUE(schema.RegisterType("T", {}).status().IsAlreadyExists());
}

TEST(SchemaTest, DuplicateAttributeRejected) {
  Schema schema;
  auto id = schema.RegisterType("T", {{"x", ValueType::kInt, true},
                                      {"x", ValueType::kString, true}});
  EXPECT_TRUE(id.status().IsInvalidArgument());
}

TEST(SchemaTest, UnknownLookupsFail) {
  Schema schema;
  EXPECT_TRUE(schema.TypeIdOf("Nope").status().IsNotFound());
  EXPECT_TRUE(schema.GetType(99).status().IsNotFound());
  EXPECT_TRUE(schema.GetType("Nope").status().IsNotFound());
}

TEST(SchemaTest, ComputedAttrsAreRecorded) {
  Schema schema;
  ASSERT_TRUE(schema.RegisterType("Doc", {{"title", ValueType::kString, true},
                                          {"words", ValueType::kInt, false}})
                  .ok());
  EXPECT_TRUE(schema.IsComputedAttr("words"));
  EXPECT_FALSE(schema.IsComputedAttr("title"));
  EXPECT_FALSE(schema.IsComputedAttr("missing"));
  // Computed in any one type is enough, even where another stores it.
  ASSERT_TRUE(schema.RegisterType("Digest", {{"title", ValueType::kString,
                                              false}})
                  .ok());
  EXPECT_TRUE(schema.IsComputedAttr("title"));
  // A rejected registration records nothing.
  EXPECT_FALSE(schema.RegisterType("Bad", {{"x", ValueType::kInt, false},
                                           {"x", ValueType::kInt, false}})
                   .ok());
  EXPECT_FALSE(schema.IsComputedAttr("x"));
}

TEST(TypeDefTest, AttrIndexAndHasAttr) {
  TypeDef def("T", {{"a", ValueType::kInt, true},
                    {"b", ValueType::kString, false}});
  auto idx = def.AttrIndex("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(def.HasAttr("a"));
  EXPECT_FALSE(def.HasAttr("c"));
  EXPECT_TRUE(def.AttrIndex("c").status().IsNotFound());
  EXPECT_FALSE(def.attrs()[1].stored);
}

}  // namespace
}  // namespace aqua
