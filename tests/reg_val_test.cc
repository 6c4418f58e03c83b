// RegVal: the universal register value type (deep equality, tuple boxing,
// rendering). Registers must hold every shape the algorithms store.
#include <gtest/gtest.h>

#include "common/reg_val.h"

namespace wfd {
namespace {

TEST(RegVal, BottomByDefault) {
  RegVal v;
  EXPECT_TRUE(v.isBottom());
  EXPECT_FALSE(v.isInt());
  EXPECT_EQ(v.toString(), "⊥");
}

TEST(RegVal, IntRoundTrip) {
  RegVal v{Value{42}};
  ASSERT_TRUE(v.isInt());
  EXPECT_EQ(v.asInt(), 42);
  EXPECT_EQ(v.toString(), "42");
}

TEST(RegVal, BoolIsNotInt) {
  RegVal v{true};
  EXPECT_TRUE(v.isBool());
  EXPECT_FALSE(v.isInt());
  EXPECT_TRUE(v.asBool());
}

TEST(RegVal, ProcSetRoundTrip) {
  RegVal v{ProcSet{0, 2}};
  ASSERT_TRUE(v.isSet());
  EXPECT_EQ(v.asSet(), (ProcSet{0, 2}));
}

TEST(RegVal, TupleDeepEquality) {
  auto mk = [] {
    std::vector<RegVal> inner;
    inner.emplace_back(Value{1});
    inner.emplace_back(ProcSet{1});
    std::vector<RegVal> outer;
    outer.emplace_back(true);
    outer.push_back(RegVal::tuple(std::move(inner)));
    return RegVal::tuple(std::move(outer));
  };
  EXPECT_EQ(mk(), mk());
}

TEST(RegVal, TupleInequalityByElement) {
  std::vector<RegVal> a;
  a.emplace_back(Value{1});
  std::vector<RegVal> b;
  b.emplace_back(Value{2});
  EXPECT_NE(RegVal::tuple(std::move(a)), RegVal::tuple(std::move(b)));
}

TEST(RegVal, DifferentKindsNeverEqual) {
  EXPECT_NE(RegVal{Value{1}}, RegVal{true});
  EXPECT_NE(RegVal{}, RegVal{Value{0}});
  EXPECT_NE(RegVal{ProcSet{}}, RegVal{});
}

TEST(RegVal, BottomsAreEqual) { EXPECT_EQ(RegVal{}, RegVal{}); }

TEST(RegVal, TupleRendering) {
  std::vector<RegVal> t;
  t.emplace_back(Value{3});
  t.emplace_back(ProcSet{0});
  EXPECT_EQ(RegVal::tuple(std::move(t)).toString(), "(3, {p1})");
}

TEST(RegVal, CopiesAreIndependentValues) {
  std::vector<RegVal> t;
  t.emplace_back(Value{5});
  const RegVal a = RegVal::tuple(std::move(t));
  const RegVal b = a;  // shares the immutable payload
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.asTuple()[0].asInt(), 5);
}

// The one-allocation builders give the same values as the vector one.
TEST(RegVal, BracedTupleEqualsVectorTuple) {
  std::vector<RegVal> inner;
  inner.emplace_back(Value{1});
  inner.emplace_back(ProcSet{1});
  std::vector<RegVal> outer;
  outer.emplace_back(true);
  outer.emplace_back(Value{-4});
  outer.push_back(RegVal::tuple(std::move(inner)));
  outer.emplace_back();
  const RegVal by_vector = RegVal::tuple(std::move(outer));
  const RegVal braced = RegVal::tuple(
      {RegVal(true), RegVal(Value{-4}),
       RegVal::tuple({RegVal(Value{1}), RegVal(ProcSet{1})}), RegVal()});
  EXPECT_EQ(braced, by_vector);
  EXPECT_EQ(braced.hash64(), by_vector.hash64());
  EXPECT_EQ(braced.toString(), by_vector.toString());
}

TEST(RegVal, IntSpanTupleEqualsVectorTuple) {
  const std::vector<Value> ints = {3, 1, 4, 1};
  std::vector<RegVal> cells;
  for (const Value x : ints) cells.emplace_back(x);
  const RegVal by_vector = RegVal::tuple(std::move(cells));
  const RegVal by_span = RegVal::tuple(std::span<const Value>(ints));
  EXPECT_EQ(by_span, by_vector);
  EXPECT_EQ(by_span.hash64(), by_vector.hash64());
  // Nested: the k-converge B-entry shape (tag, value, U-set).
  std::vector<RegVal> entry;
  entry.emplace_back(true);
  entry.emplace_back(Value{7});
  entry.push_back(by_vector);
  const RegVal nested_vector = RegVal::tuple(std::move(entry));
  const RegVal nested =
      RegVal::tuple({RegVal(true), RegVal(Value{7}), RegVal::tuple(ints)});
  EXPECT_EQ(nested, nested_vector);
  EXPECT_EQ(nested.hash64(), nested_vector.hash64());
}

TEST(RegVal, EmptyTuplesAgreeAcrossBuilders) {
  const RegVal by_vector = RegVal::tuple(std::vector<RegVal>{});
  const RegVal braced = RegVal::tuple(std::initializer_list<RegVal>{});
  const RegVal by_span = RegVal::tuple(std::span<const Value>{});
  EXPECT_TRUE(braced.isTuple());
  EXPECT_EQ(braced.asTuple().size(), 0u);
  EXPECT_EQ(braced, by_vector);
  EXPECT_EQ(by_span, by_vector);
  EXPECT_EQ(braced.hash64(), by_vector.hash64());
  EXPECT_EQ(by_span.hash64(), by_vector.hash64());
  EXPECT_NE(braced, RegVal());
}

}  // namespace
}  // namespace wfd
