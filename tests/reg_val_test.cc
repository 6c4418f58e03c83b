// RegVal: the universal register value type (deep equality, tuple boxing,
// rendering). Registers must hold every shape the algorithms store. Also
// the payload contract RegVal shares with SlotArray: one 16-byte handle,
// a block whose hash is cached without moving it, copy-on-write cells,
// and blocks that cross threads only through a pool join.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/reg_val.h"
#include "common/slot_array.h"
#include "sim/steal_pool.h"

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

// ---- The payload contract ------------------------------------------------

static_assert(sizeof(RegVal) == 16);

RegVal flatTuple() {
  return RegVal::tuple(
      {RegVal(Value{3}), RegVal(true), RegVal(ProcSet{1}), RegVal()});
}

// Three tuples deep: (1, (false, (-5, {p1, p4}))).
RegVal deepTuple() {
  return RegVal::tuple(
      {RegVal(Value{1}),
       RegVal::tuple({RegVal(false), RegVal::tuple({RegVal(Value{-5}),
                                                    RegVal(ProcSet{0, 3})})})});
}

// hash64() literals of these values, computed before tuples cached their
// hash. Every trace hash, digest and stored key is built on them.
constexpr std::uint64_t kIntHash = 0xE9A336C5EC9811BAULL;   // 42
constexpr std::uint64_t kSetHash = 0x0260B61999A0F750ULL;   // {p1, p3}
constexpr std::uint64_t kFlatHash = 0x73AEA5A375A06DBDULL;  // flatTuple()
constexpr std::uint64_t kDeepHash = 0x1A089B6CA880A398ULL;  // deepTuple()

TEST(RegVal, IsSixteenBytes) { EXPECT_EQ(sizeof(RegVal), 16u); }

TEST(RegVal, HashesMatchPinnedLiteralsBeforeAndAfterCaching) {
  const std::vector<std::pair<RegVal, std::uint64_t>> cases = {
      {RegVal(Value{42}), kIntHash},
      {RegVal(ProcSet{0, 2}), kSetHash},
      {flatTuple(), kFlatHash},
      {deepTuple(), kDeepHash},
  };
  for (const auto& [built, want] : cases) {
    const RegVal v = built;  // shares the block, whose hash is not cached
    EXPECT_EQ(v.hash64(), want) << v.toString() << " (first read)";
    EXPECT_EQ(v.hash64(), want) << v.toString() << " (cached read)";
    const RegVal copy = v;  // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(copy.hash64(), want) << v.toString() << " (copy)";
  }
  // A fresh payload hashes the same, uncached, and an inner tuple read
  // out of a cached outer one still hashes as a value of its own.
  EXPECT_EQ(flatTuple().hash64(), kFlatHash);
  const RegVal deep = deepTuple();
  EXPECT_EQ(deep.hash64(), kDeepHash);
  const RegVal inner = deep.asTuple()[1];
  EXPECT_EQ(inner.hash64(), RegVal::tuple({RegVal(false), RegVal::tuple({
                                              RegVal(Value{-5}),
                                              RegVal(ProcSet{0, 3})})})
                                .hash64());
}

TEST(RegVal, EqualityHoldsForCopiesAndForSeparateBuilds) {
  const RegVal a = deepTuple();
  const RegVal b = a;  // one payload
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.asTuple().begin(), b.asTuple().begin());
  const RegVal c = deepTuple();  // an equal payload of its own
  EXPECT_NE(a.asTuple().begin(), c.asTuple().begin());
  EXPECT_EQ(a, c);
  (void)a.hash64();  // one side cached, the other not
  EXPECT_EQ(a, c);
  EXPECT_EQ(c, a);
  (void)c.hash64();  // both cached
  EXPECT_EQ(a, c);
  // Differing payloads stay unequal with and without cached hashes.
  const RegVal d = flatTuple();
  EXPECT_NE(a, d);
  (void)d.hash64();
  EXPECT_NE(a, d);
  EXPECT_NE(RegVal::tuple({RegVal(Value{1})}), RegVal::tuple({RegVal(Value{2})}));
}

TEST(RegVal, MovedFromIsBottomAndAssignmentKeepsThePayload) {
  RegVal a = flatTuple();
  const RegVal moved = std::move(a);
  EXPECT_TRUE(a.isBottom());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.hash64(), kFlatHash);
  RegVal b = deepTuple();
  b = moved;  // drops the deep tuple, shares the flat one
  EXPECT_EQ(b, moved);
  const RegVal& alias = b;
  b = alias;  // self-assignment keeps the payload alive
  EXPECT_EQ(b.hash64(), kFlatHash);
  b = RegVal(Value{42});
  EXPECT_EQ(b.hash64(), kIntHash);
}

TEST(SlotArray, SetCopiesASharedBlockAndKeepsTheOtherHoldersCells) {
  SlotArray a(3);
  a.set(0, flatTuple());
  const SlotArray held = a;  // shares the block
  EXPECT_EQ(held.begin(), a.begin());
  a.set(1, RegVal(Value{7}));
  EXPECT_NE(held.begin(), a.begin());  // a copied before writing
  EXPECT_TRUE(held[1].isBottom());     // the other holder's cells stand
  EXPECT_EQ(held[0], flatTuple());
  EXPECT_EQ(a[0], flatTuple());
  EXPECT_EQ(a[1].asInt(), 7);
  EXPECT_FALSE(a == held);
}

TEST(SlotArray, SetUpdatesASoleHoldersBlockInPlace) {
  SlotArray a(3);
  const RegVal* const cells = a.begin();
  a.set(2, deepTuple());
  a.set(0, RegVal(true));
  EXPECT_EQ(a.begin(), cells);
  {
    const SlotArray dropped = a;  // shared, then released again
    EXPECT_EQ(dropped.begin(), cells);
  }
  a.set(1, RegVal(Value{5}));
  EXPECT_EQ(a.begin(), cells);
  EXPECT_EQ(a[2].hash64(), kDeepHash);
  EXPECT_EQ(a.size(), 3u);
}

// Tuples and SlotArrays built on pool workers reach the caller through
// the join, which is the only way a run's values cross threads; the
// caller then copies, hashes and destroys them. ThreadSanitizer runs this
// (the tsan-batch CI job).
TEST(RegVal, CrossesThreadsThroughThePoolJoin) {
  constexpr std::size_t kJobs = 64;
  std::vector<RegVal> tuples(kJobs);
  std::vector<SlotArray> arrays(kJobs);
  sim::runPool(kJobs, 4, /*steal=*/true, [&](std::size_t job, int) {
    const auto v = static_cast<Value>(job);
    const RegVal inner = RegVal::tuple({RegVal(v), RegVal(ProcSet{1})});
    tuples[job] = RegVal::tuple({RegVal(true), RegVal(v), inner});
    (void)tuples[job].hash64();  // caches on the worker
    SlotArray cells(4);
    cells.set(static_cast<std::size_t>(job % 4), tuples[job]);
    arrays[job] = cells;  // two holders, both handed over
    cells.set(0, inner);  // copies: arrays[job] keeps its cells
  });
  for (std::size_t job = 0; job < kJobs; ++job) {
    const auto v = static_cast<Value>(job);
    const RegVal want = RegVal::tuple(
        {RegVal(true), RegVal(v),
         RegVal::tuple({RegVal(v), RegVal(ProcSet{1})})});
    const RegVal copy = tuples[job];
    EXPECT_EQ(copy, want);
    EXPECT_EQ(copy.hash64(), want.hash64());
    SlotArray held = arrays[job];
    EXPECT_EQ(held[job % 4], want);
    held.set(job % 4, RegVal());  // shared with arrays[job]: copies
    EXPECT_EQ(arrays[job][job % 4], want);
  }
  tuples.clear();
  arrays.clear();
}

}  // namespace
}  // namespace wfd
