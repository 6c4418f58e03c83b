// Unit tests for ProcSet, the process-set value type underlying every
// failure detector range in the library.
#include "common/proc_set.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace wfd {
namespace {

TEST(ProcSet, EmptyByDefault) {
  ProcSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.min(), -1);
}

TEST(ProcSet, InsertContainsErase) {
  ProcSet s;
  s.insert(3);
  s.insert(0);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size(), 2);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1);
}

TEST(ProcSet, FullUniverse) {
  const ProcSet s = ProcSet::full(5);
  EXPECT_EQ(s.size(), 5);
  for (Pid p = 0; p < 5; ++p) EXPECT_TRUE(s.contains(p));
  EXPECT_FALSE(s.contains(5));
}

TEST(ProcSet, ComplementWithinUniverse) {
  ProcSet s{0, 2};
  const ProcSet c = s.complement(4);
  EXPECT_EQ(c, (ProcSet{1, 3}));
  EXPECT_EQ(c.complement(4), s);
}

TEST(ProcSet, SetAlgebra) {
  const ProcSet a{0, 1, 2};
  const ProcSet b{2, 3};
  EXPECT_EQ(a.intersect(b), ProcSet{2});
  EXPECT_EQ(a.unionWith(b), (ProcSet{0, 1, 2, 3}));
  EXPECT_EQ(a.minus(b), (ProcSet{0, 1}));
  EXPECT_TRUE((ProcSet{0, 1}).subsetOf(a));
  EXPECT_FALSE(a.subsetOf(b));
}

TEST(ProcSet, MinAndMembersOrdered) {
  const ProcSet s{5, 1, 3};
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.members(), (std::vector<Pid>{1, 3, 5}));
}

TEST(ProcSet, ToStringIsOneBased) {
  EXPECT_EQ((ProcSet{0, 2}).toString(), "{p1,p3}");
  EXPECT_EQ(ProcSet{}.toString(), "{}");
}

TEST(ProcSet, SingletonFactory) {
  const ProcSet s = ProcSet::singleton(7);
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s.min(), 7);
}

TEST(ProcSet, EqualityIsStructural) {
  ProcSet a{1, 2};
  ProcSet b;
  b.insert(2);
  b.insert(1);
  EXPECT_EQ(a, b);
  b.insert(0);
  EXPECT_NE(a, b);
}

TEST(ProcSet, FullAtMaxWidth) {
  const ProcSet s = ProcSet::full(kMaxProcs);
  EXPECT_EQ(s.size(), kMaxProcs);
  EXPECT_TRUE(s.contains(kMaxProcs - 1));
}

// --- Hot-path select primitives (nth / nextAbove / iterator) --------------
//
// These back the allocation-free schedule policies, so the edge shapes —
// empty set, full 64-bit universe, lone bits at the mask boundaries —
// each get pinned explicitly.

TEST(ProcSet, NthSelectsIthSmallestMember) {
  const ProcSet s{1, 3, 5, 40, 63};
  const auto members = s.members();
  for (int i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s.nth(i), members[static_cast<std::size_t>(i)]) << "i=" << i;
  }
}

TEST(ProcSet, NthOnFull64MatchesIdentity) {
  const ProcSet s = ProcSet::full(kMaxProcs);
  for (int i = 0; i < kMaxProcs; ++i) EXPECT_EQ(s.nth(i), i) << "i=" << i;
}

TEST(ProcSet, NthOnSingleBitSets) {
  for (Pid p = 0; p < kMaxProcs; ++p) {
    EXPECT_EQ(ProcSet::singleton(p).nth(0), p) << "p=" << p;
  }
}

TEST(ProcSet, NthAgreesWithMembersOnMixedMasks) {
  // A handful of irregular masks, including ones dense in the top half.
  for (const std::uint64_t bits :
       {std::uint64_t{0x8000000000000001ULL}, std::uint64_t{0xF0F0F0F0F0F0F0F0ULL},
        std::uint64_t{0x00000000FFFFFFFFULL}, std::uint64_t{0xAAAAAAAAAAAAAAAAULL},
        std::uint64_t{0x0123456789ABCDEFULL}}) {
    const ProcSet s = ProcSet::fromBits(bits);
    const auto members = s.members();
    for (int i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s.nth(i), members[static_cast<std::size_t>(i)])
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(ProcSet, NextAboveWalksMembersInOrder) {
  const ProcSet s{0, 2, 40, 63};
  EXPECT_EQ(s.nextAbove(-1), 0);
  EXPECT_EQ(s.nextAbove(0), 2);
  EXPECT_EQ(s.nextAbove(1), 2);
  EXPECT_EQ(s.nextAbove(2), 40);
  EXPECT_EQ(s.nextAbove(40), 63);
  EXPECT_EQ(s.nextAbove(62), 63);
  EXPECT_EQ(s.nextAbove(63 - 1), 63);
}

TEST(ProcSet, NextAboveOnEmptyAndPastEnd) {
  EXPECT_EQ(ProcSet{}.nextAbove(-1), -1);
  EXPECT_EQ(ProcSet{}.nextAbove(30), -1);
  const ProcSet s{5};
  EXPECT_EQ(s.nextAbove(5), -1);
  EXPECT_EQ(s.nextAbove(kMaxProcs - 1), -1);
}

TEST(ProcSet, NextAboveOnFull64) {
  const ProcSet s = ProcSet::full(kMaxProcs);
  for (Pid p = -1; p < kMaxProcs - 1; ++p) EXPECT_EQ(s.nextAbove(p), p + 1);
  EXPECT_EQ(s.nextAbove(kMaxProcs - 1), -1);
}

TEST(ProcSet, IteratorOverEmptySet) {
  const ProcSet s;
  EXPECT_EQ(s.begin(), s.end());
  int count = 0;
  for (Pid p : s) {
    (void)p;
    ++count;
  }
  EXPECT_EQ(count, 0);
}

TEST(ProcSet, IteratorMatchesMembers) {
  for (const ProcSet& s :
       {ProcSet{}, ProcSet{7}, ProcSet{0, 63}, ProcSet{1, 3, 5, 40},
        ProcSet::full(kMaxProcs)}) {
    std::vector<Pid> seen;
    for (Pid p : s) seen.push_back(p);
    EXPECT_EQ(seen, s.members());
  }
}

TEST(ProcSet, IteratorIsForwardIterator) {
  static_assert(std::forward_iterator<ProcSet::iterator>);
  const ProcSet s{4, 9};
  auto it = s.begin();
  EXPECT_EQ(*it, 4);
  auto old = it++;  // post-increment returns the pre-step position
  EXPECT_EQ(*old, 4);
  EXPECT_EQ(*it, 9);
  ++it;
  EXPECT_EQ(it, s.end());
}

// popcount64 is the inline count size() and nth() use in place of a
// libgcc call; it must count exactly as the builtin does.
TEST(ProcSet, InlinePopcountMatchesTheBuiltin) {
  static_assert(popcount64(0) == 0);
  static_assert(popcount64(~std::uint64_t{0}) == 64);
  static_assert(popcount64(0x8000000000000001ULL) == 2);
  Rng rng(64);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t w = rng.next();
    // Dense and sparse words as well as uniform ones.
    for (const std::uint64_t x : {w, w & rng.next(), w | rng.next()}) {
      ASSERT_EQ(popcount64(x), __builtin_popcountll(x)) << std::hex << x;
      ASSERT_EQ(ProcSet::fromBits(x).size(), __builtin_popcountll(x));
    }
  }
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    EXPECT_EQ(popcount64(bit), 1);
    EXPECT_EQ(popcount64(bit - 1), b);
  }
}

}  // namespace
}  // namespace wfd
