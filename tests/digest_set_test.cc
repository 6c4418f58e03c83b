// DigestSet (sim/digest_set.h): the kDag memo's flat digest table.
//
// The explorer's counters and certificates rest on the memo being an
// exact set, so these pin its set semantics from every side the flat
// layout could break them: the out-of-band zero digest, duplicates,
// every grow, probe chains that wrap past the array end, and a long
// seeded run against std::unordered_set as the model.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "sim/digest_set.h"

namespace wfd::test {
namespace {

using sim::DigestSet;

TEST(DigestSet, EmptySetHoldsNothing) {
  const DigestSet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(~std::uint64_t{0}));
}

TEST(DigestSet, ZeroIsAMemberLikeAnyOther) {
  DigestSet s;
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.contains(0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.insert(0));
  EXPECT_EQ(s.size(), 1u);
  // Zero marks an empty slot in the array, so it must not make every
  // empty slot look occupied, nor take a slot itself.
  EXPECT_FALSE(s.contains(16));
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_TRUE(s.insert(16));
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(16));
  EXPECT_FALSE(s.contains(32));
  EXPECT_EQ(s.size(), 2u);
}

TEST(DigestSet, DuplicateInsertsLeaveTheSizeUnchanged) {
  DigestSet s;
  for (std::uint64_t d = 1; d <= 100; ++d) EXPECT_TRUE(s.insert(d * 977));
  const std::size_t cap = s.capacity();
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t d = 1; d <= 100; ++d) {
      EXPECT_FALSE(s.insert(d * 977));
    }
  }
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.capacity(), cap) << "a duplicate insert must not grow";
}

TEST(DigestSet, MembershipHoldsAcrossEveryGrow) {
  DigestSet s;
  Rng rng(0xD16E57);
  std::vector<std::uint64_t> in;
  std::size_t cap = s.capacity();
  int grows = 0;
  while (grows < 12) {
    std::uint64_t d = rng.next();
    if (d == 0) continue;
    if (!s.insert(d)) continue;
    in.push_back(d);
    // Never above 3/4 load, and always a power of two.
    EXPECT_LE(s.size() * 4, s.capacity() * 3);
    EXPECT_EQ(s.capacity() & (s.capacity() - 1), 0u);
    if (s.capacity() != cap) {
      cap = s.capacity();
      ++grows;
      for (const std::uint64_t x : in) {
        ASSERT_TRUE(s.contains(x)) << "lost across the grow to " << cap;
      }
      EXPECT_EQ(s.size(), in.size());
    }
  }
  EXPECT_FALSE(s.contains(0));
}

TEST(DigestSet, ProbeChainsWrapPastTheArrayEnd) {
  DigestSet s;
  ASSERT_TRUE(s.insert(1));
  const std::size_t cap = s.capacity();
  ASSERT_GT(cap, 8u);
  // Digests whose low bits all name the last slot: each chain starts at
  // the array's end and must continue at slot 0.
  const std::uint64_t last = cap - 1;
  std::vector<std::uint64_t> clustered;
  for (std::uint64_t k = 1; clustered.size() < 6; ++k) {
    clustered.push_back((k << 32) | last);
  }
  for (const std::uint64_t d : clustered) EXPECT_TRUE(s.insert(d));
  ASSERT_EQ(s.capacity(), cap) << "the cluster must fit before a grow";
  for (const std::uint64_t d : clustered) EXPECT_TRUE(s.contains(d));
  EXPECT_TRUE(s.contains(1));
  // An absent digest of the same home slot walks the wrapped chain to
  // its end and reports a miss.
  EXPECT_FALSE(s.contains((std::uint64_t{99} << 32) | last));
  EXPECT_EQ(s.size(), clustered.size() + 1);
  // Grow past the cluster: the wrapped entries are re-placed, not lost.
  for (std::uint64_t k = 2; s.capacity() < cap * 4; ++k) s.insert(k * 131);
  for (const std::uint64_t d : clustered) {
    EXPECT_TRUE(s.contains(d)) << "wrapped digest lost across a grow";
  }
  EXPECT_FALSE(s.insert(clustered.front()));
}

TEST(DigestSet, MatchesUnorderedSetOverASeededMixedRun) {
  // The model: std::unordered_set, only asked membership and size. Keys
  // mix full 64-bit draws with a small pool (duplicates, zero, and
  // clustered low bits) so hits, misses and long chains all occur.
  DigestSet s;
  std::unordered_set<std::uint64_t> model;
  Rng rng(0x5E7C0DE);
  std::vector<std::uint64_t> seen;
  std::uint64_t hits = 0;
  constexpr int kOps = 200'000;
  for (int op = 0; op < kOps; ++op) {
    std::uint64_t d = 0;
    switch (rng.below(4)) {
      case 0:
        d = rng.next();
        break;
      case 1:
        d = rng.below(64);  // small keys, zero included
        break;
      case 2:
        d = (rng.below(4096) << 40) | 0xFFF;  // one home slot at every capacity
        break;
      default:
        d = seen.empty() ? 0 : seen[rng.below(seen.size())];
        break;
    }
    if (rng.below(2) == 0) {
      const bool fresh = model.insert(d).second;
      ASSERT_EQ(s.insert(d), fresh) << "op " << op << " insert " << d;
      if (fresh) seen.push_back(d);
    } else {
      const bool want = model.count(d) != 0;
      ASSERT_EQ(s.contains(d), want) << "op " << op << " contains " << d;
      hits += want ? 1 : 0;
    }
    ASSERT_EQ(s.size(), model.size());
  }
  for (const std::uint64_t d : seen) ASSERT_TRUE(s.contains(d));
  EXPECT_GT(hits, 10'000u);
  EXPECT_GT(model.size(), 25'000u);
}

}  // namespace
}  // namespace wfd::test
