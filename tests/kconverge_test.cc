// Property tests for the k-converge routine (paper Sect. 5.1, [21]):
// C-Termination, C-Validity, C-Agreement, Convergence — swept across
// system sizes, k, snapshot flavors, seeds and crash patterns.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::ConvergeReport;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;
using sim::SnapshotFlavor;

// Each process runs core::kConvergeTask once: it decides its pick and
// notes whether it committed, and checkKConverge reads the notes back.
struct Outcome {
  RunResult run;
  ConvergeReport rep;
};

Outcome runOnce(int n_plus_1, int k, const std::vector<Value>& props,
                SnapshotFlavor flavor, std::uint64_t seed,
                std::optional<FailurePattern> fp = std::nullopt) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.flavor = flavor;
  cfg.seed = seed;
  if (fp) cfg.fp = fp;
  Outcome out;
  out.run = sim::runTask(
      cfg, [k](sim::Env& e, Value v) { return core::kConvergeTask(e, k, v); },
      props);
  out.rep = core::checkKConverge(out.run.trace().events(), k, props);
  return out;
}

struct Params {
  int n_plus_1;
  int k;
  SnapshotFlavor flavor;
};

class KConvergeSweep : public ::testing::TestWithParam<Params> {};

TEST_P(KConvergeSweep, PropertiesHoldAcrossSeeds) {
  const auto [n_plus_1, k, flavor] = GetParam();
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Outcome out = runOnce(n_plus_1, k, props, flavor, seed);
    // C-Termination.
    ASSERT_TRUE(out.run.all_correct_done) << "seed " << seed;
    ASSERT_EQ(out.rep.picks, n_plus_1);
    // C-Validity, C-Agreement (a commit caps the picked set at k).
    EXPECT_TRUE(out.rep.ok()) << "seed " << seed << ": " << out.rep.violation;
  }
}

TEST_P(KConvergeSweep, ConvergenceWithFewInputs) {
  const auto [n_plus_1, k, flavor] = GetParam();
  if (k < 1) GTEST_SKIP();
  // At most k distinct inputs -> every picker commits.
  const auto props = test::proposalsWithDistinct(n_plus_1, k);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Outcome out = runOnce(n_plus_1, k, props, flavor, seed);
    ASSERT_TRUE(out.run.all_correct_done);
    EXPECT_TRUE(out.rep.convergence) << "seed " << seed;
    EXPECT_EQ(out.rep.commits, n_plus_1) << "seed " << seed;
    EXPECT_LE(out.rep.distinct, k);
  }
}

TEST_P(KConvergeSweep, PropertiesHoldUnderCrashes) {
  const auto [n_plus_1, k, flavor] = GetParam();
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto fp =
        FailurePattern::random(n_plus_1, n_plus_1 - 1, 60, seed * 7 + 1);
    const Outcome out = runOnce(n_plus_1, k, props, flavor, seed, fp);
    // Wait-freedom: correct processes pick no matter who crashes.
    ASSERT_TRUE(out.run.all_correct_done) << "seed " << seed;
    EXPECT_TRUE(out.rep.ok()) << "seed " << seed << ": " << out.rep.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KConvergeSweep,
    ::testing::Values(
        Params{2, 1, SnapshotFlavor::kNative},
        Params{3, 1, SnapshotFlavor::kNative},
        Params{3, 2, SnapshotFlavor::kNative},
        Params{4, 2, SnapshotFlavor::kNative},
        Params{4, 3, SnapshotFlavor::kNative},
        Params{5, 1, SnapshotFlavor::kNative},
        Params{5, 4, SnapshotFlavor::kNative},
        Params{6, 3, SnapshotFlavor::kNative},
        Params{3, 2, SnapshotFlavor::kAfek},
        Params{4, 2, SnapshotFlavor::kAfek},
        Params{4, 3, SnapshotFlavor::kAfek},
        Params{5, 3, SnapshotFlavor::kAfek}),
    [](const auto& info) {
      const Params& p = info.param;
      return "n" + std::to_string(p.n_plus_1) + "_k" + std::to_string(p.k) +
             (p.flavor == SnapshotFlavor::kAfek ? "_afek" : "_native");
    });

TEST(KConverge, ZeroConvergeNeverCommits) {
  // By definition 0-converge(v) returns (v, false).
  const auto props = test::distinctProposals(3);
  const Outcome out =
      runOnce(3, 0, props, SnapshotFlavor::kNative, 1);
  ASSERT_TRUE(out.run.all_correct_done);
  EXPECT_EQ(out.rep.commits, 0);
  // Everyone keeps its own value.
  EXPECT_EQ(out.rep.distinct, 3);
}

TEST(KConverge, FullWidthAlwaysCommits) {
  // k = n+1 distinct inputs <= k: everyone commits.
  const auto props = test::distinctProposals(4);
  const Outcome out = runOnce(4, 4, props, SnapshotFlavor::kNative, 3);
  ASSERT_TRUE(out.run.all_correct_done);
  EXPECT_EQ(out.rep.commits, 4);
}

TEST(KConverge, SoloParticipantCommitsWithKOne) {
  // A solo run (everyone else crashed at time 0) has one input value.
  auto fp = FailurePattern::withCrashes(4, {{0, 0}, {1, 0}, {2, 0}});
  const Outcome out = runOnce(4, 1, test::distinctProposals(4),
                              SnapshotFlavor::kNative, 5, fp);
  ASSERT_TRUE(out.run.all_correct_done);
  EXPECT_EQ(out.rep.picks, 1);
  EXPECT_EQ(out.rep.commits, 1);
  EXPECT_EQ(out.run.decisions.at(3), 103);
}

}  // namespace
}  // namespace wfd
