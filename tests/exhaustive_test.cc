// Exhaustive schedule coverage ("model checking in miniature").
//
// The paper's properties are universally quantified over schedules; the
// other suites sample that space, this one exhausts it for small, bounded
// protocols. Coverage is delivered by the systematic explorer
// (sim/explore.h); the original brute-force multiset-permutation
// enumerator survives at n = 2 as the ORACLE: all C(8,4) = 70
// interleavings are executed one by one and their outcome set must equal
// the explorer's outcome set exactly, in both explorer modes. The n = 3
// sweeps (34650 interleavings apiece when enumerated naively) now run
// through the explorer, which certifies the same universally-quantified
// contracts from a fraction of the schedules (see tests/explore_test.cc
// for the reduction-factor bar).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "test_util.h"

namespace wfd {
namespace {

using core::Pick;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreResult;
using sim::RunConfig;

using Outcome = std::vector<Pick>;  // per pid: core::picksOf

sim::AlgoFn convergeAlgo(int k) {
  return [k](Env& e, Value v) { return core::kConvergeTask(e, k, v); };
}

// The 70 interleavings of two 4-step kConvergeTask processes, each held
// to checkKConverge; returns the outcome set.
std::set<Outcome> bruteForceTwoProcs(const std::vector<Value>& props) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  int schedules = 0;
  std::set<Outcome> brute;
  test::forEachInterleaving({4, 4}, [&](const std::vector<Pid>& seq) {
    ++schedules;
    const sim::RunResult rr =
        test::runScheduled(cfg, convergeAlgo(1), props, seq);
    EXPECT_TRUE(rr.all_correct_done);  // C-Termination
    const core::ConvergeReport rep =
        core::checkKConverge(rr.trace().events(), 1, props);
    EXPECT_TRUE(rep.ok()) << "schedule #" << schedules << ": "
                          << rep.violation;
    brute.insert(core::picksOf(rr.trace().events(), 2));
  });
  EXPECT_EQ(schedules, 70);  // C(8,4)
  return brute;
}

ExploreResult exploreConverge(int n, int k, const std::vector<Value>& props,
                              ExploreMode mode) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = n;
  cfg.mode = mode;
  cfg.property = [k, props](const sim::ExploreOutcome& o) {
    return core::checkKConverge(o.events, k, props).violation;
  };
  return explore(cfg, convergeAlgo(k), props);
}

std::set<Outcome> explorerOutcomeSet(const ExploreResult& res, int n) {
  std::set<Outcome> out;
  for (const auto& [sig, o] : res.outcomes) {
    out.insert(core::picksOf(o.events, n));
  }
  return out;
}

// 1-converge with two processes is commit-adopt: check its contract in
// every one of the 70 interleavings, and hold the explorer to the exact
// same outcome set — the brute force is the oracle for both modes.
TEST(Exhaustive, CommitAdoptTwoProcessesAllSchedules) {
  const std::set<Outcome> brute = bruteForceTwoProcs({100, 101});

  const ExploreResult dpor =
      exploreConverge(2, 1, {100, 101}, ExploreMode::kDpor);
  ASSERT_TRUE(dpor.verified()) << dpor.violation;
  EXPECT_EQ(explorerOutcomeSet(dpor, 2), brute)
      << "DPOR outcome set diverged from the brute-force oracle";
  EXPECT_LE(dpor.schedules_explored, 70u);

  const ExploreResult dag =
      exploreConverge(2, 1, {100, 101}, ExploreMode::kDag);
  ASSERT_TRUE(dag.verified()) << dag.violation;
  EXPECT_EQ(explorerOutcomeSet(dag, 2), brute)
      << "stateful-search outcome set diverged from the brute-force oracle";
}

// Same, but both processes propose the same value: Convergence demands a
// commit of 100 from everyone, in every schedule — brute-forced, then
// certified again by the explorer over its (complete) outcome set.
TEST(Exhaustive, CommitAdoptConvergenceAllSchedules) {
  const std::set<Outcome> brute = bruteForceTwoProcs({100, 100});
  EXPECT_EQ(brute, (std::set<Outcome>{{Pick{100, true}, Pick{100, true}}}));
  const ExploreResult res =
      exploreConverge(2, 1, {100, 100}, ExploreMode::kDpor);
  ASSERT_TRUE(res.verified()) << res.violation;
  EXPECT_EQ(explorerOutcomeSet(res, 2), brute);
}

// 2-converge with three processes and three distinct values: the contract
// over ALL 34650 interleavings, certified by the explorer instead of
// enumerated. If anyone commits, at most 2 distinct values are picked.
TEST(Exhaustive, TwoConvergeThreeProcessesAllSchedules) {
  const ExploreResult res =
      exploreConverge(3, 2, {100, 101, 102}, ExploreMode::kDpor);
  EXPECT_TRUE(res.verified()) << res.violation;
  EXPECT_LT(res.schedules_explored, 34650u);  // 12!/(4!)^3, enumerated
}

// 1-converge with three processes, two of which share a value: stronger
// agreement pressure, same exhaustive coverage via the explorer.
TEST(Exhaustive, OneConvergeThreeProcessesAllSchedules) {
  const ExploreResult res =
      exploreConverge(3, 1, {100, 100, 101}, ExploreMode::kDpor);
  EXPECT_TRUE(res.verified()) << res.violation;
}

}  // namespace
}  // namespace wfd
