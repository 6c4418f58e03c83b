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

using core::kConverge;
using core::Pick;
using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreOutcome;
using sim::ExploreResult;
using sim::RunConfig;
using sim::Unit;

Coro<Unit> oneShot(Env& env, int k, Value v) {
  env.propose(v);
  const Pick p = co_await kConverge(env, sim::ObjKey{"x.conv"}, k, v);
  env.note(p.committed ? "commit" : "adopt", RegVal(p.value));
  env.decide(p.value);
  co_return Unit{};
}

struct Outcome {
  std::vector<Value> picked;      // per pid
  std::vector<bool> committed;    // per pid
  friend bool operator<(const Outcome& a, const Outcome& b) {
    if (a.picked != b.picked) return a.picked < b.picked;
    return a.committed < b.committed;
  }
  friend bool operator==(const Outcome& a, const Outcome& b) {
    return a.picked == b.picked && a.committed == b.committed;
  }
};

Outcome outcomeOfEvents(const std::vector<sim::Event>& events, int n) {
  Outcome out;
  out.picked.resize(static_cast<std::size_t>(n), kBottomValue);
  out.committed.resize(static_cast<std::size_t>(n), false);
  for (const auto& e : events) {
    if (e.kind == sim::EventKind::kNote) {
      out.picked[static_cast<std::size_t>(e.pid)] = e.value.asInt();
      out.committed[static_cast<std::size_t>(e.pid)] = (e.label == "commit");
    }
  }
  return out;
}

Outcome runSchedule(int n, int k, const std::vector<Pid>& seq,
                    const std::vector<Value>& props) {
  RunConfig cfg;
  cfg.n_plus_1 = n;
  sim::Run run(cfg, [k](Env& e, Value v) { return oneShot(e, k, v); }, props);
  sim::ScriptedPolicy policy(seq, std::make_unique<sim::RoundRobinPolicy>());
  const Time taken = run.scheduler().run(policy, 10'000);
  const auto rr = run.finish(taken);
  EXPECT_TRUE(rr.all_correct_done);
  return outcomeOfEvents(rr.trace().events(), n);
}

ExploreResult exploreConverge(int n, int k, const std::vector<Value>& props,
                              ExploreMode mode) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = n;
  cfg.mode = mode;
  return explore(cfg, [k](Env& e, Value v) { return oneShot(e, k, v); },
                 props);
}

std::set<Outcome> explorerOutcomeSet(const ExploreResult& res, int n) {
  std::set<Outcome> out;
  for (const auto& [sig, o] : res.outcomes) {
    out.insert(outcomeOfEvents(o.events, n));
  }
  return out;
}

// 1-converge with two processes is commit-adopt: check its contract in
// every one of the 70 interleavings, and hold the explorer to the exact
// same outcome set — the brute force is the oracle for both modes.
TEST(Exhaustive, CommitAdoptTwoProcessesAllSchedules) {
  int schedules = 0;
  std::set<Outcome> brute;
  test::forEachInterleaving({4, 4}, [&](const std::vector<Pid>& seq) {
    ++schedules;
    const Outcome out = runSchedule(2, 1, seq, {100, 101});
    for (int p = 0; p < 2; ++p) {
      // C-Validity.
      EXPECT_TRUE(out.picked[static_cast<std::size_t>(p)] == 100 ||
                  out.picked[static_cast<std::size_t>(p)] == 101);
    }
    // C-Agreement for k = 1: any commit forces both picks equal.
    if (out.committed[0] || out.committed[1]) {
      EXPECT_EQ(out.picked[0], out.picked[1])
          << "schedule #" << schedules;
    }
    brute.insert(out);
  });
  EXPECT_EQ(schedules, 70);  // C(8,4)

  const ExploreResult dpor =
      exploreConverge(2, 1, {100, 101}, ExploreMode::kDpor);
  ASSERT_TRUE(dpor.verified());
  EXPECT_EQ(explorerOutcomeSet(dpor, 2), brute)
      << "DPOR outcome set diverged from the brute-force oracle";
  EXPECT_LE(dpor.schedules_explored, 70u);

  const ExploreResult dag =
      exploreConverge(2, 1, {100, 101}, ExploreMode::kDag);
  ASSERT_TRUE(dag.verified());
  EXPECT_EQ(explorerOutcomeSet(dag, 2), brute)
      << "stateful-search outcome set diverged from the brute-force oracle";
}

// Same, but both processes propose the same value: Convergence demands a
// commit from everyone, in every schedule — brute-forced, then certified
// again by the explorer over its (complete) outcome set.
TEST(Exhaustive, CommitAdoptConvergenceAllSchedules) {
  std::set<Outcome> brute;
  test::forEachInterleaving({4, 4}, [&](const std::vector<Pid>& seq) {
    const Outcome out = runSchedule(2, 1, seq, {100, 100});
    EXPECT_TRUE(out.committed[0]);
    EXPECT_TRUE(out.committed[1]);
    EXPECT_EQ(out.picked[0], 100);
    EXPECT_EQ(out.picked[1], 100);
    brute.insert(out);
  });
  const ExploreResult res =
      exploreConverge(2, 1, {100, 100}, ExploreMode::kDpor);
  ASSERT_TRUE(res.verified());
  EXPECT_EQ(explorerOutcomeSet(res, 2), brute);
}

// 2-converge with three processes and three distinct values: the contract
// over ALL 34650 interleavings, certified by the explorer instead of
// enumerated. If anyone commits, at most 2 distinct values are picked.
TEST(Exhaustive, TwoConvergeThreeProcessesAllSchedules) {
  const ExploreResult res =
      exploreConverge(3, 2, {100, 101, 102}, ExploreMode::kDpor);
  ASSERT_TRUE(res.complete);
  EXPECT_LT(res.schedules_explored, 34650u);  // 12!/(4!)^3, enumerated
  for (const auto& [sig, o] : res.outcomes) {
    const Outcome out = outcomeOfEvents(o.events, 3);
    const bool any_commit =
        out.committed[0] || out.committed[1] || out.committed[2];
    if (any_commit) {
      std::set<Value> vals(out.picked.begin(), out.picked.end());
      EXPECT_LE(vals.size(), 2u);
    }
  }
}

// 1-converge with three processes, two of which share a value: stronger
// agreement pressure, same exhaustive coverage via the explorer.
TEST(Exhaustive, OneConvergeThreeProcessesAllSchedules) {
  const ExploreResult res =
      exploreConverge(3, 1, {100, 100, 101}, ExploreMode::kDpor);
  ASSERT_TRUE(res.complete);
  for (const auto& [sig, o] : res.outcomes) {
    const Outcome out = outcomeOfEvents(o.events, 3);
    const bool any_commit =
        out.committed[0] || out.committed[1] || out.committed[2];
    if (any_commit) {
      std::set<Value> vals(out.picked.begin(), out.picked.end());
      EXPECT_LE(vals.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace wfd
