// Schedule-space explorer (sim/explore.h): DPOR + stateful-DAG modes.
//
// The ground truth is the brute-force multiset-permutation enumerator that
// tests/exhaustive_test.cc has always used: at n = 2 the explorer's
// outcome set must equal the brute-force outcome set EXACTLY, in both
// modes. On top of that: the DPOR reduction factor at n = 3, the seeded
// safety bug the explorer must catch (with a replayable counterexample),
// the budget valves, and the footprint commutation table itself.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace wfd {
namespace {

using core::Pick;
using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreOutcome;
using sim::ExploreResult;
using sim::ExploreVerdict;
using sim::OpClass;
using sim::OpFootprint;
using sim::RunConfig;
using sim::Unit;
using sim::footprintsCommute;

// ---- Footprint commutation table -----------------------------------------

OpFootprint fp(OpClass cls, ObjId obj = -1, int slot = -1,
               int fd_epoch = sim::kFdEpochUnstable) {
  return OpFootprint{cls, obj, slot, fd_epoch};
}

TEST(Footprints, DisjointObjectsCommute) {
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kWrite, 1), fp(OpClass::kWrite, 2)));
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kRead, 1), fp(OpClass::kScan, 2)));
  EXPECT_TRUE(
      footprintsCommute(fp(OpClass::kUpdate, 1, 0), fp(OpClass::kScan, 2)));
}

TEST(Footprints, SameObjectReadsCommute) {
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kRead, 1), fp(OpClass::kRead, 1)));
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kScan, 1), fp(OpClass::kScan, 1)));
}

TEST(Footprints, SameObjectWritesConflict) {
  EXPECT_FALSE(footprintsCommute(fp(OpClass::kRead, 1), fp(OpClass::kWrite, 1)));
  EXPECT_FALSE(footprintsCommute(fp(OpClass::kWrite, 1), fp(OpClass::kWrite, 1)));
  EXPECT_FALSE(
      footprintsCommute(fp(OpClass::kScan, 1), fp(OpClass::kUpdate, 1, 0)));
}

TEST(Footprints, UpdatesCommuteIffSlotsDiffer) {
  EXPECT_TRUE(
      footprintsCommute(fp(OpClass::kUpdate, 1, 0), fp(OpClass::kUpdate, 1, 1)));
  EXPECT_FALSE(
      footprintsCommute(fp(OpClass::kUpdate, 1, 0), fp(OpClass::kUpdate, 1, 0)));
}

TEST(Footprints, UnstableFdQueriesNeverCommute) {
  // FD histories are time-indexed: swapping an UNCERTIFIED query across
  // any step can change its answer, so it stays an ordered event of the
  // run — the original conservative relation, and what World::execute
  // always reports (kFdEpochUnstable).
  EXPECT_FALSE(footprintsCommute(fp(OpClass::kFdQuery), fp(OpClass::kNone)));
  EXPECT_FALSE(footprintsCommute(fp(OpClass::kRead, 1), fp(OpClass::kFdQuery)));
  EXPECT_FALSE(
      footprintsCommute(fp(OpClass::kFdQuery), fp(OpClass::kFdQuery)));
}

TEST(Footprints, StableFdQueriesCommuteWithMemorySteps) {
  // A query certified inside a stability interval answers a constant of
  // that interval and touches no shared memory, so it commutes with any
  // memory or local step — no memory op's result depends on time.
  const OpFootprint stable = fp(OpClass::kFdQuery, -1, -1, 0);
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kNone)));
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kRead, 1)));
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kWrite, 1)));
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kScan, 1)));
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kUpdate, 1, 0)));
  EXPECT_TRUE(footprintsCommute(stable, fp(OpClass::kPropose, 1)));
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kWrite, 1), stable));
}

TEST(Footprints, FdQueryPairsCommuteOnlyInsideTheSameEpoch) {
  const OpFootprint epoch0 = fp(OpClass::kFdQuery, -1, -1, 0);
  const OpFootprint unstable = fp(OpClass::kFdQuery);
  // Same certified interval: both answers are the interval's constants,
  // any order gives the same pair of answers.
  EXPECT_TRUE(footprintsCommute(epoch0, epoch0));
  // A stable query never reorders against an unstable one (the swap
  // moves the unstable query in time), in either argument position.
  EXPECT_FALSE(footprintsCommute(epoch0, unstable));
  EXPECT_FALSE(footprintsCommute(unstable, epoch0));
  // Distinct intervals would not share constants; only equal epochs
  // commute (today only epoch 0 is ever certified, but the relation is
  // written for the general interval lattice).
  EXPECT_FALSE(
      footprintsCommute(epoch0, fp(OpClass::kFdQuery, -1, -1, 1)));
}

TEST(Footprints, LocalStepsCommuteWithEverythingElse) {
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kNone), fp(OpClass::kNone)));
  EXPECT_TRUE(footprintsCommute(fp(OpClass::kNone), fp(OpClass::kWrite, 1)));
}

// ---- The k-converge workload (core::kConvergeTask) ------------------------

using Picks = std::vector<Pick>;  // per pid: core::picksOf

sim::AlgoFn convergeAlgo(int k) {
  return [k](Env& e, Value v) { return core::kConvergeTask(e, k, v); };
}

// The k-converge safety contract as an explorer property: checkKConverge's
// C-Validity and C-Agreement ("any commit forces at most k distinct picks
// among the processes that picked"). Crashed processes simply have no
// pick.
ExploreConfig convergeConfig(int n, int k, const std::vector<Value>& props,
                             ExploreMode mode) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = n;
  cfg.mode = mode;
  cfg.property = [k, props](const ExploreOutcome& o) {
    return core::checkKConverge(o.events, k, props).violation;
  };
  return cfg;
}

ExploreResult exploreConverge(int n, int k, const std::vector<Value>& props,
                              ExploreMode mode) {
  return explore(convergeConfig(n, k, props, mode), convergeAlgo(k), props);
}

std::set<Picks> explorerPickSet(const ExploreResult& res, int n) {
  std::set<Picks> out;
  for (const auto& [sig, o] : res.outcomes) {
    out.insert(core::picksOf(o.events, n));
  }
  return out;
}

// ---- n = 2: explorer vs. the 70-schedule brute force, both modes ---------

TEST(Explore, TwoProcOutcomeSetEqualsBruteForceExactly) {
  const std::vector<Value> props = {100, 101};
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  std::set<Picks> brute;
  int schedules = 0;
  test::forEachInterleaving({4, 4}, [&](const std::vector<Pid>& seq) {
    ++schedules;
    const sim::RunResult rr =
        test::runScheduled(cfg, convergeAlgo(1), props, seq);
    EXPECT_TRUE(rr.all_correct_done);
    brute.insert(core::picksOf(rr.trace().events(), 2));
  });
  ASSERT_EQ(schedules, 70);  // C(8,4)

  const ExploreResult dpor = exploreConverge(2, 1, props, ExploreMode::kDpor);
  EXPECT_TRUE(dpor.verified()) << dpor.violation;
  EXPECT_GT(dpor.schedules_explored, 0u);
  EXPECT_LE(dpor.schedules_explored, 70u);
  EXPECT_EQ(explorerPickSet(dpor, 2), brute);

  const ExploreResult dag = exploreConverge(2, 1, props, ExploreMode::kDag);
  EXPECT_TRUE(dag.verified()) << dag.violation;
  EXPECT_EQ(explorerPickSet(dag, 2), brute);
  // The memoized DAG walk covers all 70 schedules without running them.
  EXPECT_LT(dag.steps_executed, 70u * 8u);
}

TEST(Explore, TwoProcSameProposalAlwaysCommits) {
  // Convergence: identical proposals must commit in EVERY schedule — an
  // exhaustive claim the explorer can actually certify.
  const std::vector<Value> props = {100, 100};
  ExploreConfig cfg = convergeConfig(2, 1, props, ExploreMode::kDpor);
  cfg.property = [props](const ExploreOutcome& o) -> std::string {
    const core::ConvergeReport rep = core::checkKConverge(o.events, 1, props);
    if (!rep.ok()) return rep.violation;
    return rep.commits == 2 ? "" : "a process did not pick";
  };
  const ExploreResult res = explore(cfg, convergeAlgo(1), props);
  EXPECT_TRUE(res.verified()) << res.violation;
}

// ---- n = 3: the reduction claim ------------------------------------------

TEST(Explore, ThreeProcDporReducesAtLeastFiveFold) {
  const std::vector<Value> props = {100, 101, 102};
  const ExploreResult dpor = exploreConverge(3, 2, props, ExploreMode::kDpor);
  EXPECT_TRUE(dpor.verified()) << dpor.violation;
  // Full permutation count is 12!/(4!)^3 = 34650; the acceptance bar is
  // at least a 5x reduction.
  EXPECT_LE(dpor.schedules_explored, 34650u / 5u);
  EXPECT_GT(dpor.sleep_set_skips, 0u);
  EXPECT_GT(dpor.restores, 0u);

  // Cross-check the verdict and the outcome set against the complete
  // stateful search.
  const ExploreResult dag = exploreConverge(3, 2, props, ExploreMode::kDag);
  EXPECT_TRUE(dag.verified()) << dag.violation;
  EXPECT_GT(dag.memo_hits, 0u);
  EXPECT_EQ(explorerPickSet(dpor, 3), explorerPickSet(dag, 3));
}

// kDag probes its memo between the world op and the frame's resume: a hit
// rolls back only the world, so no frame moves. The search is the one the
// resume-then-probe walk made (570 schedules, 2,002 states, 945 hits);
// only the executed steps drop, below that walk's 3,516.
TEST(Explore, DagProbesTheMemoBeforeTheFrameMoves) {
  const ExploreResult dag =
      exploreConverge(3, 2, {100, 101, 102}, ExploreMode::kDag);
  EXPECT_TRUE(dag.verified()) << dag.violation;
  EXPECT_TRUE(dag.complete);
  EXPECT_EQ(dag.schedules_explored, 570u);
  EXPECT_EQ(dag.states_memoized, 2002u);
  EXPECT_EQ(dag.memo_hits, 945u);
  EXPECT_LT(dag.steps_executed, 3516u);
}

// ---- Many outcomes: kDag's memo against the plain search and kDpor ------

// Each process bumps a shared counter twice without a lock and notes what
// every read returned, so lost updates give many distinct outcomes.
Coro<Unit> counterBumps(Env& env, Value v) {
  env.propose(v);
  const ObjId c = env.reg(sim::ObjKey{"x.count"});
  for (int i = 0; i < 2; ++i) {
    const sim::OpResult r = co_await env.read(c);
    const Value seen = r.scalar.isBottom() ? 0 : r.scalar.asInt();
    env.note("saw", RegVal(seen));
    co_await env.write(c, RegVal(seen + 1));
  }
  co_return Unit{};
}

TEST(Explore, OverSixtyFourOutcomesAgreeWithAndWithoutTheMemo) {
  const std::vector<Value> props = {100, 101, 102};
  const sim::AlgoFn algo = [](Env& e, Value v) { return counterBumps(e, v); };
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 3;
  cfg.property = [](const ExploreOutcome& o) -> std::string {
    for (const auto& e : o.events) {
      if (e.kind == sim::EventKind::kNote && e.value.asInt() > 5) {
        return "read a count no schedule can reach";
      }
    }
    return "";
  };
  cfg.mode = ExploreMode::kDag;
  const ExploreResult memo = explore(cfg, algo, props);
  cfg.memoize = false;
  const ExploreResult plain = explore(cfg, algo, props);
  cfg.mode = ExploreMode::kDpor;
  const ExploreResult dpor = explore(cfg, algo, props);

  EXPECT_GT(memo.outcomeSigs().size(), 64u);
  EXPECT_GT(memo.memo_hits, 0u);
  EXPECT_EQ(plain.memo_hits, 0u);
  for (const ExploreResult* r : {&memo, &plain, &dpor}) {
    EXPECT_TRUE(r->verified()) << r->violation;
  }
  EXPECT_EQ(memo.outcomeSigs(), plain.outcomeSigs());
  EXPECT_EQ(memo.outcomeSigs(), dpor.outcomeSigs());
}

// ---- The seeded bug: a broken commit-adopt the explorer must catch -------

TEST(Explore, SeededBugIsCaughtWithReplayableCounterexample) {
  const std::vector<Value> props = {100, 101};
  const ExploreConfig cfg = convergeConfig(2, 1, props, ExploreMode::kDpor);
  const ExploreResult res = explore(cfg, test::buggyOneShot, props);

  ASSERT_EQ(res.verdict, ExploreVerdict::kViolation);
  EXPECT_NE(res.violation.find("C-Agreement"), std::string::npos)
      << res.violation;
  // bench_explore's bug-hunt-n2 row pins the same length.
  EXPECT_EQ(res.counterexample.size(), 4u);
  EXPECT_FALSE(res.counterexampleString().empty());

  // The counterexample must REPLAY: the same pid sequence through a
  // scripted policy reproduces the violation.
  const sim::RunResult rr = test::runScheduled(
      cfg.run, test::buggyOneShot, props, res.counterexample);
  EXPECT_FALSE(core::checkKConverge(rr.trace().events(), 1, props).agreement);

  // The honest protocol has no such schedule — and the DAG oracle agrees
  // the bug is real.
  const ExploreResult dag =
      explore(convergeConfig(2, 1, props, ExploreMode::kDag),
              test::buggyOneShot, props);
  EXPECT_EQ(dag.verdict, ExploreVerdict::kViolation);
}

// ---- Refined FD-independence on a live workload --------------------------

// FD-bearing mini-protocol: two queries bracketing a snapshot update, so
// the refined relation has real query×query, query×update and query×scan
// pairs to classify. The noted answers make every query's value part of
// the outcome signature — a misclassified commutation that changed any
// answer would split the DPOR and DAG outcome sets.
Coro<Unit> fdWorkload(Env& env, Value v) {
  env.propose(v);
  const sim::OpResult a = co_await env.queryFd();
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.fd"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const sim::OpResult b = co_await env.queryFd();
  const SlotArray view = co_await mem::snapshotScan(env, s);
  env.note("fd1", a.scalar);
  env.note("fd2", b.scalar);
  env.note("seen",
           RegVal(static_cast<Value>(mem::distinctValues(view).size())));
  env.decide(v);
  co_return Unit{};
}

ExploreResult exploreFdWorkload(ExploreMode mode, Time stab_time) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.run.fd = fd::makeUpsilon(sim::FailurePattern::failureFree(2), stab_time,
                               /*seed=*/3);
  cfg.mode = mode;
  return explore(cfg, [](Env& e, Value v) { return fdWorkload(e, v); },
                 {100, 101});
}

TEST(Explore, RefinedFdRelationMatchesTheDagOracle) {
  // In the stability window (stab_time = 0: every query is epoch-0
  // stable) AND out of it (stab_time = 100: no causal past ever spans
  // 100 steps, so every query stays unstable), DPOR under the refined
  // relation must reproduce the complete stateful search's outcome set.
  for (const Time stab : {Time{0}, Time{100}}) {
    const ExploreResult dpor = exploreFdWorkload(ExploreMode::kDpor, stab);
    const ExploreResult dag = exploreFdWorkload(ExploreMode::kDag, stab);
    EXPECT_TRUE(dpor.verified()) << dpor.violation;
    EXPECT_TRUE(dag.verified()) << dag.violation;
    EXPECT_EQ(dpor.outcomeSigs(), dag.outcomeSigs()) << "stab=" << stab;
  }
}

TEST(Explore, StableQueriesShrinkTheDporSearch) {
  // The whole point of the refined relation: certified-stable queries
  // commute, so the stabilized history explores strictly fewer trace
  // classes than the same workload under a never-certified history.
  const ExploreResult stable = exploreFdWorkload(ExploreMode::kDpor, 0);
  const ExploreResult unstable = exploreFdWorkload(ExploreMode::kDpor, 100);
  EXPECT_LT(stable.schedules_explored, unstable.schedules_explored);
}

TEST(Explore, StableFdDoesNotOverrideCrashRefusal) {
  // Query × crash boundary: a stability certificate never licenses DPOR
  // across a crash time — enabledness still depends on clock position,
  // so the engine refuses the pattern outright; kDag covers it instead.
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.run.fp = sim::FailurePattern::withCrashes(2, {{1, 3}});
  cfg.run.fd = fd::makeUpsilon(*cfg.run.fp, /*stab_time=*/0, /*seed=*/3);
  cfg.mode = ExploreMode::kDpor;
  EXPECT_THROW(
      explore(cfg, [](Env& e, Value v) { return fdWorkload(e, v); },
              {100, 101}),
      sim::SimAbort);
  cfg.mode = ExploreMode::kDag;
  const ExploreResult dag = explore(
      cfg, [](Env& e, Value v) { return fdWorkload(e, v); }, {100, 101});
  EXPECT_TRUE(dag.verified()) << dag.violation;
}

// ---- Budget valves and mode preconditions --------------------------------

TEST(Explore, ScheduleBudgetCutsSearchIncomplete) {
  const std::vector<Value> props = {100, 101, 102};
  ExploreConfig cfg = convergeConfig(3, 2, props, ExploreMode::kDpor);
  cfg.max_schedules = 3;
  const ExploreResult res = explore(
      cfg, convergeAlgo(2), props);
  EXPECT_FALSE(res.complete);
  EXPECT_FALSE(res.verified());
  EXPECT_LE(res.schedules_explored, 3u);
}

// A kDag walk that stops early, cut by the schedule budget or stopped by
// a violation, still reports the states it memoized before it stopped.
TEST(Explore, StoppedDagWalksReportTheirMemo) {
  const std::vector<Value> props = {100, 101, 102};
  ExploreConfig cut = convergeConfig(3, 2, props, ExploreMode::kDag);
  cut.max_schedules = 40;
  const ExploreResult c = explore(
      cut, convergeAlgo(2), props);
  EXPECT_FALSE(c.complete);
  ASSERT_GT(c.memo_hits, 0u);
  EXPECT_GT(c.states_memoized, 0u);

  // A property that fails on the 40th terminal state it is shown.
  ExploreConfig late = convergeConfig(3, 2, props, ExploreMode::kDag);
  late.property = [seen = 0](const ExploreOutcome&) mutable -> std::string {
    return ++seen == 40 ? "the 40th outcome" : "";
  };
  const ExploreResult v = explore(
      late, convergeAlgo(2), props);
  ASSERT_EQ(v.verdict, ExploreVerdict::kViolation);
  ASSERT_GT(v.memo_hits, 0u);
  EXPECT_GT(v.states_memoized, 0u);
}

TEST(Explore, DepthBudgetCutsSearchIncomplete) {
  const std::vector<Value> props = {100, 101};
  ExploreConfig cfg = convergeConfig(2, 1, props, ExploreMode::kDpor);
  cfg.max_depth = 3;  // the workload needs 8 steps
  const ExploreResult res = explore(
      cfg, convergeAlgo(1), props);
  EXPECT_FALSE(res.complete);
}

TEST(Explore, DporRefusesCrashPatterns) {
  ExploreConfig cfg = convergeConfig(2, 1, {100, 101}, ExploreMode::kDpor);
  cfg.run.fp = sim::FailurePattern::withCrashes(2, {{1, 3}});
  EXPECT_THROW(explore(cfg, convergeAlgo(1),
                       {100, 101}),
               sim::SimAbort);
}

TEST(Explore, DagExploresCrashPatterns) {
  // p2 crashes at time 3: some schedules lose its steps entirely, others
  // see its phase-1 write. The stateful search handles both; the
  // property tolerates the missing pick.
  const std::vector<Value> props = {100, 101};
  ExploreConfig cfg = convergeConfig(2, 1, props, ExploreMode::kDag);
  cfg.run.fp = sim::FailurePattern::withCrashes(2, {{1, 3}});
  const ExploreResult res = explore(
      cfg, convergeAlgo(1), props);
  EXPECT_TRUE(res.verified()) << res.violation;
  EXPECT_GT(res.schedules_explored, 0u);
}

}  // namespace
}  // namespace wfd
