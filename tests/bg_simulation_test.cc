// Safe agreement and BG simulation ([2]): the building blocks of the
// paper's f-resilient impossibility machinery, run for real.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/bg_simulation.h"
#include "core/safe_agreement.h"
#include "test_util.h"

namespace wfd {
namespace {

using core::BgConfig;
using core::bgSimulator;
using core::minOfQuorumProgram;
using core::saPropose;
using core::saResolve;
using core::saTryResolve;
using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::Unit;

// ---- Safe agreement ----

Coro<Unit> saWorker(Env& env, Value v) {
  co_await saPropose(env, sim::ObjKey{"t.sa"}, v);
  const Value d = co_await saResolve(env, sim::ObjKey{"t.sa"});
  env.decide(d);
  co_return Unit{};
}

TEST(SafeAgreement, AgreementAndValidityAcrossSchedules) {
  for (int n_plus_1 : {2, 3, 5}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RunConfig cfg;
      cfg.n_plus_1 = n_plus_1;
      cfg.seed = seed;
      const auto props = test::distinctProposals(n_plus_1);
      const auto rr = sim::runTask(
          cfg, [](Env& e, Value v) { return saWorker(e, v); }, props);
      ASSERT_TRUE(rr.all_correct_done) << "seed " << seed;
      const auto rep = core::checkKSetAgreement(rr, 1, props);
      EXPECT_TRUE(rep.ok()) << rep.violation;  // consensus-grade agreement
    }
  }
}

TEST(SafeAgreement, DoorwayCrashBlocksResolution) {
  // p1 crashes right after raising its flag (one step into propose):
  // resolution must block forever — the defining weakness.
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  // propose's first step is the level-1 write; crash p1 right after its
  // first step. Scripted: p1 takes exactly 1 step, then others run.
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{0, 1}});
  cfg.max_steps = 30'000;
  const auto rr = test::runScheduled(
      cfg, [](Env& e, Value v) { return saWorker(e, v); },
      test::distinctProposals(n_plus_1), {0});
  // Nobody can decide: p1 sits at level 1 forever.
  EXPECT_FALSE(rr.all_correct_done);
  EXPECT_TRUE(rr.decisions.empty());
}

TEST(SafeAgreement, CleanCrashDoesNotBlock) {
  // p1 crashes before taking any step: it never enters the doorway, so
  // the others resolve fine.
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{0, 0}});
  const auto props = test::distinctProposals(n_plus_1);
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value v) { return saWorker(e, v); }, props);
  EXPECT_TRUE(rr.all_correct_done);
  EXPECT_EQ(rr.distinctDecisions(), 1);
}

// ---- BG simulation ----

struct BgOutcome {
  // simulator pid -> (simulated j -> decision)
  std::map<Pid, std::map<int, Value>> per_simulator;
};

BgOutcome harvest(const sim::RunResult& rr) {
  BgOutcome out;
  for (const auto& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kNote ||
        e.label.rfind("bg.decide.", 0) != 0) {
      continue;
    }
    const int j = std::stoi(e.label.substr(10));
    out.per_simulator[e.pid][j] = e.value.asInt();
  }
  return out;
}

TEST(BgSimulation, SimulatorsReconstructIdenticalRuns) {
  // 2 simulators (f = 1), 3 simulated processes, quorum m - f = 2.
  BgConfig bg;
  bg.simulators = 2;
  bg.simulated = 3;
  bg.inputs = {101, 102, 103};
  const auto prog = minOfQuorumProgram(2);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = bg.simulators;
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg, [&](Env& e, Value) { return bgSimulator(e, bg, prog); },
        std::vector<Value>(static_cast<std::size_t>(bg.simulators), 0));
    ASSERT_TRUE(rr.all_correct_done) << "seed " << seed;
    const auto out = harvest(rr);
    ASSERT_EQ(out.per_simulator.size(), 2u);
    // The decisive BG property: both simulators computed the *same*
    // simulated run — identical decisions for every simulated process.
    EXPECT_EQ(out.per_simulator.at(0), out.per_simulator.at(1))
        << "seed " << seed;
    // And the simulated task's semantics: decisions are inputs, at most
    // 2 distinct (mins of a containment chain of >= 2-quorum views).
    std::set<Value> vals;
    for (const auto& [j, v] : out.per_simulator.at(0)) {
      EXPECT_TRUE(v == 101 || v == 102 || v == 103);
      vals.insert(v);
    }
    EXPECT_LE(vals.size(), 2u);
  }
}

TEST(BgSimulation, SurvivesSimulatorCrash) {
  // One of the two simulators dies mid-run; the survivor still finishes
  // at least m - f = 2 simulated processes (a doorway crash can block
  // one simulated process forever).
  BgConfig bg;
  bg.simulators = 2;
  bg.simulated = 3;
  bg.inputs = {7, 5, 9};
  bg.max_iterations = 4000;
  const auto prog = minOfQuorumProgram(2);
  int total_blocked = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = bg.simulators;
    cfg.seed = seed;
    cfg.fp = FailurePattern::withCrashes(2, {{1, static_cast<Time>(5 + seed * 3)}});
    cfg.max_steps = 2'000'000;
    const auto rr = sim::runTask(
        cfg, [&](Env& e, Value) { return bgSimulator(e, bg, prog); },
        std::vector<Value>(static_cast<std::size_t>(bg.simulators), 0));
    const auto out = harvest(rr);
    const auto it = out.per_simulator.find(0);
    ASSERT_NE(it, out.per_simulator.end()) << "seed " << seed;
    EXPECT_GE(it->second.size(), 2u)
        << "seed " << seed << ": more than f simulated processes blocked";
    if (it->second.size() < 3u) ++total_blocked;
    for (const auto& [j, v] : it->second) {
      EXPECT_TRUE(v == 7 || v == 5 || v == 9);
    }
  }
  // The crash seeds should actually exercise the blocked case sometimes;
  // if never, the test is too gentle to mean anything.
  // (Not asserted hard — crash timing vs doorway windows is seed-luck.)
  (void)total_blocked;
}

TEST(BgSimulation, SimulatedCommitAdoptKeepsItsContract) {
  // A real protocol building block run UNDER the simulation: commit-adopt
  // in the snapshot model. In every run, (a) all simulators reconstruct
  // the same simulated decisions, (b) if any simulated process commits v,
  // every simulated decision carries v, and (c) identical inputs commit.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    BgConfig bg;
    bg.simulators = 2;
    bg.simulated = 3;
    const bool same_inputs = (seed % 4 == 0);
    bg.inputs = same_inputs ? std::vector<Value>{5, 5, 5}
                            : std::vector<Value>{5, 6, 7};
    const auto prog = core::commitAdoptProgram();
    RunConfig cfg;
    cfg.n_plus_1 = bg.simulators;
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg, [&](Env& e, Value) { return bgSimulator(e, bg, prog); },
        std::vector<Value>(static_cast<std::size_t>(bg.simulators), 0));
    ASSERT_TRUE(rr.all_correct_done) << "seed " << seed;
    const auto out = harvest(rr);
    ASSERT_EQ(out.per_simulator.size(), 2u);
    EXPECT_EQ(out.per_simulator.at(0), out.per_simulator.at(1));

    Value committed = kBottomValue;
    for (const auto& [j, enc] : out.per_simulator.at(0)) {
      const auto [v, c] = core::caDecode(enc);
      EXPECT_TRUE(v == 5 || v == 6 || v == 7);
      if (c) committed = v;
    }
    if (committed != kBottomValue) {
      for (const auto& [j, enc] : out.per_simulator.at(0)) {
        EXPECT_EQ(core::caDecode(enc).first, committed)
            << "seed " << seed << ": a commit must bind every decision";
      }
    }
    if (same_inputs) {
      for (const auto& [j, enc] : out.per_simulator.at(0)) {
        EXPECT_TRUE(core::caDecode(enc).second)
            << "seed " << seed << ": identical inputs must commit";
        EXPECT_EQ(core::caDecode(enc).first, 5);
      }
    }
  }
}

TEST(BgSimulation, FullViewQuorumNeedsAllSimulated) {
  // quorum = m: every simulated process must see everyone; decisions all
  // equal the global min.
  BgConfig bg;
  bg.simulators = 3;
  bg.simulated = 4;
  bg.inputs = {40, 10, 30, 20};
  const auto prog = minOfQuorumProgram(4);
  RunConfig cfg;
  cfg.n_plus_1 = bg.simulators;
  cfg.seed = 5;
  const auto rr = sim::runTask(
      cfg, [&](Env& e, Value) { return bgSimulator(e, bg, prog); },
      std::vector<Value>(static_cast<std::size_t>(bg.simulators), 0));
  ASSERT_TRUE(rr.all_correct_done);
  const auto out = harvest(rr);
  for (const auto& [pid, decs] : out.per_simulator) {
    ASSERT_EQ(decs.size(), 4u);
    for (const auto& [j, v] : decs) EXPECT_EQ(v, 10);
  }
}

}  // namespace
}  // namespace wfd
