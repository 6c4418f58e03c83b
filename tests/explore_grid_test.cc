// Differential grid for the schedule explorer (sim/explore.h).
//
// Seeded straight-line programs — each process runs a fixed list of 2-3
// atomic ops drawn from reads and writes of two registers, an update and a
// scan of one snapshot, and a query of a pinnable Upsilon that stabilizes
// a few steps in — at n+1 = 2 and 3, failure-free. Every op's result is
// noted, so the outcome records what each process saw. The oracle runs
// every interleaving of the fixed per-process step counts with
// ScriptedPolicy; four explorer configurations must reproduce its outcome
// set exactly: classic kDpor, frontier kDpor at jobs 1, and kDag with and
// without the memo. The stabilization time varies by seed, so some queries
// are certified stable by the stability-epoch relation and others are not.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "test_util.h"

namespace wfd {
namespace {

using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreResult;
using sim::Unit;

enum GridOp { kRead0, kRead1, kWrite0, kWrite1, kUpdate, kScan, kQuery };
constexpr int kGridOps = 7;

struct GridProgram {
  int n = 2;
  Time stab_time = 0;
  std::vector<std::vector<GridOp>> ops;  // per process, in program order
};

GridProgram makeProgram(int n, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(n));
  GridProgram g;
  g.n = n;
  g.stab_time = static_cast<Time>(rng.below(5));
  g.ops.resize(static_cast<std::size_t>(n));
  for (auto& ops : g.ops) {
    const auto len = 2 + rng.below(2);
    for (std::uint64_t i = 0; i < len; ++i) {
      ops.push_back(static_cast<GridOp>(rng.below(kGridOps)));
    }
  }
  return g;
}

std::string describe(const GridProgram& g) {
  static const char* const kNames[] = {"r0", "r1", "w0", "w1",
                                       "upd", "scan", "fd"};
  std::string s = "stab=" + std::to_string(g.stab_time);
  for (std::size_t p = 0; p < g.ops.size(); ++p) {
    s += " p" + std::to_string(p + 1) + ":";
    for (const GridOp op : g.ops[p]) s += std::string(" ") + kNames[op];
  }
  return s;
}

Coro<Unit> straightLine(Env& env, const std::vector<GridOp>& ops, Value v) {
  const ObjId reg[2] = {env.reg(sim::ObjKey{"grid.r0"}),
                        env.reg(sim::ObjKey{"grid.r1"})};
  const ObjId snap = env.snap(sim::ObjKey{"grid.s"}, env.nProcs());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Value written = v * 10 + static_cast<Value>(i);
    switch (ops[i]) {
      case kRead0:
      case kRead1: {
        const sim::OpResult r = co_await env.read(reg[ops[i] - kRead0]);
        env.note("read", r.scalar);
        break;
      }
      case kWrite0:
      case kWrite1:
        co_await env.write(reg[ops[i] - kWrite0], RegVal(written));
        break;
      case kUpdate:
        co_await env.snapUpdate(snap, env.me(), RegVal(written));
        break;
      case kScan: {
        const sim::OpResult r = co_await env.snapScan(snap);
        for (const RegVal& cell : r.snapshot) env.note("cell", cell);
        break;
      }
      case kQuery: {
        const sim::OpResult r = co_await env.queryFd();
        env.note("fd", r.scalar);
        break;
      }
    }
  }
  env.decide(v);
  co_return Unit{};
}

sim::AlgoFn algoOf(const GridProgram& g) {
  return [&g](Env& e, Value v) {
    return straightLine(e, g.ops[static_cast<std::size_t>(e.me())], v);
  };
}

sim::RunConfig runConfig(const GridProgram& g) {
  sim::RunConfig cfg;
  cfg.n_plus_1 = g.n;
  cfg.fd = fd::makeUpsilon(sim::FailurePattern::failureFree(g.n), g.stab_time,
                           /*noise_seed=*/7);
  return cfg;
}

// An outcome, comparable across the oracle and the explorer: every event
// per process, in program order.
using EventKey = std::tuple<int, std::string, std::uint64_t>;
using Outcome = std::vector<std::vector<EventKey>>;

Outcome outcomeOf(const std::vector<sim::Event>& events, int n) {
  Outcome o(static_cast<std::size_t>(n));
  for (const sim::Event& e : events) {
    o[static_cast<std::size_t>(e.pid)].emplace_back(
        static_cast<int>(e.kind), e.label, e.value.hash64());
  }
  return o;
}

std::set<Outcome> explored(const GridProgram& g, const std::vector<Value>& pv,
                           ExploreMode mode, bool memoize, int jobs) {
  ExploreConfig cfg;
  cfg.run = runConfig(g);
  cfg.mode = mode;
  cfg.memoize = memoize;
  cfg.jobs = jobs;
  const ExploreResult res = explore(cfg, algoOf(g), pv);
  EXPECT_TRUE(res.verified());
  std::set<Outcome> out;
  for (const auto& [sig, o] : res.outcomes) {
    out.insert(outcomeOf(o.events, g.n));
  }
  return out;
}

// Returns how many programs had more than one outcome, so a caller can
// check that the grid is not vacuous.
int checkGrid(int n, int programs) {
  const std::vector<Value> pv = test::distinctProposals(n);
  int branching = 0;
  for (int seed = 1; seed <= programs; ++seed) {
    const GridProgram g = makeProgram(n, static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + describe(g));
    std::vector<int> counts;
    int total = 0;
    for (const auto& ops : g.ops) {
      counts.push_back(static_cast<int>(ops.size()));
      total += static_cast<int>(ops.size());
    }
    std::set<Outcome> oracle;
    test::forEachInterleaving(counts, [&](const std::vector<Pid>& seq) {
      const sim::RunResult rr =
          test::runScheduled(runConfig(g), algoOf(g), pv, seq);
      EXPECT_TRUE(rr.all_correct_done);
      EXPECT_EQ(rr.steps, total);  // the schedule fixed every step
      oracle.insert(outcomeOf(rr.trace().events(), g.n));
    });
    EXPECT_FALSE(oracle.empty());
    EXPECT_EQ(explored(g, pv, ExploreMode::kDpor, true, 0), oracle)
        << "classic kDpor";
    EXPECT_EQ(explored(g, pv, ExploreMode::kDpor, true, 1), oracle)
        << "frontier kDpor, jobs 1";
    EXPECT_EQ(explored(g, pv, ExploreMode::kDag, true, 0), oracle)
        << "kDag with the memo";
    EXPECT_EQ(explored(g, pv, ExploreMode::kDag, false, 0), oracle)
        << "kDag without the memo";
    if (oracle.size() > 1) ++branching;
  }
  return branching;
}

TEST(ExploreGrid, TwoProcessProgramsMatchBruteForce) {
  EXPECT_GE(checkGrid(2, 40), 28);
}

TEST(ExploreGrid, ThreeProcessProgramsMatchBruteForce) {
  EXPECT_GE(checkGrid(3, 24), 20);
}

}  // namespace
}  // namespace wfd
