// Liveness: who may step now (run condition (1), paper Sect. 3.2-3.3).
//
// A process takes a step at t only if it is not finished and not in F(t).
// The World keeps F(now) and correct(F); the scheduler derives runnable()
// and allCorrectDone() from them and its own set of unfinished processes.
// These tests hold both to the definition, re-derived by a full scan of
// every slot after every action that can move the clock, the pattern or
// the set of finished processes: steps, chaos-style crash injection, run
// checkpoints and restores, and world-only restores.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"

namespace wfd {
namespace {

using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::ObjKey;
using sim::RunConfig;
using sim::Unit;

// `v` writes, then a decision: a process of finite length v.
Coro<Unit> writesThenDecide(Env& env, Value v) {
  const sim::ObjId r = env.reg(ObjKey{"live", env.me()});
  for (Value i = 1; i <= v; ++i) co_await env.write(r, RegVal(i));
  env.decide(v);
  co_return Unit{};
}

sim::AlgoFn writer() {
  return [](Env& e, Value v) { return writesThenDecide(e, v); };
}

// The reference: every slot scanned against the pattern and the clock.
ProcSet runnableScan(sim::Run& run) {
  ProcSet s;
  const sim::World& w = run.world();
  for (Pid p = 0; p < w.nProcs(); ++p) {
    if (!run.scheduler().ctx(p).done && w.pattern().crashTime(p) > w.now()) {
      s.insert(p);
    }
  }
  return s;
}

bool correctUndoneScan(sim::Run& run) {
  const sim::World& w = run.world();
  for (Pid p = 0; p < w.nProcs(); ++p) {
    if (!run.scheduler().ctx(p).done && w.pattern().isCorrect(p)) return true;
  }
  return false;
}

void expectMatchesScan(sim::Run& run, const std::string& where) {
  EXPECT_EQ(run.scheduler().runnable().toString(), runnableScan(run).toString())
      << where;
  EXPECT_EQ(run.scheduler().allCorrectDone(), !correctUndoneScan(run))
      << where;
}

// A world-only rollback (the explorer's memo-hit rewind) followed by a
// crash injection: the injection must be seen although the pattern the
// world rolled back to was older than the one last read.
TEST(Liveness, WorldOnlyRestoreThenInjectionIsSeen) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  sim::Run run(cfg, writer(), {5, 5, 5});
  sim::Scheduler& sched = run.scheduler();
  sim::World& world = run.world();
  sched.step(0);
  sim::World::Snapshot snap;
  world.snapshot(snap);
  world.injectCrash(1);
  EXPECT_EQ(sched.runnable().toString(), ProcSet({0, 2}).toString());
  world.restore(snap);
  world.injectCrash(2);
  EXPECT_EQ(sched.runnable().toString(), ProcSet({0, 1}).toString());
  EXPECT_FALSE(sched.allCorrectDone());
  expectMatchesScan(run, "after the world-only restore and injection");
}

// Seeded differential: random patterns with crash times in a short
// horizon, processes of random finite length, and a random mix of every
// action that writes liveness. World-only restores leave the scheduler's
// frames where they were, so each is followed by a Run::restore before
// the next step, as the explorer does.
TEST(Liveness, MatchesFullScanUnderStepsCrashesAndRestores) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL);
    const int n = 2 + static_cast<int>(rng.below(4));  // n+1 in 2..5
    RunConfig cfg;
    cfg.n_plus_1 = n;
    cfg.seed = seed;
    cfg.fp = FailurePattern::random(n, n - 1, /*horizon=*/12, seed);
    std::vector<Value> lengths;
    for (int p = 0; p < n; ++p) {
      lengths.push_back(1 + static_cast<Value>(rng.below(8)));
    }
    sim::Run run(cfg, writer(), lengths);
    run.enableCheckpoints();
    sim::Scheduler& sched = run.scheduler();
    std::vector<sim::RunCheckpoint> saved = {run.checkpoint()};
    bool world_only = false;  // the frames lag the world: restore first
    const std::string ctx = "seed " + std::to_string(seed);
    expectMatchesScan(run, ctx + ", start");

    // A live process of the world as it stands, that chaos may crash:
    // at least one process stays correct.
    const auto victim = [&]() -> Pid {
      const sim::World& w = run.world();
      const Pid p = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
      if (w.pattern().crashTime(p) <= w.now()) return -1;
      if (w.pattern().isCorrect(p) && w.pattern().correct().size() <= 1) {
        return -1;
      }
      return p;
    };

    for (int action = 0; action < 80; ++action) {
      const sim::RunCheckpoint& some =
          saved[rng.below(static_cast<std::uint64_t>(saved.size()))];
      std::string what;
      switch (rng.below(6)) {
        case 0:
        case 1: {
          if (world_only) {
            run.restore(some);
            world_only = false;
            what = "run restore before a step";
            break;
          }
          const ProcSet r = sched.runnable();
          if (r.empty()) continue;
          sched.step(r.nth(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(r.size())))));
          what = "step";
          break;
        }
        case 2: {
          const Pid p = victim();
          if (p < 0) continue;
          run.world().injectCrash(p);
          what = "inject p" + std::to_string(p + 1);
          break;
        }
        case 3:
          if (world_only) continue;
          saved.push_back(run.checkpoint());
          what = "checkpoint";
          break;
        case 4:
          run.restore(some);
          world_only = false;
          what = "run restore";
          break;
        case 5:
          run.world().restore(some.world);
          world_only = true;
          what = "world-only restore";
          break;
      }
      expectMatchesScan(run, ctx + ", action " + std::to_string(action) +
                                 " (" + what + ")");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace wfd
