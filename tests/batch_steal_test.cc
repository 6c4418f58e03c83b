// Work-stealing batch scheduler (sim/batch.h): the heavy-tail contract.
//
// The campaign under test is deliberately adversarial for static sharding:
// a cluster of watched Fig. 3 extraction cells — each a fixed step budget,
// ~100x a light Fig. 1 cell — packed at the FRONT of the submission order,
// so the contiguous-block distribution hands the whole cluster to worker 0.
//
//   * determinism: jobs=1, jobs=4 static, and jobs=4 stealing produce
//     bit-identical submission-ordered results (the schedule decides WHERE
//     a cell runs, never WHAT it computes);
//   * balance: stealing's step makespan (max per-worker simulation steps,
//     sim/batch.h) beats static sharding by >= 1.5x — the deterministic
//     form of the wall-clock win, measurable on any host. Wall time itself
//     is only asserted when the machine really has >= 4 cores;
//   * isolation: a cell that throws after being stolen mid-campaign yields
//     a structured error slot while every stolen neighbor completes.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "test_util.h"

namespace wfd {
namespace {

using core::upsilonSetAgreement;
using sim::BatchCell;
using sim::BatchOptions;
using sim::BatchRunner;
using sim::BatchStats;
using sim::CellResult;
using sim::Env;
using sim::FailurePattern;
using sim::RunVerdict;
using sim::WatchdogConfig;

// Light cell: Fig. 1 set agreement, decides within a few hundred steps.
BatchCell lightCell(std::uint64_t seed) {
  const int n_plus_1 = 4;
  BatchCell cell;
  cell.cfg.n_plus_1 = n_plus_1;
  cell.cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 50}});
  cell.cfg.fd = fd::makeUpsilon(*cell.cfg.fp, 150, seed);
  cell.cfg.seed = seed;
  cell.algo = [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
  cell.proposals = test::distinctProposals(n_plus_1);
  return cell;
}

// Heavy cell: a watched Fig. 3 extraction that always runs its whole step
// budget — deterministic weight, ~100x the light cell.
BatchCell heavyCell(std::uint64_t seed, Time budget) {
  const auto phi = core::phiOmegaK(4);
  BatchCell cell;
  cell.cfg.n_plus_1 = 4;
  cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 60}});
  cell.cfg.fd = fd::makeOmega(*cell.cfg.fp, 120, seed);
  cell.cfg.seed = seed;
  cell.cfg.max_steps = budget + 10;
  cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
  cell.proposals = std::vector<Value>(4, 0);
  cell.watchdog = WatchdogConfig{budget, 0, 0};
  return cell;
}

// Heavy cluster first: with 4 workers over 40 cells the contiguous blocks
// are 10 cells each, so static sharding lands all 8 heavies on worker 0.
std::vector<BatchCell> heavyTailCampaign(Time budget = 12'000) {
  std::vector<BatchCell> cells;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cells.push_back(heavyCell(seed, budget));
  }
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    cells.push_back(lightCell(seed));
  }
  return cells;
}

TEST(BatchSteal, StolenAndUnstolenRunsMatchSerialBitForBit) {
  const auto cells = heavyTailCampaign(/*budget=*/3'000);
  const auto serial = BatchRunner(BatchOptions{1}).run(cells);

  BatchStats static_stats;
  const auto statically =
      BatchRunner(BatchOptions{4, /*steal=*/false}).run(cells, &static_stats);
  EXPECT_TRUE(statically == serial) << "static";
  EXPECT_EQ(static_stats.steal_ops, 0u);
  EXPECT_EQ(static_stats.stolen_cells, 0u);

  BatchStats steal_stats;
  const auto stolen =
      BatchRunner(BatchOptions{4, /*steal=*/true}).run(cells, &steal_stats);
  EXPECT_TRUE(stolen == serial) << "steal";
  // The heavy cluster keeps worker 0 busy while the others drain: steals
  // must actually have happened for this test to mean anything.
  EXPECT_GT(steal_stats.steal_ops, 0u);
  EXPECT_GT(steal_stats.stolen_cells, 0u);

  // Every cell ran on exactly one worker in both modes.
  const auto total = [](const BatchStats& s) {
    std::size_t n = 0;
    for (const std::size_t e : s.executed) n += e;
    return n;
  };
  EXPECT_EQ(total(static_stats), cells.size());
  EXPECT_EQ(total(steal_stats), cells.size());
}

TEST(BatchSteal, StealingBeatsStaticShardingOnTheHeavyTail) {
  const auto cells = heavyTailCampaign();
  const BatchRunner statics(BatchOptions{4, /*steal=*/false});
  const BatchRunner stealer(BatchOptions{4, /*steal=*/true});

  // Static placement is a pure function of (cells, jobs), so its makespan
  // is the same every pass; the steal schedule depends on thread timing.
  // Static and stealing attempts alternate in one loop, so both sides see
  // the same host load, and the best of each side is compared.
  long long static_makespan = 0;
  long long best_steal_makespan = 0;
  double best_static_wall = -1;
  double best_steal_wall = -1;
  const auto keepBest = [](double& best, double wall) {
    if (best < 0 || wall < best) best = wall;
  };
  for (int pair = 0; pair < 5; ++pair) {
    BatchStats st;
    (void)statics.run(cells, &st);
    static_makespan = st.stepMakespan();
    keepBest(best_static_wall, st.wall_s);
    BatchStats sl;
    (void)stealer.run(cells, &sl);
    if (best_steal_makespan == 0 || sl.stepMakespan() < best_steal_makespan) {
      best_steal_makespan = sl.stepMakespan();
    }
    keepBest(best_steal_wall, sl.wall_s);
  }
  ASSERT_GT(static_makespan, 0);
  ASSERT_GT(best_steal_makespan, 0);

  // The deterministic form of the speedup: static's critical path (all 8
  // heavies on worker 0) must be >= 1.5x stealing's. In practice stealing
  // spreads the cluster ~evenly and the ratio sits near 4x.
  const double makespan_ratio = static_cast<double>(static_makespan) /
                                static_cast<double>(best_steal_makespan);
  EXPECT_GE(makespan_ratio, 1.5)
      << "static makespan " << static_makespan << ", steal "
      << best_steal_makespan;

  // Wall clock only shows the win when the pool really has its own cores.
  if (std::thread::hardware_concurrency() >= 4) {
    EXPECT_LT(best_steal_wall, best_static_wall)
        << "stealing should beat static sharding wall time on >= 4 cores";
  }
}

TEST(BatchSteal, ThrowingCellIsIsolatedEvenWhenStolen) {
  auto cells = heavyTailCampaign(/*budget=*/3'000);
  // Slot 7 sits deep in worker 0's initial block, behind the heavy
  // cluster — under stealing it is almost always executed by a thief.
  // Structurally broken: proposal arity mismatches n+1, so Run's
  // constructor throws SimAbort before any stepping.
  cells[7].proposals = {1, 2};
  auto serial_cells = cells;

  BatchStats stats;
  const auto res =
      BatchRunner(BatchOptions{4, /*steal=*/true}).run(cells, &stats);
  ASSERT_EQ(res.size(), cells.size());
  EXPECT_TRUE(res[7].error);
  EXPECT_NE(res[7].detail.find("proposals"), std::string::npos)
      << res[7].detail;

  const auto serial = BatchRunner(BatchOptions{1}).run(serial_cells);
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (i == 7) continue;
    EXPECT_FALSE(res[i].error) << "cell " << i << ": " << res[i].detail;
    EXPECT_EQ(res[i].trace_hash, serial[i].trace_hash) << "cell " << i;
  }
}

}  // namespace
}  // namespace wfd
