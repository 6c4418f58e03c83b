// Parallel batch-run engine (sim/batch.h): the determinism contract in
// docs/PARALLEL.md, mechanically.
//
//   * batch-vs-serial trace-hash equality over E1/E3/E16-shaped workloads
//     (plain runTask cells, watched extraction cells, chaos cells);
//   * submission-order preservation at every pool size;
//   * exception isolation: one structurally broken cell yields a
//     structured error result while every other cell completes;
//   * jobs=1 equivalence to the plain serial loop (runTask/runChaosTask);
//   * FdCache: one simulation per (pattern, config), hit/miss accounting
//     under concurrent requests, and hash-identical runs off one shared
//     detector instance.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <utility>

#include "test_util.h"

namespace wfd {
namespace {

using core::upsilonSetAgreement;
using sim::BatchCell;
using sim::BatchOptions;
using sim::BatchRunner;
using sim::CellResult;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::GlitchKind;
using sim::RunConfig;
using sim::RunVerdict;
using sim::WatchdogConfig;

// E1-shaped plain cell: Fig. 1 Upsilon n-set agreement under runTask.
BatchCell fig1Cell(std::uint64_t seed, int n_plus_1 = 4) {
  BatchCell cell;
  cell.cfg.n_plus_1 = n_plus_1;
  cell.cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 50}});
  cell.cfg.fd = fd::makeUpsilon(*cell.cfg.fp, 150, seed);
  cell.cfg.seed = seed;
  cell.algo = [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
  cell.proposals = test::distinctProposals(n_plus_1);
  return cell;
}

// E3-shaped watched cell: Fig. 3 extraction runs forever; the watchdog
// cuts it off with a structured budget verdict.
BatchCell fig3Cell(std::uint64_t seed) {
  const auto phi = core::phiOmegaK(4);
  BatchCell cell;
  cell.cfg.n_plus_1 = 4;
  cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 60}});
  cell.cfg.fd = fd::makeOmega(*cell.cfg.fp, 120, seed);
  cell.cfg.seed = seed;
  cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
  cell.proposals = std::vector<Value>(4, 0);
  cell.watchdog = WatchdogConfig{/*step_budget=*/8'000, 0, 0};
  return cell;
}

// E16-shaped chaos cell: legal injector composition over Fig. 1.
BatchCell chaosCell(std::uint64_t seed) {
  BatchCell cell = fig1Cell(seed);
  cell.cfg.fd =
      fd::makeUpsilon(*cell.cfg.fp, ProcSet::full(4), /*stab=*/250, seed);
  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.max_faulty = 2;
  chaos.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                           /*horizon=*/800, /*count=*/1, seed * 7});
  chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed * 31};
  cell.chaos = chaos;
  cell.watchdog = WatchdogConfig{3'000'000, 0, 3};
  return cell;
}

std::vector<BatchCell> mixedCells() {
  std::vector<BatchCell> cells;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) cells.push_back(fig1Cell(seed));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) cells.push_back(fig3Cell(seed));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) cells.push_back(chaosCell(seed));
  return cells;
}

// CellResult's operator== is the one definition of "the same result"
// (docs/PARALLEL.md): every one of its twelve fields counts.
TEST(CellResultIdentity, EveryFieldBreaksEquality) {
  CellResult base;
  base.decisions[0] = 100;
  base.metrics["x"] = 1.0;
  const std::vector<std::pair<const char*, std::function<void(CellResult&)>>>
      fields = {
          {"index", [](CellResult& r) { r.index = 1; }},
          {"verdict", [](CellResult& r) { r.verdict = RunVerdict::kLivelock; }},
          {"detail", [](CellResult& r) { r.detail = "d"; }},
          {"error", [](CellResult& r) { r.error = true; }},
          {"all_correct_done",
           [](CellResult& r) { r.all_correct_done = true; }},
          {"steps", [](CellResult& r) { r.steps = 5; }},
          {"distinct_decisions",
           [](CellResult& r) { r.distinct_decisions = 1; }},
          {"decisions", [](CellResult& r) { r.decisions[0] = 101; }},
          {"trace_hash", [](CellResult& r) { r.trace_hash = 9; }},
          {"check_ok", [](CellResult& r) { r.check_ok = false; }},
          {"check_detail", [](CellResult& r) { r.check_detail = "c"; }},
          {"metrics", [](CellResult& r) { r.metrics["x"] = 2.0; }},
      };
  ASSERT_TRUE(base == base);
  for (const auto& [name, apply] : fields) {
    CellResult other = base;
    apply(other);
    EXPECT_FALSE(base == other) << name;
  }
}

TEST(Batch, BatchMatchesSerialOverAllWorkloadShapes) {
  const auto cells = mixedCells();
  const auto serial = BatchRunner(BatchOptions{1}).run(cells);
  const auto parallel = BatchRunner(BatchOptions{4}).run(cells);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_FALSE(serial[i].error) << serial[i].detail;
    ASSERT_FALSE(parallel[i].error) << parallel[i].detail;
    EXPECT_EQ(serial[i].trace_hash, parallel[i].trace_hash) << "cell " << i;
    EXPECT_EQ(serial[i].steps, parallel[i].steps) << "cell " << i;
    EXPECT_EQ(serial[i].verdict, parallel[i].verdict) << "cell " << i;
    EXPECT_EQ(serial[i].decisions, parallel[i].decisions) << "cell " << i;
  }
}

TEST(Batch, Jobs1MatchesThePlainSerialLoop) {
  // The batch path must be the exact serial code path: compare against
  // direct runTask / runChaosTask calls, not just against itself.
  const auto plain = fig1Cell(11);
  const auto rr = sim::runTask(plain.cfg, plain.algo, plain.proposals);
  const auto res = BatchRunner(BatchOptions{1}).run({plain});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].trace_hash, rr.trace().hash64());
  EXPECT_EQ(res[0].steps, rr.steps);
  EXPECT_EQ(res[0].decisions, rr.decisions);
  EXPECT_EQ(res[0].distinct_decisions, rr.distinctDecisions());

  const auto chaos = chaosCell(11);
  const auto rep = sim::runChaosTask(chaos.cfg, *chaos.chaos, *chaos.watchdog,
                                     chaos.algo, chaos.proposals);
  const auto cres = BatchRunner(BatchOptions{1}).run({chaos});
  ASSERT_EQ(cres.size(), 1u);
  EXPECT_EQ(cres[0].verdict, rep.verdict);
  EXPECT_EQ(cres[0].steps, rep.steps);
  EXPECT_EQ(cres[0].trace_hash, rep.result.trace().hash64());
}

TEST(Batch, ResultsComeBackInSubmissionOrder) {
  // Deliberately heterogeneous durations: long extraction cells first,
  // tiny agreement cells last, so completion order inverts submission
  // order under any pool — the results vector must not care.
  std::vector<BatchCell> cells;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) cells.push_back(fig3Cell(seed));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cells.push_back(fig1Cell(seed, 3));
  }
  const auto expected = BatchRunner(BatchOptions{1}).run(cells);
  const auto got = BatchRunner(BatchOptions{4}).run(cells);
  ASSERT_EQ(got.size(), cells.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, i);
    EXPECT_EQ(got[i].trace_hash, expected[i].trace_hash) << "slot " << i;
  }
  // First three slots are the watched budget cutoffs, the rest decided.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].verdict, RunVerdict::kBudgetExhausted);
  }
  for (std::size_t i = 3; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verdict, RunVerdict::kOk);
    EXPECT_TRUE(got[i].all_correct_done);
  }
}

TEST(Batch, OneThrowingCellIsIsolatedStructurally) {
  std::vector<BatchCell> cells;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cells.push_back(fig1Cell(seed));
  }
  // Structurally broken: proposal arity mismatches n+1, so Run's
  // constructor throws SimAbort before any stepping.
  cells[2].proposals = {1, 2};
  const auto res = BatchRunner(BatchOptions{3}).run(cells);
  ASSERT_EQ(res.size(), cells.size());
  EXPECT_TRUE(res[2].error);
  EXPECT_NE(res[2].detail.find("proposals"), std::string::npos)
      << res[2].detail;
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_FALSE(res[i].error) << res[i].detail;
    EXPECT_EQ(res[i].verdict, RunVerdict::kOk);
    EXPECT_NE(res[i].trace_hash, 0u);
  }
}

TEST(Batch, GeneratorFormMatchesVectorForm) {
  const auto cells = mixedCells();
  const BatchRunner runner(BatchOptions{4});
  const auto from_vector = runner.run(cells);
  const auto from_gen = runner.run(
      cells.size(), [&cells](std::size_t i) { return cells[i]; });
  ASSERT_EQ(from_gen.size(), from_vector.size());
  for (std::size_t i = 0; i < from_gen.size(); ++i) {
    EXPECT_EQ(from_gen[i].trace_hash, from_vector[i].trace_hash);
    EXPECT_EQ(from_gen[i].verdict, from_vector[i].verdict);
  }
}

TEST(Batch, GeneratorExceptionIsIsolatedToo) {
  const BatchRunner runner(BatchOptions{2});
  const auto res = runner.run(4, [](std::size_t i) -> BatchCell {
    if (i == 1) throw sim::SimAbort("generator refused cell 1");
    return fig1Cell(i + 1);
  });
  ASSERT_EQ(res.size(), 4u);
  EXPECT_TRUE(res[1].error);
  EXPECT_NE(res[1].detail.find("refused"), std::string::npos);
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_FALSE(res[i].error) << res[i].detail;
  }
}

TEST(Batch, PostHookRunsOnWorkerAndFillsMetrics) {
  auto cell = fig1Cell(5);
  const auto props = cell.proposals;
  cell.post = [props](const sim::RunReport& rep, CellResult& out) {
    const auto check = core::checkKSetAgreement(rep.result, 3, props);
    out.check_ok = check.ok();
    out.check_detail = check.violation;
    out.metrics["distinct"] = check.distinct;
  };
  const auto res = BatchRunner(BatchOptions{2}).run({cell, cell, cell});
  for (const auto& r : res) {
    ASSERT_FALSE(r.error) << r.detail;
    EXPECT_TRUE(r.check_ok) << r.check_detail;
    ASSERT_TRUE(r.metrics.count("distinct"));
    EXPECT_EQ(static_cast<int>(r.metrics.at("distinct")),
              r.distinct_decisions);
  }
}

TEST(Batch, ResolveJobsAndRunnerDefaults) {
  EXPECT_GE(sim::resolveJobs(0), 1);
  EXPECT_EQ(sim::resolveJobs(7), 7);
  EXPECT_GE(BatchRunner().jobs(), 1);
  // Empty batch is a no-op, not a hang.
  EXPECT_TRUE(BatchRunner(BatchOptions{4}).run({}).empty());
}

// ---- FdCache ----

sim::net::NetConfig lossyNet(std::uint64_t seed) {
  sim::net::NetConfig cfg;
  cfg.env = {/*gst=*/64, /*delta=*/4};
  cfg.faults.drop_permille = 150;
  cfg.seed = seed;
  return cfg;
}

TEST(FdCache, DistinctKeysDistinctInstances) {
  sim::FdCache cache;
  const auto fp1 = FailurePattern::withCrashes(4, {{3, 60}});
  const auto fp2 = FailurePattern::withCrashes(4, {{3, 61}});
  const auto base = cache.netHistory(fp1, lossyNet(9));
  EXPECT_NE(base.get(), cache.netHistory(fp2, lossyNet(9)).get());  // pattern
  EXPECT_NE(base.get(), cache.netHistory(fp1, lossyNet(8)).get());  // config
  EXPECT_EQ(cache.misses(), 3u);
  // A different f is a different lens over the same execution.
  const auto* up2 = dynamic_cast<const sim::net::RealizedFd*>(
      cache.netUpsilonF(fp1, 2, lossyNet(9)).get());
  const auto* up3 = dynamic_cast<const sim::net::RealizedFd*>(
      cache.netUpsilonF(fp1, 3, lossyNet(9)).get());
  ASSERT_NE(up2, nullptr);
  ASSERT_NE(up3, nullptr);
  EXPECT_NE(up2, up3);
  EXPECT_EQ(&up2->history(), base.get());
  EXPECT_EQ(&up3->history(), base.get());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(FdCache, ConcurrentRequestsSimulateOnce) {
  sim::FdCache cache;
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  std::vector<const sim::net::NetHistory*> seen(4, nullptr);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back([&cache, &fp, &seen, i] {
        const auto h = i % 2 == 0 ? cache.netOmega(fp, lossyNet(5))
                                  : cache.netUpsilonF(fp, 3, lossyNet(5));
        const auto* r = dynamic_cast<const sim::net::RealizedFd*>(h.get());
        if (r != nullptr) seen[i] = &r->history();
      });
    }
  }
  ASSERT_NE(seen[0], nullptr);
  for (const auto* h : seen) EXPECT_EQ(h, seen[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FdCache, SharedDetectorReplaysRunsHashIdentically) {
  // Runs off ONE detector instance, shared by concurrent cells, must hash
  // exactly like a run off a freshly built one: sharing changes
  // construction cost, never output.
  auto cell = fig1Cell(21);
  const auto shared = fd::makeUpsilon(*cell.cfg.fp, 150, 21);
  auto first = cell;
  first.cfg.fd = shared;
  auto second = cell;
  second.cfg.fd = shared;
  const auto res = BatchRunner(BatchOptions{3}).run({cell, first, second});
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].trace_hash, res[1].trace_hash);
  EXPECT_EQ(res[1].trace_hash, res[2].trace_hash);
}

}  // namespace
}  // namespace wfd
