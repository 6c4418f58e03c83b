// E17: batch scheduler + ReportCache characterization (BENCH_batch.json).
//
// A deliberately heavy-tailed campaign — a cluster of Fig. 3 extraction
// cells, each ~100x the median Fig. 1 chaos cell, packed at the FRONT of
// the submission order — measures the two scaling features head to head:
//
//   * static sharding (--no-steal): the contiguous-block distribution
//     lands the whole heavy cluster on worker 0, so the batch runs at
//     worker 0's pace while the rest idle;
//   * work stealing (the default): drained workers take the back half of
//     a loaded victim's block, so the tail spreads across the pool.
//
// Two numbers come out of the comparison, both best-of-N:
//   * wall-clock speedup — what stealing buys on this machine. Needs
//     free cores to show anything: on a single-core host the pool is
//     CPU-bound either way and the ratio sits at ~1.
//   * step-makespan speedup — max per-worker simulation steps, static
//     over steal: the schedule's critical path, i.e. the wall ratio on
//     >= jobs free cores. Deterministic and hardware-independent.
//
// The memo phase then reruns the identical campaign against a warm
// ReportCache: every cell is answered from the cache, and the warm/cold
// wall ratio is the memoization payoff. All three phases certify their
// results against the serial jobs=1 pass cell by cell — a scheduler or
// cache that changed any result would fail here before any speedup is
// worth reporting.
#include "bench_util.h"

namespace wfd {
namespace {

using sim::BatchCell;
using sim::BatchStats;
using sim::CellResult;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::GlitchKind;
using sim::WatchdogConfig;

int g_failures = 0;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("  FAILURE: %s\n", what.c_str());
    ++g_failures;
  }
}

// Light cell: one Fig. 1 chaos run, a few thousand steps.
BatchCell lightCell(std::uint64_t seed) {
  const int n_plus_1 = 4;
  BatchCell cell;
  cell.cfg.n_plus_1 = n_plus_1;
  cell.cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 60}});
  cell.cfg.fd =
      fd::makeUpsilon(*cell.cfg.fp, ProcSet::full(n_plus_1), /*stab=*/250,
                      seed);
  cell.cfg.seed = seed;
  sim::ChaosConfig chaos;
  chaos.seed = seed;
  chaos.max_faulty = 2;
  chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed * 31};
  chaos.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                           /*horizon=*/900, /*count=*/1, seed * 7});
  cell.chaos = chaos;
  cell.watchdog = WatchdogConfig{3'000'000, 0, 3};
  cell.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
  cell.proposals = {100, 101, 102, 103};
  cell.memo_family = "bb-light";
  return cell;
}

// Heavy cell: a watched Fig. 3 extraction that runs its whole budget —
// deterministic weight, ~100x the light cell's median steps.
BatchCell heavyCell(std::uint64_t seed, Time budget) {
  const int n_plus_1 = 4;
  BatchCell cell;
  cell.cfg.n_plus_1 = n_plus_1;
  cell.cfg.fp = FailurePattern::withCrashes(n_plus_1, {{3, 60}});
  cell.cfg.fd = fd::makeOmega(*cell.cfg.fp, /*stab=*/120, seed);
  cell.cfg.seed = seed;
  cell.cfg.max_steps = budget + 10;
  const auto phi = core::phiOmegaK(n_plus_1);
  cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
  cell.proposals = std::vector<Value>(4, 0);
  cell.watchdog = WatchdogConfig{budget, 0, 0};
  cell.memo_family = "bb-heavy";
  return cell;
}

}  // namespace
}  // namespace wfd

int main(int argc, char** argv) {
  using namespace wfd;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const int jobs = args.jobs > 0 ? args.jobs : std::max(4, sim::resolveJobs(0));
  const int reps = args.quick ? 3 : 5;
  const int heavy_cells = args.quick ? 6 : 16;
  const int light_cells = args.quick ? 90 : 400;
  const Time heavy_budget = args.quick ? 60'000 : 120'000;

  std::printf("\n=== E17 — batch scheduler + ReportCache (jobs=%d, "
              "best-of-%d, %d heavy + %d light cells) ===\n",
              jobs, reps, heavy_cells, light_cells);

  // Heavy cluster FIRST: the contiguous-block distribution gives the
  // whole cluster to worker 0, the adversarial case for static sharding.
  std::vector<BatchCell> cells;
  cells.reserve(static_cast<std::size_t>(heavy_cells + light_cells));
  for (int i = 0; i < heavy_cells; ++i) {
    cells.push_back(heavyCell(static_cast<std::uint64_t>(i) + 1, heavy_budget));
  }
  for (int i = 0; i < light_cells; ++i) {
    cells.push_back(lightCell(static_cast<std::uint64_t>(i) + 1));
  }

  // Ground truth: the serial pass every mode must reproduce exactly.
  auto optionsFor = [&](int run_jobs, bool steal,
                        sim::ReportCache* cache = nullptr) {
    sim::BatchOptions o;
    o.jobs = run_jobs;
    o.steal = steal;
    o.memo = cache;
    return o;
  };
  const sim::BatchRunner serial(optionsFor(1, true));
  const auto truth = serial.run(cells);

  auto certify = [&](const std::vector<CellResult>& got, const char* mode) {
    require(got == truth,
            std::string(mode) + " results differ from the serial pass");
  };

  auto bestOf = [&](const sim::BatchOptions& opts, const char* mode,
                    BatchStats& best_stats) {
    double best = -1;
    const sim::BatchRunner runner(opts);
    for (int r = 0; r < reps; ++r) {
      BatchStats stats;
      const auto results = runner.run(cells, &stats);
      certify(results, mode);
      if (best < 0 || stats.wall_s < best) {
        best = stats.wall_s;
        best_stats = stats;
      }
    }
    return best;
  };

  BatchStats static_stats;
  BatchStats steal_stats;
  const double static_s =
      bestOf(optionsFor(jobs, /*steal=*/false), "static", static_stats);
  const double steal_s =
      bestOf(optionsFor(jobs, /*steal=*/true), "steal", steal_stats);
  const double wall_speedup = steal_s > 0 ? static_s / steal_s : 0;
  const double makespan_speedup =
      steal_stats.stepMakespan() > 0
          ? static_cast<double>(static_stats.stepMakespan()) /
                static_cast<double>(steal_stats.stepMakespan())
          : 0;

  // Memo phase: one cold pass fills the cache, then best-of-N warm
  // reruns of the identical campaign. Stealing stays on; every cell is
  // digestible by construction, so the warm passes are pure lookups —
  // unless the WFD_AUDIT latch is on, which correctly makes every cell
  // bypass the memo (an audited run must re-execute, not replay).
  std::size_t cacheable = 0;
  for (const auto& cell : cells) {
    cacheable += sim::cellKey(cell).has_value() ? 1u : 0u;
  }
  if (cacheable == 0) {
    std::printf("note: no memo-eligible cells (WFD_AUDIT latch active?) — "
                "the warm phase measures audited re-execution, not hits\n");
  }
  sim::ReportCache cache;
  const sim::BatchRunner memo_runner(optionsFor(jobs, /*steal=*/true, &cache));
  BatchStats cold_stats;
  certify(memo_runner.run(cells, &cold_stats), "memo-cold");
  double warm_s = -1;
  BatchStats warm_stats;
  for (int r = 0; r < reps; ++r) {
    BatchStats stats;
    certify(memo_runner.run(cells, &stats), "memo-warm");
    if (warm_s < 0 || stats.wall_s < warm_s) {
      warm_s = stats.wall_s;
      warm_stats = stats;
    }
  }
  const double memo_speedup = warm_s > 0 ? steal_s / warm_s : 0;
  const double hit_rate =
      warm_stats.memo_hits + warm_stats.memo_misses > 0
          ? static_cast<double>(warm_stats.memo_hits) /
                static_cast<double>(warm_stats.memo_hits +
                                    warm_stats.memo_misses)
          : 0;
  require(warm_stats.memo_hits == cacheable,
          "warm pass answered every cacheable cell from the memo (" +
              std::to_string(warm_stats.memo_hits) + "/" +
              std::to_string(cacheable) + ")");

  bench::Table t({"mode", "wall s", "step makespan", "steal ops",
                  "stolen cells", "memo hits", "utilization"});
  auto statsRow = [&](const char* mode, double wall, const BatchStats& s) {
    t.addRow({mode, bench::fmt(wall),
              std::to_string(s.stepMakespan()),
              bench::fmt(static_cast<int>(s.steal_ops)),
              bench::fmt(static_cast<int>(s.stolen_cells)),
              bench::fmt(static_cast<int>(s.memo_hits)),
              bench::fmt(s.utilization())});
  };
  statsRow("static shards", static_s, static_stats);
  statsRow("steal", steal_s, steal_stats);
  statsRow("memo warm", warm_s, warm_stats);
  t.print();
  std::printf("stealing vs static: %.2fx wall (this host), %.2fx step "
              "makespan (>= %d free cores)\n",
              wall_speedup, makespan_speedup, jobs);
  std::printf("warm memo vs fresh steal run: %.2fx wall, hit rate %.2f\n",
              memo_speedup, hit_rate);

  const std::string json_path =
      args.json_path.empty() ? "BENCH_batch.json" : args.json_path;
  bench::JsonWriter json("bench_batch", jobs);
  json.note("mode", args.quick ? "quick" : "full");
  json.metric("reps_best_of", reps);
  json.metric("heavy_cells", heavy_cells);
  json.metric("light_cells", light_cells);
  json.metric("wall_static_s", static_s);
  json.metric("wall_steal_s", steal_s);
  json.metric("wall_memo_warm_s", warm_s);
  json.metric("steal_speedup_wall", wall_speedup);
  json.metric("steal_speedup_makespan", makespan_speedup);
  json.metric("memo_speedup_wall", memo_speedup);
  json.metric("memo_hit_rate", hit_rate);
  json.metric("memo_eligible_cells", static_cast<double>(cacheable));
  json.metric("steal_ops", static_cast<double>(steal_stats.steal_ops));
  json.metric("stolen_cells", static_cast<double>(steal_stats.stolen_cells));
  json.metric("failures", g_failures);
  for (std::size_t w = 0; w < steal_stats.executed.size(); ++w) {
    json.row("steal_worker_" + std::to_string(w),
             {{"executed", static_cast<double>(steal_stats.executed[w])},
              {"steps", static_cast<double>(steal_stats.steps_run[w])},
              {"busy_s", steal_stats.busy_s[w]}});
  }
  for (std::size_t w = 0; w < static_stats.executed.size(); ++w) {
    json.row("static_worker_" + std::to_string(w),
             {{"executed", static_cast<double>(static_stats.executed[w])},
              {"steps", static_cast<double>(static_stats.steps_run[w])},
              {"busy_s", static_stats.busy_s[w]}});
  }
  json.write(json_path);

  if (g_failures > 0) {
    std::printf("\nbench_batch FAILED: %d finding(s)\n", g_failures);
    return 1;
  }
  std::puts("\nbench_batch passed: all modes reproduce the serial results");
  return 0;
}
