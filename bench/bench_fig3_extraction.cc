// Experiment E3/E8 (paper Fig. 3, Theorem 10 / Corollary 9): extract
// Upsilon^f from every stable non-trivial detector the library ships, with
// phi_D derived from the detector's own axioms (core/phi_maps.h), and
// measure how the emulation's stabilization lags the source detector's.
//
// The whole (row x seed) grid is ONE batch sharded over --jobs workers
// (sim/batch.h): extraction cells are the heavy tail of the experiment
// suite (budgets of stab*4 + 120k steps), exactly the shape the
// work-stealing scheduler exists for. --steal/--no-steal selects the
// scheduler mode and --memo attaches the whole-run ReportCache, so a
// repeated grid (same detectors, same seeds) answers from the memo.
#include "bench_util.h"

namespace wfd {
namespace {

using bench::Table;
using core::checkEmulatedUpsilonF;
using sim::BatchCell;
using sim::CellResult;
using sim::Env;
using sim::FailurePattern;

constexpr int kSeeds = 15;

struct Row {
  const char* name;
  int n_plus_1;
  int f;
  bool crashes;
  std::function<fd::FdPtr(const sim::FailurePattern&, std::uint64_t)> mk;
  Time stab;
  int w = 0;  // phi_D's w(sigma)
};

BatchCell makeCell(const Row& r, std::uint64_t seed) {
  const auto fp = r.crashes
                      ? FailurePattern::random(r.n_plus_1, r.f, 60, seed * 7 + 3)
                      : FailurePattern::failureFree(r.n_plus_1);
  BatchCell cell;
  cell.cfg.n_plus_1 = r.n_plus_1;
  cell.cfg.fp = fp;
  cell.cfg.fd = r.mk(fp, seed);
  cell.cfg.seed = seed;
  cell.cfg.max_steps = r.stab * 4 + 120'000;
  const auto phi = core::derivePhi(
      core::axiomLegal(cell.cfg.fd->axioms(), r.n_plus_1), r.n_plus_1, r.f,
      r.w);
  cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
  cell.proposals = std::vector<Value>(static_cast<std::size_t>(r.n_plus_1), 0);
  const int f = r.f;
  const int n_plus_1 = r.n_plus_1;
  const Time stab = r.stab;
  cell.post = [f, n_plus_1, stab](const sim::RunReport& rep, CellResult& out) {
    const auto chk = checkEmulatedUpsilonF(rep.result, f);
    if (!chk.ok()) {
      out.check_ok = false;
      out.check_detail = chk.violation;
    }
    out.metrics["lag"] =
        static_cast<double>(std::max<Time>(0, chk.last_change - stab));
    out.metrics["at_pi"] =
        chk.stable_value == ProcSet::full(n_plus_1) ? 1.0 : 0.0;
  };
  // Rows sharing a display name ("Omega" at two stab times) still key
  // apart through the detector digest; phi is the opaque part the family
  // must pin, and it is a function of the detector's axioms, f and w.
  cell.memo_family = std::string("fig3:") + r.name + ":f" +
                     std::to_string(r.f) + ":w" + std::to_string(r.w);
  return cell;
}

}  // namespace
}  // namespace wfd

int main(int argc, char** argv) {
  using namespace wfd;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  sim::ReportCache memo;
  const sim::BatchRunner runner(args.batchOptions(&memo));
  std::printf(
      "\n=== E3/E8 — Fig. 3: Upsilon^f extraction from stable non-trivial "
      "detectors (Theorem 10), %d seeds per row, jobs=%d, %s, memo %s ===\n",
      kSeeds, runner.jobs(), args.steal ? "stealing" : "static shards",
      args.memo ? "on" : "off");

  Table t({"source D", "n+1", "f", "crashes", "w", "stab(D)",
           "median lag", "runs at Pi", "axioms"});

  const int n4 = 4, n5 = 5;

  std::vector<Row> rows;
  for (const Time stab : {100L, 2000L}) {
    rows.push_back({"Omega", n4, n4 - 1, true,
                    [stab](const sim::FailurePattern& fp, std::uint64_t s) {
                      return fd::makeOmega(fp, stab, s);
                    },
                    stab});
  }
  for (int f = 1; f <= 4; ++f) {
    rows.push_back({"Omega^f", n5, f, true,
                    [f](const sim::FailurePattern& fp, std::uint64_t s) {
                      return fd::makeOmegaK(fp, f, 150, s);
                    },
                    150});
  }
  rows.push_back({"Upsilon", n4, n4 - 1, false,
                  [](const sim::FailurePattern& fp, std::uint64_t s) {
                    return fd::makeUpsilon(fp, 200, s);
                  },
                  200});
  rows.push_back({"anti-Omega", n4, n4 - 1, true,
                  [](const sim::FailurePattern& fp, std::uint64_t s) {
                    return fd::makeAntiOmega(fp, 200, s);
                  },
                  200});
  rows.push_back({"<>P", n4, n4 - 1, true,
                  [](const sim::FailurePattern& fp, std::uint64_t s) {
                    return fd::makeEventuallyPerfect(fp, 200, s);
                  },
                  200});
  rows.push_back({"P", n4, n4 - 1, true,
                  [](const sim::FailurePattern& fp, std::uint64_t) {
                    return fd::makePerfect(fp);
                  },
                  0});
  // Inflated w exercises the line-15 batch machinery; failure-free so the
  // batches complete.
  for (int w : {1, 4}) {
    rows.push_back({w == 1 ? "Omega (w=1)" : "Omega (w=4)", 3, 2, false,
                    [](const sim::FailurePattern& fp, std::uint64_t s) {
                      return fd::makeOmega(fp, 150, s);
                    },
                    150, w});
  }

  // One cell per (row, seed); the whole grid shards as a single batch so
  // a heavy row cannot serialize behind a light one.
  std::vector<BatchCell> cells;
  cells.reserve(rows.size() * kSeeds);
  for (const Row& r : rows) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      cells.push_back(makeCell(r, seed));
    }
  }
  const bench::WallTimer wall;
  sim::BatchStats stats;
  const auto results = runner.run(cells, &stats);
  const double wall_s = wall.seconds();

  bool all_rows_ok = true;
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    const Row& r = rows[ri];
    bool ok = true;
    int stuck_at_pi = 0;
    std::vector<Time> lags;
    for (std::size_t i = ri * kSeeds; i < (ri + 1) * kSeeds; ++i) {
      ok = ok && results[i].ok();
      const auto lag = results[i].metrics.find("lag");
      const auto at_pi = results[i].metrics.find("at_pi");
      lags.push_back(lag == results[i].metrics.end()
                         ? 0
                         : static_cast<Time>(lag->second));
      if (at_pi != results[i].metrics.end() && at_pi->second > 0) {
        ++stuck_at_pi;
      }
    }
    all_rows_ok = all_rows_ok && ok;
    t.addRow({r.name, bench::fmt(r.n_plus_1), bench::fmt(r.f),
              r.crashes ? "random" : "none", bench::fmt(r.w),
              bench::fmt(r.stab),
              bench::fmt(bench::median(std::move(lags))),
              bench::fmt(stuck_at_pi), bench::passFail(ok)});
  }
  t.print();
  std::printf("wall %.2fs at jobs=%d; %zu steal ops moved %zu cells; memo "
              "%zu hits / %zu misses\n",
              wall_s, runner.jobs(), stats.steal_ops, stats.stolen_cells,
              stats.memo_hits, stats.memo_misses);

  if (!args.json_path.empty()) {
    bench::JsonWriter json("bench_fig3_extraction", runner.jobs());
    json.note("scheduler", args.steal ? "steal" : "static");
    json.note("memo", args.memo ? "on" : "off");
    json.metric("wall_s", wall_s);
    json.metric("cells", static_cast<double>(results.size()));
    json.metric("all_rows_ok", all_rows_ok ? 1 : 0);
    bench::emitBatchStats(json, "batch", stats);
    json.write(args.json_path);
  }

  std::puts("Claim reproduced if every row PASSes: any stable f-non-trivial");
  std::puts("detector emulates Upsilon^f via Fig. 3 + phi_D (Theorem 10).");
  std::puts("'runs at Pi' counts runs whose output legally stuck at Pi");
  std::puts("(possible only when some process is faulty; for <>P and P,");
  std::puts("whose phi_D is Pi on every non-empty d, every run with a crash).");
  return all_rows_ok ? 0 : 1;
}
