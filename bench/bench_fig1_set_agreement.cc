// Experiment E1/E5 (paper Fig. 1, Theorem 2): regenerate the behaviour of
// the Upsilon-based wait-free n-set-agreement protocol.
//
// Rows report, per configuration, the median steps to global decision,
// the worst distinct-decision count observed (must stay <= n), and the
// checker verdict across all seeds. The paper's claim is qualitative —
// the protocol terminates and never exceeds n values — so the PASS
// columns are the reproduced "result"; the step counts document cost
// scaling for the record.
//
// All (row x seed) cells are independent, so the whole table is submitted
// as ONE batch (sim/batch.h) sharded over --jobs workers; per-cell trace
// hashes are bit-identical to serial execution, so the aggregated rows are
// too. Each cell builds its Upsilon history with fd::makeUpsilon, a pure
// function of (pattern, stab, seed).
#include "bench_util.h"

namespace wfd {
namespace {

using bench::Table;
using core::checkKSetAgreement;
using sim::BatchCell;
using sim::CellResult;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunReport;
using sim::SnapshotFlavor;

constexpr int kSeeds = 30;

struct Row {
  int n_plus_1;
  sim::PolicyKind policy;
  Time stab;
  int crashes;
  sim::SnapshotFlavor flavor;
};

struct Agg {
  Time median_steps = 0;
  int worst_distinct = 0;
  bool all_ok = true;
};

BatchCell makeCell(const Row& r, std::uint64_t seed) {
  const auto fp =
      r.crashes == 0
          ? FailurePattern::failureFree(r.n_plus_1)
          : FailurePattern::random(r.n_plus_1, r.crashes, r.stab + 300,
                                   seed * 101 + 17);
  std::vector<Value> props(static_cast<std::size_t>(r.n_plus_1));
  for (int i = 0; i < r.n_plus_1; ++i) {
    props[static_cast<std::size_t>(i)] = 100 + i;
  }
  BatchCell cell;
  cell.cfg.n_plus_1 = r.n_plus_1;
  cell.cfg.fp = fp;
  cell.cfg.fd = fd::makeUpsilon(fp, r.stab, seed);
  cell.cfg.seed = seed;
  cell.cfg.flavor = r.flavor;
  cell.cfg.policy = r.policy;
  cell.cfg.max_steps = 5'000'000;
  cell.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
  cell.proposals = props;
  const int k = r.n_plus_1 - 1;
  cell.post = [k, props](const RunReport& rep, CellResult& out) {
    const auto check = checkKSetAgreement(rep.result, k, props);
    if (!check.ok()) {
      out.check_ok = false;
      out.check_detail = check.violation;
    }
    out.metrics["distinct"] = check.distinct;
  };
  return cell;
}

Agg aggregate(const std::vector<CellResult>& results, std::size_t from,
              std::size_t count) {
  Agg agg;
  std::vector<Time> steps;
  for (std::size_t i = from; i < from + count; ++i) {
    const CellResult& r = results[i];
    agg.all_ok = agg.all_ok && r.ok();
    const auto it = r.metrics.find("distinct");
    if (it != r.metrics.end()) {
      agg.worst_distinct =
          std::max(agg.worst_distinct, static_cast<int>(it->second));
    }
    steps.push_back(r.steps);
  }
  agg.median_steps = bench::median(std::move(steps));
  return agg;
}

}  // namespace
}  // namespace wfd

int main(int argc, char** argv) {
  using namespace wfd;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const sim::BatchRunner runner(args.batchOptions());
  std::printf(
      "\n=== E1/E5 — Fig. 1: Upsilon-based n-set-agreement (Theorem 2), "
      "%d seeds per row, jobs=%d ===\n",
      kSeeds, runner.jobs());

  std::vector<Row> rows;
  for (int n_plus_1 : {2, 3, 4, 5, 6, 8}) {
    rows.push_back({n_plus_1, sim::PolicyKind::kRandom, 500, 0,
                    sim::SnapshotFlavor::kNative});
  }
  for (int n_plus_1 : {3, 4, 5, 6}) {
    rows.push_back({n_plus_1, sim::PolicyKind::kRandom, 500, n_plus_1 - 1,
                    sim::SnapshotFlavor::kNative});
  }
  for (Time stab : {0L, 200L, 2000L, 10000L}) {
    rows.push_back({4, sim::PolicyKind::kRoundRobin, stab, 0,
                    sim::SnapshotFlavor::kNative});
  }
  rows.push_back({4, sim::PolicyKind::kRandom, 500, 3,
                  sim::SnapshotFlavor::kAfek});
  rows.push_back({5, sim::PolicyKind::kRoundRobin, 500, 0,
                  sim::SnapshotFlavor::kAfek});
  // Scale rows (ProcSet carries up to 64 processes).
  rows.push_back({16, sim::PolicyKind::kRandom, 500, 15,
                  sim::SnapshotFlavor::kNative});
  rows.push_back({32, sim::PolicyKind::kRoundRobin, 500, 0,
                  sim::SnapshotFlavor::kNative});

  // One flat batch: cell (row * kSeeds + s) is row `row`, seed s+1. The
  // generator runs on the workers.
  const bench::WallTimer wall;
  sim::BatchStats batch_stats;
  const auto results = runner.run(
      rows.size() * kSeeds,
      [&rows](std::size_t i) {
        const Row& r = rows[i / kSeeds];
        const std::uint64_t seed = static_cast<std::uint64_t>(i % kSeeds) + 1;
        return makeCell(r, seed);
      },
      &batch_stats);
  const double wall_s = wall.seconds();

  Table t({"n+1", "schedule", "stab(Upsilon)", "crashes<=", "snapshot",
           "median steps", "max distinct (<=n)", "Theorem 2"});
  bool all_rows_pass = true;
  long long total_steps = 0;
  for (const CellResult& r : results) total_steps += r.steps;
  bench::JsonWriter json("bench_fig1_set_agreement", runner.jobs());
  for (std::size_t row = 0; row < rows.size(); ++row) {
    const Row& r = rows[row];
    const Agg agg = aggregate(results, row * kSeeds, kSeeds);
    const bool pass = agg.all_ok && agg.worst_distinct <= r.n_plus_1 - 1;
    all_rows_pass = all_rows_pass && pass;
    t.addRow({bench::fmt(r.n_plus_1),
              r.policy == sim::PolicyKind::kRoundRobin ? "lockstep" : "random",
              bench::fmt(r.stab), bench::fmt(r.crashes),
              r.flavor == sim::SnapshotFlavor::kAfek ? "afek" : "native",
              bench::fmt(agg.median_steps), bench::fmt(agg.worst_distinct),
              bench::passFail(pass)});
    json.row("n" + std::to_string(r.n_plus_1) + "_stab" +
                 std::to_string(r.stab) + "_crash" +
                 std::to_string(r.crashes) + "_" +
                 (r.flavor == sim::SnapshotFlavor::kAfek ? "afek" : "native"),
             {{"median_steps", static_cast<double>(agg.median_steps)},
              {"max_distinct", static_cast<double>(agg.worst_distinct)},
              {"pass", pass ? 1.0 : 0.0}});
  }
  t.print();
  std::printf("wall %.2fs at jobs=%d — %zu cells, %.0f steps/s\n", wall_s,
              runner.jobs(), results.size(),
              wall_s > 0 ? total_steps / wall_s : 0.0);
  if (!args.json_path.empty()) {
    json.metric("wall_s", wall_s);
    json.metric("cells", static_cast<double>(results.size()));
    json.metric("steps_per_s", wall_s > 0 ? total_steps / wall_s : 0.0);
    bench::emitBatchStats(json, "batch", batch_stats);
    json.write(args.json_path);
  }
  std::puts("Claim reproduced if every row PASSes: Upsilon + registers solve");
  std::puts("n-set-agreement among n+1 processes with up to n crashes.");
  return all_rows_pass ? 0 : 1;
}
