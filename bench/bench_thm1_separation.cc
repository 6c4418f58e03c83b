// Experiment E4 (paper Theorem 1): Upsilon is strictly weaker than
// Omega_n for n >= 2.
//
//   Easy direction — Omega_n -> Upsilon by complementation: the emulated
//   output stabilizes shortly after the source does (table 1).
//   Hard direction — no algorithm extracts Omega_n from Upsilon: the
//   proof's adversary forces every candidate either to switch its output
//   forever (switch count grows linearly in the horizon, table 2) or to
//   freeze on a value that a legal crash pattern renders illegal
//   (table 3).
//
// The easy-direction sweep is (row x seed)-parallel: all cells go into
// one batch (sim/batch.h) sharded over --jobs workers; each cell builds its
// Omega^k history with fd::makeOmegaK, a pure function of (pattern, stab,
// seed). The hard-direction chases are inherently sequential
// adversary/candidate dialogues and stay serial.
#include "bench_util.h"

namespace wfd {
namespace {

using bench::Table;
using sim::BatchCell;
using sim::CellResult;
using sim::Env;
using sim::FailurePattern;

void easyDirection(const bench::BenchArgs& args) {
  // --memo attaches the whole-run ReportCache: the sweep's detectors are
  // built by digestable construction, so a re-invocation (or a widened
  // grid sharing rows) answers repeated cells without re-running.
  sim::ReportCache memo;
  const sim::BatchRunner runner(args.batchOptions(&memo));
  std::printf(
      "\n=== E4a — easy direction: Omega_n -> Upsilon (complementation), "
      "jobs=%d, %s, memo %s ===\n",
      runner.jobs(), args.steal ? "stealing" : "static shards",
      args.memo ? "on" : "off");
  struct Row {
    int n_plus_1;
    Time stab;
  };
  std::vector<Row> rows;
  for (int n_plus_1 : {3, 4, 5, 6}) {
    for (const Time stab : {100L, 1000L}) rows.push_back({n_plus_1, stab});
  }
  constexpr std::size_t kSeeds = 10;
  sim::BatchStats stats;
  const auto results = runner.run(
      rows.size() * kSeeds,
      [&rows](std::size_t i) {
        const Row& r = rows[i / kSeeds];
        const std::uint64_t seed = static_cast<std::uint64_t>(i % kSeeds) + 1;
        const auto fp =
            FailurePattern::random(r.n_plus_1, r.n_plus_1 - 1, 60, seed * 3);
        BatchCell cell;
        cell.cfg.n_plus_1 = r.n_plus_1;
        cell.cfg.fp = fp;
        cell.cfg.fd = fd::makeOmegaK(fp, r.n_plus_1 - 1, r.stab, seed);
        cell.cfg.seed = seed;
        cell.cfg.max_steps = r.stab * 3 + 30'000;
        cell.algo = [](Env& e, Value) { return core::omegaKToUpsilonF(e); };
        cell.proposals =
            std::vector<Value>(static_cast<std::size_t>(r.n_plus_1), 0);
        const int f = r.n_plus_1 - 1;
        cell.post = [f](const sim::RunReport& rep, CellResult& out) {
          const auto check = core::checkEmulatedUpsilonF(rep.result, f);
          if (!check.ok()) {
            out.check_ok = false;
            out.check_detail = check.violation;
          }
          out.metrics["last_change"] = static_cast<double>(check.last_change);
        };
        cell.memo_family = "thm1-easy";
        return cell;
      },
      &stats);
  Table t({"n+1", "stab(Omega_n)", "emulation last change", "axioms"});
  for (std::size_t row = 0; row < rows.size(); ++row) {
    bool ok = true;
    std::vector<Time> last;
    for (std::size_t i = row * kSeeds; i < (row + 1) * kSeeds; ++i) {
      ok = ok && results[i].ok();
      const auto it = results[i].metrics.find("last_change");
      last.push_back(it == results[i].metrics.end()
                         ? 0
                         : static_cast<Time>(it->second));
    }
    t.addRow({bench::fmt(rows[row].n_plus_1), bench::fmt(rows[row].stab),
              bench::fmt(bench::median(std::move(last))),
              bench::passFail(ok)});
  }
  t.print();
  std::printf("pool: %zu steal ops moved %zu cells; memo %zu hits / %zu "
              "misses; utilization %.2f\n",
              stats.steal_ops, stats.stolen_cells, stats.memo_hits,
              stats.memo_misses, stats.utilization());
  if (!args.json_path.empty()) {
    bench::JsonWriter json("bench_thm1_separation", runner.jobs());
    json.note("memo", args.memo ? "on" : "off");
    bool all_ok = true;
    for (const CellResult& r : results) all_ok = all_ok && r.ok();
    json.metric("easy_direction_all_ok", all_ok ? 1.0 : 0.0);
    bench::emitBatchStats(json, "batch", stats);
    json.write(args.json_path);
  }
}

void hardDirectionChase() {
  bench::banner(
      "E4b — hard direction: the Theorem 1 adversary vs an adaptive "
      "candidate (lowest-heartbeat)");
  Table t({"n+1", "horizon", "forced switches", "last switch", "switches/10k",
           "verdict"});
  const auto cand = [](Env& e, Value) {
    return core::candidateLowestHeartbeat(e);
  };
  for (int n_plus_1 : {3, 4, 6}) {
    int prev_switches = 0;
    for (const Time horizon : {25'000L, 50'000L, 100'000L, 200'000L}) {
      const auto s = core::soloChase(cand, n_plus_1, horizon);
      const bool growing = s.switches > prev_switches;
      prev_switches = s.switches;
      t.addRow({bench::fmt(n_plus_1), bench::fmt(horizon),
                bench::fmt(s.switches), bench::fmt(s.last_switch_time),
                bench::fmt(10'000.0 * s.switches /
                           static_cast<double>(s.steps)),
                growing ? "never stabilizes" : "STABILIZED?"});
    }
  }
  t.print();
}

void hardDirectionExposure() {
  bench::banner(
      "E4c — hard direction: crash exposure vs a static candidate "
      "(complement-of-Upsilon)");
  Table t({"n+1", "candidate output", "claimed Omega_n set", "contains correct",
           "verdict"});
  const auto cand = [](Env& e, Value) {
    return core::candidateComplementOrStatic(e);
  };
  for (int n_plus_1 : {3, 4, 5}) {
    const auto s = core::crashExposure(cand, n_plus_1, 40'000);
    const ProcSet claimed = s.stable_pc.complement(n_plus_1);
    t.addRow({bench::fmt(n_plus_1),
              s.stable ? s.stable_pc.toString() : "(unstable)",
              claimed.toString(), s.legal ? "yes" : "NO",
              (s.stable && !s.legal) ? "illegal -> defeated" : "?"});
  }
  t.print();
}

}  // namespace
}  // namespace wfd

int main(int argc, char** argv) {
  using namespace wfd;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  easyDirection(args);
  hardDirectionChase();
  hardDirectionExposure();
  std::puts("");
  std::puts("Theorem 1 reproduced: the easy direction stabilizes (PASS rows),");
  std::puts("while each candidate extraction of Omega_n from Upsilon is");
  std::puts("defeated — by unbounded forced switching or by an exposing");
  std::puts("crash pattern. (The theorem itself quantifies over all");
  std::puts("algorithms; the adversary here is the proof's construction.)");
  return 0;
}
