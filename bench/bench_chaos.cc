// E16: chaos certification — thousands of injector-composed runs, sharded
// across a worker pool (sim/batch.h).
//
// Three campaigns over the Fig. 1 / Fig. 2 / Fig. 3 workloads:
//   * legal:    seed-indexed compositions of legal injectors (crash
//     placement incl. kFdLeader/kOnDecide critical-step strategies,
//     bounded starvation windows, shared-memory op delay, in-axiom FD
//     glitches). Certifies that safety NEVER breaks: zero safety
//     violations, zero axiom violations, and every decided run passes
//     checkKSetAgreement. Fig. 3 runs forever by design and must end in
//     kBudgetExhausted — a structured report, never an abort.
//   * negative: illegal FD glitches driven through an FD-sampler
//     automaton (detection must not depend on whether a workload happens
//     to query its detector). Certifies 100% detection: every run ends
//     in kAxiomViolation.
//   * replay:   a sample of chaos runs is re-executed and must reproduce
//     verdict, step count and trace hash bit-for-bit. With --jobs > 1 the
//     two executions land on different workers, so this also certifies
//     the batch determinism contract on every invocation.
//
// Each (seed, workload) pair is one BatchCell that sets its own chaos plan
// and watchdog; BatchRunner shards them over --jobs workers (default: all
// hardware) and returns results in submission order, so the certification
// logic below is identical at any pool size. The soak also prints an
// (injector x workload) coverage matrix — which chaos cells this run
// actually visited (ROADMAP item) — and FAILS (non-zero exit) if any
// planned cell is empty: coverage is part of the certification, not
// decoration. `--json out.json` records runs, wall time, steps/s and
// scheduler/memo counters per campaign; --steal/--no-steal and
// --memo/--no-memo select the batch scheduler mode and the whole-run
// ReportCache (replay determinism always re-executes, memo or not).
//
// --quick shrinks the campaign for CI smoke; the full depth (>= 5,000
// legal + >= 1,000 negative runs) is the scheduled soak and the numbers
// quoted in EXPERIMENTS.md row E16.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace wfd;
using sim::BatchCell;
using sim::CellResult;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::GlitchKind;
using sim::OpDelay;
using sim::RunConfig;
using sim::RunReport;
using sim::RunVerdict;
using sim::WatchdogConfig;

int g_failures = 0;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("  CERTIFICATION FAILURE: %s\n", what.c_str());
    ++g_failures;
  }
}

// Seed-indexed legal injector composition (docs/CHAOS.md): every run gets
// a different mix of crash strategies, schedule bias and in-axiom FD
// noise, all derived from the run seed alone.
ChaosConfig legalChaos(std::uint64_t seed, int n_plus_1, int max_faulty,
                       ProcSet protect) {
  ChaosConfig c;
  c.seed = seed;
  c.max_faulty = max_faulty;
  c.protected_pids = protect;
  switch (seed % 3) {
    case 0: c.glitch = {GlitchKind::kNone, 0, 0}; break;
    case 1: c.glitch = {GlitchKind::kScrambleNoise, 0, seed * 31}; break;
    case 2: c.glitch = {GlitchKind::kDelayStabilization, 300, seed * 17}; break;
  }
  if (seed % 2 == 0) {
    c.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                         /*horizon=*/900, /*count=*/2, seed * 7});
  }
  if (seed % 5 == 0) {
    c.crashes.push_back(
        {CrashInjection::Strategy::kFdLeader, -1, /*at=*/400, 0, 1, 0});
  }
  if (seed % 7 == 0) {
    c.crashes.push_back(
        {CrashInjection::Strategy::kOnDecide, -1, 0, 0, /*count=*/1, 0});
  }
  if (seed % 3 == 0) {
    c.starvation.push_back(
        {ProcSet{static_cast<Pid>(seed % n_plus_1)}, 150, 300});
  }
  if (seed % 2 == 1) c.op_delay = OpDelay{48, 16, seed};
  return c;
}

// ---- (injector x workload) coverage matrix (ROADMAP chaos follow-up) ----

using CoverageMatrix = std::map<std::string, std::map<std::string, int>>;

const char* crashStrategyName(CrashInjection::Strategy s) {
  switch (s) {
    case CrashInjection::Strategy::kAtTime: return "crash:at-time";
    case CrashInjection::Strategy::kRandom: return "crash:random";
    case CrashInjection::Strategy::kFdLeader: return "crash:fd-leader";
    case CrashInjection::Strategy::kOnDecide: return "crash:on-decide";
  }
  return "crash:?";
}

void recordCoverage(CoverageMatrix& m, const std::string& workload,
                    const ChaosConfig& c) {
  std::vector<std::string> active;
  if (c.glitch.kind != GlitchKind::kNone) {
    active.push_back(std::string("glitch:") + sim::glitchName(c.glitch.kind));
  }
  for (const auto& cr : c.crashes) {
    active.push_back(crashStrategyName(cr.strategy));
  }
  if (!c.starvation.empty()) active.push_back("sched:starvation");
  if (c.op_delay.has_value()) active.push_back("sched:op-delay");
  if (active.empty()) active.push_back("(no injector)");
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  for (const auto& a : active) ++m[a][workload];
}

void printCoverage(const CoverageMatrix& m,
                   const std::vector<std::string>& workloads) {
  bench::banner("(injector x workload) coverage — cells visited this soak");
  std::vector<std::string> headers{"injector"};
  headers.insert(headers.end(), workloads.begin(), workloads.end());
  bench::Table t(std::move(headers));
  for (const auto& [injector, per_wl] : m) {
    std::vector<std::string> row{injector};
    for (const auto& wl : workloads) {
      const auto it = per_wl.find(wl);
      row.push_back(it == per_wl.end() ? "-" : bench::fmt(it->second));
    }
    t.addRow(std::move(row));
  }
  t.print();
}

// The soak PLANS every one of these (injector, workload) cells: the
// quick campaign sizes are chosen so each seed-derived injector fires at
// least once per workload. A refactor of legalChaos or a workload that
// silently stops visiting a cell must FAIL certification, not just
// shrink a printed table.
void checkCoverage(const CoverageMatrix& m) {
  const std::vector<const char*> legal = {
      "glitch:scramble-noise", "glitch:delay-stabilization",
      "crash:random",          "crash:fd-leader",
      "crash:on-decide",       "sched:starvation",
      "sched:op-delay"};
  const std::vector<const char*> illegal = {
      "glitch:empty-answer", "glitch:undersized-answer",
      "glitch:post-stab-flap", "glitch:stab-to-correct",
      "glitch:stab-exclude-correct"};
  const std::vector<std::pair<const char*, const std::vector<const char*>*>>
      wants = {{"fig1", &legal},
               {"fig2", &legal},
               {"fig3", &legal},
               {"negative", &illegal}};
  for (const auto& [workload, injectors] : wants) {
    for (const char* inj : *injectors) {
      const auto it = m.find(inj);
      const bool hit = it != m.end() && it->second.count(workload) > 0 &&
                       it->second.at(workload) > 0;
      require(hit, std::string("coverage hole: planned cell (") + inj +
                       " x " + workload + ") was never visited");
    }
  }
}

// Scheduler/memo counters summed across the soak's batches.
struct PoolTotals {
  sim::BatchStats last;
  std::size_t steal_ops = 0;
  std::size_t stolen_cells = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;

  void add(const sim::BatchStats& s) {
    last = s;
    steal_ops += s.steal_ops;
    stolen_cells += s.stolen_cells;
    memo_hits += s.memo_hits;
    memo_misses += s.memo_misses;
  }
};

// ---- Campaign aggregation ------------------------------------------------

struct CampaignStats {
  std::map<RunVerdict, int> verdicts;
  int runs = 0;
  int errors = 0;
  int agreement_failures = 0;
  long long total_steps = 0;

  void add(const CellResult& r) {
    ++runs;
    total_steps += r.steps;
    if (r.error) {
      ++errors;
      return;
    }
    ++verdicts[r.verdict];
    if (!r.check_ok) ++agreement_failures;
  }
  [[nodiscard]] int count(RunVerdict v) const {
    const auto it = verdicts.find(v);
    return it == verdicts.end() ? 0 : it->second;
  }
  [[nodiscard]] std::string histogram() const {
    std::string s;
    for (const auto& [v, n] : verdicts) {
      if (!s.empty()) s += " ";
      s += std::string(sim::runVerdictName(v)) + "=" + std::to_string(n);
    }
    return s.empty() ? "-" : s;
  }
};

// ---- Workload constructors (legality contract: stable sets pinned so
// injected crashes cannot invalidate the FD's axioms) ----

RunConfig fig1Config(std::uint64_t seed) {
  const int n_plus_1 = 4;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 60}});
  cfg.fd =
      fd::makeUpsilon(*cfg.fp, ProcSet::full(n_plus_1), /*stab=*/250, seed);
  cfg.seed = seed;
  return cfg;
}

RunConfig fig2Config(std::uint64_t seed) {
  const int n_plus_1 = 5;
  const int f = 2;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 80}});
  cfg.fd = fd::makeUpsilonF(*cfg.fp, f, ProcSet::full(n_plus_1),
                            /*stab=*/250, seed);
  cfg.seed = seed;
  return cfg;
}

RunConfig fig3Config(std::uint64_t seed) {
  const int n_plus_1 = 4;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{3, 60}});
  cfg.fd = fd::makeOmega(*cfg.fp, /*stab=*/120, seed);
  cfg.seed = seed;
  return cfg;
}

// Post-hook: certify k-set agreement on the worker, while the trace is
// still alive; only the verdict string survives into the CellResult.
sim::CellPost agreementCheck(int k, std::vector<Value> props) {
  return [k, props = std::move(props)](const RunReport& rep,
                                       CellResult& out) {
    if (rep.verdict != RunVerdict::kOk) return;
    const auto check = core::checkKSetAgreement(rep.result, k, props);
    if (!check.ok()) {
      out.check_ok = false;
      out.check_detail = check.violation;
    }
  };
}

BatchCell fig1Cell(std::uint64_t seed, const std::vector<Value>& props) {
  BatchCell cell;
  cell.cfg = fig1Config(seed);
  cell.chaos = legalChaos(seed, 4, /*max_faulty=*/2, {});
  cell.watchdog = WatchdogConfig{3'000'000, 0, 3};
  cell.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
  cell.proposals = props;
  cell.post = agreementCheck(3, props);
  cell.memo_family = "chaos-fig1";
  return cell;
}

CampaignStats legalFig1(int runs, const sim::BatchOptions& opts,
                        CoverageMatrix& cover, PoolTotals& pool) {
  const auto props = std::vector<Value>{100, 101, 102, 103};
  std::vector<BatchCell> cells;
  cells.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    cells.push_back(fig1Cell(seed, props));
    recordCoverage(cover, "fig1", *cells.back().chaos);
  }
  sim::BatchStats stats;
  const auto results = sim::BatchRunner(opts).run(cells, &stats);
  pool.add(stats);
  CampaignStats st;
  for (const CellResult& r : results) {
    st.add(r);
    const std::string seed = std::to_string(r.index + 1);
    require(!r.error, "fig1 seed " + seed + " errored: " + r.detail);
    require(r.verdict != RunVerdict::kSafetyViolation,
            "fig1 seed " + seed + ": " + r.detail);
    require(r.verdict != RunVerdict::kAxiomViolation,
            "fig1 seed " + seed + " flagged a LEGAL injector: " + r.detail);
    require(r.check_ok, "fig1 seed " + seed + ": " + r.check_detail);
  }
  return st;
}

CampaignStats legalFig2(int runs, const sim::BatchOptions& opts,
                        CoverageMatrix& cover, PoolTotals& pool) {
  const auto props = std::vector<Value>{100, 101, 102, 103, 104};
  std::vector<BatchCell> cells;
  cells.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    BatchCell cell;
    cell.cfg = fig2Config(seed);
    // E_2: the pre-seeded crash plus at most one injected.
    cell.chaos = legalChaos(seed, 5, /*max_faulty=*/2, {});
    cell.watchdog = WatchdogConfig{4'000'000, 0, 2};
    cell.algo = [](Env& e, Value v) {
      return core::upsilonFSetAgreement(e, 2, v);
    };
    cell.proposals = props;
    cell.post = agreementCheck(2, props);
    cell.memo_family = "chaos-fig2";
    recordCoverage(cover, "fig2", *cell.chaos);
    cells.push_back(std::move(cell));
  }
  sim::BatchStats stats;
  const auto results = sim::BatchRunner(opts).run(cells, &stats);
  pool.add(stats);
  CampaignStats st;
  for (const CellResult& r : results) {
    st.add(r);
    const std::string seed = std::to_string(r.index + 1);
    require(!r.error, "fig2 seed " + seed + " errored: " + r.detail);
    require(r.verdict != RunVerdict::kSafetyViolation,
            "fig2 seed " + seed + ": " + r.detail);
    require(r.verdict != RunVerdict::kAxiomViolation,
            "fig2 seed " + seed + " flagged a LEGAL injector: " + r.detail);
    require(r.check_ok, "fig2 seed " + seed + ": " + r.check_detail);
  }
  return st;
}

CampaignStats legalFig3(int runs, const sim::BatchOptions& opts,
                        CoverageMatrix& cover, PoolTotals& pool) {
  const auto phi = core::phiOmegaK(4);
  std::vector<BatchCell> cells;
  cells.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    BatchCell cell;
    cell.cfg = fig3Config(seed);
    // The extraction's Omega leader (p1, the lowest-id correct process)
    // anchors the detector's axioms: protect it from crash injection.
    cell.chaos = legalChaos(seed, 4, /*max_faulty=*/2, ProcSet{0});
    cell.watchdog = WatchdogConfig{/*step_budget=*/15'000, 0, 0};
    cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
    cell.proposals = std::vector<Value>(4, 0);
    cell.memo_family = "chaos-fig3";
    recordCoverage(cover, "fig3", *cell.chaos);
    cells.push_back(std::move(cell));
  }
  sim::BatchStats stats;
  const auto results = sim::BatchRunner(opts).run(cells, &stats);
  pool.add(stats);
  CampaignStats st;
  for (const CellResult& r : results) {
    st.add(r);
    // Runs-forever workload: the ONLY acceptable outcome is a structured
    // budget cutoff — anything else is a certification failure.
    require(!r.error && r.verdict == RunVerdict::kBudgetExhausted,
            "fig3 seed " + std::to_string(r.index + 1) + ": " +
                (r.error ? "error" : sim::runVerdictName(r.verdict)) + " " +
                r.detail);
  }
  return st;
}

// ---- Negative controls ----

sim::AlgoFn fdSampler() {
  return [](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < 60; ++i) (void)co_await e.queryFd();
    co_return sim::Unit{};
  };
}

struct NegativeStats {
  int runs = 0;
  int detected = 0;
  long long total_steps = 0;
};

NegativeStats negativeControls(int runs_per_kind,
                               const sim::BatchOptions& opts,
                               CoverageMatrix& cover, PoolTotals& pool) {
  const auto props4 = std::vector<Value>{0, 0, 0, 0};
  const GlitchKind upsilon_kinds[] = {
      GlitchKind::kEmptyAnswer, GlitchKind::kUndersizedAnswer,
      GlitchKind::kPostStabFlap, GlitchKind::kStabToCorrect};
  std::vector<BatchCell> cells;
  std::vector<std::string> labels;
  for (const GlitchKind kind : upsilon_kinds) {
    for (int i = 0; i < runs_per_kind; ++i) {
      const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
      BatchCell cell;
      cell.cfg.n_plus_1 = 4;
      cell.cfg.fp = FailurePattern::failureFree(4);
      cell.cfg.fd = fd::makeUpsilonF(*cell.cfg.fp, 2, /*stab=*/0, seed);
      cell.cfg.seed = seed * 3 + 1;
      ChaosConfig chaos;
      chaos.glitch = {kind, 0, seed};
      cell.chaos = chaos;
      cell.watchdog = WatchdogConfig{200'000, 0, 0};
      cell.algo = fdSampler();
      cell.proposals = props4;
      cell.memo_family = "chaos-neg-upsilon";
      recordCoverage(cover, "negative", chaos);
      labels.push_back(std::string(sim::glitchName(kind)) + " seed " +
                       std::to_string(seed));
      cells.push_back(std::move(cell));
    }
  }
  // Omega^k end-condition control needs faulty processes to stabilize on.
  for (int i = 0; i < runs_per_kind; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    BatchCell cell;
    cell.cfg.n_plus_1 = 4;
    cell.cfg.fp = FailurePattern::withCrashes(4, {{2, 10}, {3, 10}});
    cell.cfg.fd = fd::makeOmegaK(*cell.cfg.fp, 2, /*stab=*/0, seed);
    cell.cfg.seed = seed * 5 + 2;
    ChaosConfig chaos;
    chaos.glitch = {GlitchKind::kStabExcludeCorrect, 0, seed};
    cell.chaos = chaos;
    cell.watchdog = WatchdogConfig{200'000, 0, 0};
    cell.algo = fdSampler();
    cell.proposals = props4;
    cell.memo_family = "chaos-neg-omegak";
    recordCoverage(cover, "negative", chaos);
    labels.push_back("stab-exclude-correct seed " + std::to_string(seed));
    cells.push_back(std::move(cell));
  }
  sim::BatchStats stats;
  const auto results = sim::BatchRunner(opts).run(cells, &stats);
  pool.add(stats);
  NegativeStats st;
  for (const CellResult& r : results) {
    ++st.runs;
    st.total_steps += r.steps;
    if (!r.error && r.verdict == RunVerdict::kAxiomViolation) {
      ++st.detected;
    } else {
      require(false, "negative control " + labels[r.index] + " escaped: " +
                         (r.error ? r.detail : sim::runVerdictName(r.verdict)));
    }
  }
  return st;
}

// ---- Replay determinism ----

int replayDeterminism(int pairs, sim::BatchOptions opts) {
  // The whole point is to EXECUTE each seed twice; a memo would answer
  // the replay from the first run and certify nothing. Always off here,
  // whatever --memo said.
  opts.memo = nullptr;
  const auto props = std::vector<Value>{100, 101, 102, 103};
  // Submit each seed's run twice in one batch: with jobs > 1 the two
  // executions land on different workers, so bit-identical results also
  // certify that pool size cannot leak into a run.
  std::vector<BatchCell> cells;
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < pairs; ++i) {
      const std::uint64_t seed = static_cast<std::uint64_t>(i) * 997 + 13;
      cells.push_back(fig1Cell(seed, props));
    }
  }
  const auto results = sim::BatchRunner(opts).run(cells);
  int ok = 0;
  for (int i = 0; i < pairs; ++i) {
    const CellResult& a = results[static_cast<std::size_t>(i)];
    const CellResult& b = results[static_cast<std::size_t>(i + pairs)];
    const bool same = !a.error && !b.error && a.verdict == b.verdict &&
                      a.steps == b.steps && a.trace_hash == b.trace_hash;
    if (same) {
      ++ok;
    } else {
      require(false, "replay divergence at seed " +
                         std::to_string(static_cast<std::uint64_t>(i) * 997 +
                                        13));
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const bool quick = args.quick;
  sim::ReportCache memo;
  const sim::BatchOptions opts = args.batchOptions(&memo);
  const int jobs = sim::resolveJobs(args.jobs);
  // Full depth: >= 5,000 legal runs + >= 1,000 negative controls (the
  // numbers EXPERIMENTS.md row E16 quotes). --quick is the CI smoke.
  const int fig1_runs = quick ? 160 : 2200;
  const int fig2_runs = quick ? 120 : 1800;
  const int fig3_runs = quick ? 60 : 1000;
  const int neg_per_kind = quick ? 12 : 200;
  const int replay_pairs = quick ? 6 : 25;

  std::printf("\n=== chaos certification (%s, jobs=%d, %s, memo %s) ===\n",
              quick ? "--quick" : "full depth", jobs,
              args.steal ? "stealing" : "static shards",
              args.memo ? "on" : "off");
  const bench::WallTimer wall;
  CoverageMatrix cover;
  PoolTotals pool;
  const CampaignStats f1 = legalFig1(fig1_runs, opts, cover, pool);
  const CampaignStats f2 = legalFig2(fig2_runs, opts, cover, pool);
  const CampaignStats f3 = legalFig3(fig3_runs, opts, cover, pool);
  const NegativeStats neg = negativeControls(neg_per_kind, opts, cover, pool);
  const int replays_ok = replayDeterminism(replay_pairs, opts);
  const double wall_s = wall.seconds();

  bench::Table t({"campaign", "runs", "verdicts", "safety viol",
                  "certified"});
  const int legal_safety = f1.count(RunVerdict::kSafetyViolation) +
                           f2.count(RunVerdict::kSafetyViolation) +
                           f3.count(RunVerdict::kSafetyViolation) +
                           f1.agreement_failures + f2.agreement_failures;
  t.addRow({"legal fig1 (n-set agr, k=3)", bench::fmt(f1.runs),
            f1.histogram(),
            bench::fmt(f1.count(RunVerdict::kSafetyViolation) +
                       f1.agreement_failures),
            bench::passFail(f1.count(RunVerdict::kSafetyViolation) == 0 &&
                            f1.count(RunVerdict::kAxiomViolation) == 0 &&
                            f1.agreement_failures == 0 && f1.errors == 0)});
  t.addRow({"legal fig2 (f-res, k=2)", bench::fmt(f2.runs), f2.histogram(),
            bench::fmt(f2.count(RunVerdict::kSafetyViolation) +
                       f2.agreement_failures),
            bench::passFail(f2.count(RunVerdict::kSafetyViolation) == 0 &&
                            f2.count(RunVerdict::kAxiomViolation) == 0 &&
                            f2.agreement_failures == 0 && f2.errors == 0)});
  t.addRow({"legal fig3 (extraction)", bench::fmt(f3.runs), f3.histogram(),
            bench::fmt(f3.count(RunVerdict::kSafetyViolation)),
            bench::passFail(f3.count(RunVerdict::kBudgetExhausted) ==
                            f3.runs)});
  t.addRow({"negative controls (5 kinds)", bench::fmt(neg.runs),
            "axiom_violation=" + std::to_string(neg.detected), "0",
            bench::passFail(neg.detected == neg.runs)});
  t.addRow({"replay determinism", bench::fmt(replay_pairs),
            "bit-identical=" + std::to_string(replays_ok), "-",
            bench::passFail(replays_ok == replay_pairs)});
  t.print();
  printCoverage(cover, {"fig1", "fig2", "fig3", "negative"});
  checkCoverage(cover);

  const long long total_steps = f1.total_steps + f2.total_steps +
                                f3.total_steps + neg.total_steps;
  const int total_runs =
      f1.runs + f2.runs + f3.runs + neg.runs + 2 * replay_pairs;
  std::printf(
      "legal runs: %d, safety violations: %d; negative controls: %d/%d "
      "detected (%.1f%%)\n",
      f1.runs + f2.runs + f3.runs, legal_safety, neg.detected, neg.runs,
      neg.runs > 0 ? 100.0 * neg.detected / neg.runs : 0.0);
  std::printf("wall %.2fs at jobs=%d — %d runs, %.0f steps/s\n", wall_s, jobs,
              total_runs, wall_s > 0 ? total_steps / wall_s : 0.0);
  std::printf("pool: %zu steal ops moved %zu cells; memo %zu hits / %zu "
              "misses\n",
              pool.steal_ops, pool.stolen_cells, pool.memo_hits,
              pool.memo_misses);

  if (!args.json_path.empty()) {
    bench::JsonWriter json("bench_chaos", jobs);
    json.note("mode", quick ? "quick" : "full");
    json.note("scheduler", args.steal ? "steal" : "static");
    json.note("memo", args.memo ? "on" : "off");
    json.metric("steal_ops", static_cast<double>(pool.steal_ops));
    json.metric("stolen_cells", static_cast<double>(pool.stolen_cells));
    json.metric("memo_hits", static_cast<double>(pool.memo_hits));
    json.metric("memo_misses", static_cast<double>(pool.memo_misses));
    // Per-worker shape of the soak's final batch (the campaign-wide sums
    // stay in the pool_* metrics above).
    bench::emitBatchStats(json, "last_batch", pool.last);
    json.metric("wall_s", wall_s);
    json.metric("total_runs", total_runs);
    json.metric("total_steps", static_cast<double>(total_steps));
    json.metric("steps_per_s", wall_s > 0 ? total_steps / wall_s : 0.0);
    json.metric("failures", g_failures);
    json.row("legal_fig1",
             {{"runs", static_cast<double>(f1.runs)},
              {"ok", static_cast<double>(f1.count(RunVerdict::kOk))},
              {"safety_violations",
               static_cast<double>(f1.count(RunVerdict::kSafetyViolation) +
                                   f1.agreement_failures)},
              {"steps", static_cast<double>(f1.total_steps)}});
    json.row("legal_fig2",
             {{"runs", static_cast<double>(f2.runs)},
              {"ok", static_cast<double>(f2.count(RunVerdict::kOk))},
              {"safety_violations",
               static_cast<double>(f2.count(RunVerdict::kSafetyViolation) +
                                   f2.agreement_failures)},
              {"steps", static_cast<double>(f2.total_steps)}});
    json.row("legal_fig3",
             {{"runs", static_cast<double>(f3.runs)},
              {"budget_exhausted",
               static_cast<double>(f3.count(RunVerdict::kBudgetExhausted))},
              {"steps", static_cast<double>(f3.total_steps)}});
    json.row("negative_controls",
             {{"runs", static_cast<double>(neg.runs)},
              {"detected", static_cast<double>(neg.detected)}});
    json.row("replay_determinism",
             {{"pairs", static_cast<double>(replay_pairs)},
              {"bit_identical", static_cast<double>(replays_ok)}});
    json.write(args.json_path);
  }

  if (g_failures > 0) {
    std::printf("\nchaos certification FAILED: %d finding(s)\n", g_failures);
    return 1;
  }
  std::puts("\nchaos certification passed");
  return 0;
}
