// E19: the message-passing substrate and its realized detectors.
//
// Four sections over src/sim/net/ (docs/NET.md):
//   * substrate:  a (gst, delta, faults) x seed grid of heartbeat
//     executions, each simulated twice. Certifies seed determinism (the
//     two trace hashes are bit-identical) and the partial-synchrony
//     envelope (no message sent at or after GST lags more than delta —
//     graceful degradation however hostile the pre-GST fault draw).
//   * certify:    the realized-history campaign. Every (lens x pattern x
//     fault config x seed) cell drives an audited watched run whose
//     detector is a heartbeat-REALIZED <>P / Omega / Upsilon history cut
//     from one shared simulation (FdCache); Upsilon and Omega cells
//     additionally compose link faults with chaos crash injection
//     (protecting the realized leader — the legality table of
//     docs/NET.md; <>P cells take in-pattern crashes only, since any
//     injected crash falsifies its stable value by definition). Full
//     depth runs >= 1,080 cells; certification is ZERO axiom violations.
//   * negative:   per-family illegal glitches wrapped around realized
//     detectors, driven through an FD sampler. 100% detection required.
//   * figures:    Fig. 1 (n-set agreement from Upsilon) and Fig. 2
//     (f-resilient from Upsilon^f) run against realized detectors with a
//     small GST — the paper's algorithms on heartbeat histories instead
//     of scripted ones — plus bit-identical same-seed replay.
//
// `--json out.json` records runs, failures, wall time and steps/s per
// section, plus the substrate grid's summed NetCounters (CI archives
// BENCH_net.json per push and holds its counters to
// bench/BENCH_net.baseline.json). --quick is the CI
// smoke; full depth is the nightly soak quoted in EXPERIMENTS.md E19.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "test_util.h"

namespace {

using namespace wfd;
using sim::BatchCell;
using sim::CellResult;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::FdCache;
using sim::GlitchKind;
using sim::RunConfig;
using sim::RunVerdict;
using sim::WatchdogConfig;
using test::distinctProposals;
using sim::net::NetConfig;
using sim::net::RealizedFd;
using sim::net::RealizedLens;

int g_failures = 0;

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

// ---- shared fixtures -----------------------------------------------------

struct FaultGrid {
  const char* name;
  sim::net::LinkFaults faults;
};

const FaultGrid kFaultGrid[] = {
    {"mild", {1, 8, 50, 0, 32}},
    {"harsh", {1, 16, 250, 1, 48}},
    {"partitioned", {2, 24, 100, 2, 64}},
};

NetConfig netCfg(const FaultGrid& g, Time gst, Time delta, std::uint64_t seed) {
  NetConfig cfg;
  cfg.env = {gst, delta};
  cfg.faults = g.faults;
  cfg.seed = seed;
  return cfg;
}

std::vector<FailurePattern> patterns() {
  return {FailurePattern::failureFree(4),
          FailurePattern::withCrashes(4, {{3, 40}}),
          FailurePattern::withCrashes(5, {{0, 10}, {4, 90}})};
}

sim::AlgoFn fdSampler(int queries) {
  return [queries](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < queries; ++i) (void)co_await e.queryFd();
    e.decide(0);
    co_return sim::Unit{};
  };
}

sim::AlgoFn fig1Algo() {
  return [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
}

struct SectionStats {
  int runs = 0;
  int failures = 0;
  long long steps = 0;
  double wall_s = 0;
  sim::net::NetCounters net;  // summed over the substrate grid's executions
};

// ---- section A: substrate determinism + envelope grid --------------------

SectionStats substrateGrid(int seeds_per_cell) {
  const bench::WallTimer wall;
  SectionStats s;
  const Time gsts[] = {0, 64, 256};
  const Time deltas[] = {2, 4};
  for (const FaultGrid& g : kFaultGrid) {
    for (const Time gst : gsts) {
      for (const Time delta : deltas) {
        for (int i = 0; i < seeds_per_cell; ++i) {
          const std::uint64_t seed = 1 + static_cast<std::uint64_t>(i);
          const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
          const NetConfig cfg = netCfg(g, gst, delta, seed);
          const auto a = sim::net::simulateHeartbeats(fp, cfg);
          const auto b = sim::net::simulateHeartbeats(fp, cfg);
          ++s.runs;
          const sim::net::NetCounters& c = a->counters;
          s.net.sent += c.sent;
          s.net.delivered += c.delivered;
          s.net.dropped += c.dropped;
          s.net.partition_dropped += c.partition_dropped;
          s.net.to_crashed += c.to_crashed;
          s.net.timers_fired += c.timers_fired;
          s.net.output_switches += c.output_switches;
          if (a->counters.trace_hash != b->counters.trace_hash) {
            ++s.failures;
            std::printf("FAIL: %s gst=%lld delta=%lld seed=%llu diverged\n",
                        g.name, static_cast<long long>(gst),
                        static_cast<long long>(delta),
                        static_cast<unsigned long long>(seed));
          }
          if (a->counters.max_post_gst_lag > delta) {
            ++s.failures;
            std::printf("FAIL: %s gst=%lld envelope broken: lag %lld > %lld\n",
                        g.name, static_cast<long long>(gst),
                        static_cast<long long>(a->counters.max_post_gst_lag),
                        static_cast<long long>(delta));
          }
        }
      }
    }
  }
  s.wall_s = wall.seconds();
  return s;
}

// ---- section B: the realized-history certification campaign --------------

SectionStats certifyCampaign(int seeds_per_cell, const sim::BatchOptions& opts,
                             FdCache& cache,
                             sim::BatchStats* batch_stats = nullptr) {
  const bench::WallTimer wall;
  const auto pats = patterns();
  struct LensRow {
    RealizedLens lens;
    const char* name;
  };
  const LensRow lenses[] = {
      {RealizedLens::kEventuallyPerfect, "net<>P"},
      {RealizedLens::kOmega, "netOmega"},
      {RealizedLens::kUpsilon, "netUpsilon"},
  };
  std::vector<BatchCell> cells;
  for (const LensRow& lr : lenses) {
    for (std::size_t pi = 0; pi < pats.size(); ++pi) {
      for (std::size_t gi = 0; gi < std::size(kFaultGrid); ++gi) {
        for (int si = 0; si < seeds_per_cell; ++si) {
          const FailurePattern& fp = pats[pi];
          const std::uint64_t seed =
              1 + static_cast<std::uint64_t>(si) + 100 * (pi + 10 * gi);
          const NetConfig ncfg = netCfg(kFaultGrid[gi], /*gst=*/96,
                                        /*delta=*/4, seed);
          const int n_plus_1 = fp.nProcs();
          BatchCell cell;
          cell.cfg.n_plus_1 = n_plus_1;
          cell.cfg.fp = fp;
          cell.cfg.seed = seed * 31 + gi;
          ChaosConfig chaos;
          chaos.seed = seed;
          if (lr.lens == RealizedLens::kUpsilon) {
            cell.cfg.fd = cache.netUpsilonF(fp, n_plus_1 - 1, ncfg);
            cell.algo = fig1Algo();
          } else if (lr.lens == RealizedLens::kOmega) {
            cell.cfg.fd = cache.netOmega(fp, ncfg);
            cell.algo = fdSampler(60);
          } else {
            cell.cfg.fd = cache.netEventuallyPerfect(fp, ncfg);
            cell.algo = fdSampler(60);
          }
          if (lr.lens != RealizedLens::kEventuallyPerfect) {
            // Compose link faults with crash injection. The realized
            // stable value excludes the original pattern's min correct
            // process; protecting it keeps the history in D(F').
            const Pid leader = fp.correct().members().front();
            chaos.max_faulty = fp.faulty().size() + 1;
            chaos.protected_pids = ProcSet{leader};
            chaos.crashes.push_back({CrashInjection::Strategy::kRandom,
                                     /*victim=*/-1, /*at=*/0, /*horizon=*/500,
                                     /*count=*/1, /*seed=*/seed * 17});
          }
          cell.chaos = chaos;
          cell.watchdog =
              WatchdogConfig{3'000'000, 0,
                             lr.lens == RealizedLens::kUpsilon ? n_plus_1 - 1 : 0};
          cell.proposals = distinctProposals(n_plus_1);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  const auto results = sim::BatchRunner(opts).run(cells, batch_stats);
  SectionStats s;
  s.runs = static_cast<int>(results.size());
  for (const CellResult& r : results) {
    s.steps += r.steps;
    if (!r.ok()) {
      ++s.failures;
      std::printf("FAIL: certify cell %zu: %s\n", r.index, r.detail.c_str());
    }
  }
  s.wall_s = wall.seconds();
  return s;
}

// ---- section C: per-family negative controls -----------------------------

SectionStats negativeControls(int seeds_per_control,
                              const sim::BatchOptions& opts, FdCache& cache) {
  const bench::WallTimer wall;
  struct Control {
    RealizedLens lens;
    GlitchKind kind;
  };
  const Control controls[] = {
      {RealizedLens::kEventuallyPerfect, GlitchKind::kEmptyAnswer},
      {RealizedLens::kEventuallyPerfect, GlitchKind::kPostStabFlap},
      {RealizedLens::kOmega, GlitchKind::kEmptyAnswer},
      {RealizedLens::kOmega, GlitchKind::kStabExcludeCorrect},
      {RealizedLens::kUpsilon, GlitchKind::kUndersizedAnswer},
      {RealizedLens::kUpsilon, GlitchKind::kStabToCorrect},
  };
  const auto fp = FailurePattern::withCrashes(4, {{3, 30}});
  std::vector<BatchCell> cells;
  for (const Control& c : controls) {
    for (int si = 0; si < seeds_per_control; ++si) {
      const std::uint64_t seed = 1 + static_cast<std::uint64_t>(si);
      const NetConfig ncfg = netCfg(kFaultGrid[1], 64, 4, seed);
      const auto h = cache.netHistory(fp, ncfg);
      BatchCell cell;
      cell.cfg.n_plus_1 = fp.nProcs();
      cell.cfg.fp = fp;
      cell.cfg.fd = std::make_shared<const RealizedFd>(h, c.lens, /*f=*/2);
      cell.cfg.seed = seed;
      ChaosConfig chaos;
      chaos.glitch = {c.kind, 0, seed};
      cell.chaos = chaos;
      cell.watchdog = WatchdogConfig{500'000, 0, 0};
      cell.algo = fdSampler(120);
      cell.proposals = distinctProposals(fp.nProcs());
      cells.push_back(std::move(cell));
    }
  }
  const auto results = sim::BatchRunner(opts).run(cells);
  SectionStats s;
  s.runs = static_cast<int>(results.size());
  for (const CellResult& r : results) {
    s.steps += r.steps;
    if (r.error || r.verdict != RunVerdict::kAxiomViolation) {
      ++s.failures;
      std::printf("FAIL: negative control %zu escaped: %s %s\n", r.index,
                  sim::runVerdictName(r.verdict), r.detail.c_str());
    }
  }
  s.wall_s = wall.seconds();
  return s;
}

// ---- section D: the paper's figures on realized detectors ----------------

SectionStats figuresOnRealized(int seeds, FdCache& cache) {
  const bench::WallTimer wall;
  SectionStats s;
  for (int si = 0; si < seeds; ++si) {
    const std::uint64_t seed = 1 + static_cast<std::uint64_t>(si);
    // Fig. 1: n-set agreement from realized Upsilon, small GST.
    {
      const int n_plus_1 = 4;
      const auto fp = FailurePattern::withCrashes(n_plus_1, {{3, 40}});
      const NetConfig ncfg = netCfg(kFaultGrid[si % 3], /*gst=*/64, 4, seed);
      RunConfig cfg;
      cfg.n_plus_1 = n_plus_1;
      cfg.fp = fp;
      cfg.fd = cache.netUpsilonF(fp, n_plus_1 - 1, ncfg);
      cfg.seed = seed;
      cfg.audit = sim::AuditMode::kThrow;
      const auto props = distinctProposals(n_plus_1);
      const auto a = runTask(cfg, fig1Algo(), props);
      const auto b = runTask(cfg, fig1Algo(), props);  // same-seed replay
      ++s.runs;
      s.steps += a.steps + b.steps;
      require(a.all_correct_done, "fig1/realized: correct processes done");
      require(core::checkKSetAgreement(a, n_plus_1 - 1, props).ok(),
              "fig1/realized: k-set agreement");
      require(a.trace().hash64() == b.trace().hash64(),
              "fig1/realized: bit-identical same-seed replay");
      if (!a.all_correct_done ||
          a.trace().hash64() != b.trace().hash64()) {
        ++s.failures;
      }
    }
    // Fig. 2: f-resilient f-set agreement from realized Upsilon^f.
    {
      const int n_plus_1 = 4;
      const int f = 2;
      const auto fp = FailurePattern::withCrashes(n_plus_1, {{0, 30}});
      const NetConfig ncfg = netCfg(kFaultGrid[(si + 1) % 3], /*gst=*/128, 4,
                                    seed * 7);
      RunConfig cfg;
      cfg.n_plus_1 = n_plus_1;
      cfg.fp = fp;
      cfg.fd = cache.netUpsilonF(fp, f, ncfg);
      cfg.seed = seed;
      cfg.audit = sim::AuditMode::kThrow;
      const auto props = distinctProposals(n_plus_1);
      const auto algo = [f](Env& e, Value v) {
        return core::upsilonFSetAgreement(e, f, v);
      };
      const auto a = runTask(cfg, algo, props);
      const auto b = runTask(cfg, algo, props);
      ++s.runs;
      s.steps += a.steps + b.steps;
      require(a.all_correct_done, "fig2/realized: correct processes done");
      require(core::checkKSetAgreement(a, f, props).ok(),
              "fig2/realized: f-set agreement");
      require(a.trace().hash64() == b.trace().hash64(),
              "fig2/realized: bit-identical same-seed replay");
      if (!a.all_correct_done ||
          a.trace().hash64() != b.trace().hash64()) {
        ++s.failures;
      }
    }
  }
  s.wall_s = wall.seconds();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const bool quick = args.quick;
  const sim::BatchOptions opts = args.batchOptions();
  const int jobs = sim::resolveJobs(args.jobs);
  // Full depth: 1,080 certification runs (3 lenses x 3 patterns x 3 fault
  // configs x 40 seeds) + 360 substrate pairs + 120 negative controls +
  // 50 figure pairs — the numbers EXPERIMENTS.md row E19 quotes.
  const int grid_seeds = quick ? 3 : 20;
  const int certify_seeds = quick ? 4 : 40;
  const int neg_seeds = quick ? 4 : 20;
  const int fig_seeds = quick ? 4 : 25;

  std::printf("\n=== net substrate + realized detectors (%s, jobs=%d) ===\n",
              quick ? "--quick" : "full depth", jobs);
  const bench::WallTimer wall;
  FdCache cache;
  const SectionStats sub = substrateGrid(grid_seeds);
  sim::BatchStats cert_batch;
  const SectionStats cert =
      certifyCampaign(certify_seeds, opts, cache, &cert_batch);
  const SectionStats neg = negativeControls(neg_seeds, opts, cache);
  const SectionStats fig = figuresOnRealized(fig_seeds, cache);
  const double wall_s = wall.seconds();

  bench::Table t({"section", "runs", "failures", "wall s", "certified"});
  t.addRow({"substrate grid (determinism+envelope)", bench::fmt(sub.runs),
            bench::fmt(sub.failures), bench::fmt(sub.wall_s),
            bench::passFail(sub.failures == 0)});
  t.addRow({"certify (audited realized histories)", bench::fmt(cert.runs),
            bench::fmt(cert.failures), bench::fmt(cert.wall_s),
            bench::passFail(cert.failures == 0)});
  t.addRow({"negative controls (100% detection)", bench::fmt(neg.runs),
            bench::fmt(neg.failures), bench::fmt(neg.wall_s),
            bench::passFail(neg.failures == 0)});
  t.addRow({"fig1/fig2 on realized + replay", bench::fmt(fig.runs),
            bench::fmt(fig.failures), bench::fmt(fig.wall_s),
            bench::passFail(fig.failures == 0)});
  t.print();
  std::printf("histories simulated: %zu (cache hits %zu)\n", cache.size(),
              cache.hits());

  g_failures += sub.failures + cert.failures + neg.failures;

  if (!args.json_path.empty()) {
    bench::JsonWriter json("bench_net", jobs);
    json.note("mode", quick ? "quick" : "full");
    json.metric("wall_s", wall_s);
    // The substrate grid simulates heartbeats, not steps: its row carries
    // the summed NetCounters where the other rows carry steps.
    const auto section = [&json](const char* name, const SectionStats& s) {
      const auto n = [](auto v) { return static_cast<double>(v); };
      std::vector<std::pair<std::string, double>> fields = {
          {"runs", n(s.runs)},
          {"failures", n(s.failures)},
          {"wall_s", s.wall_s}};
      if (s.net.sent == 0) {
        const double rate = s.wall_s > 0 ? n(s.steps) / s.wall_s : 0;
        fields.insert(fields.end(),
                      {{"steps", n(s.steps)}, {"steps_per_s", rate}});
      } else {
        fields.insert(fields.end(),
                      {{"sent", n(s.net.sent)},
                       {"delivered", n(s.net.delivered)},
                       {"dropped", n(s.net.dropped)},
                       {"partition_dropped", n(s.net.partition_dropped)},
                       {"to_crashed", n(s.net.to_crashed)},
                       {"timers_fired", n(s.net.timers_fired)},
                       {"output_switches", n(s.net.output_switches)}});
      }
      json.row(name, std::move(fields));
    };
    section("substrate_grid", sub);
    section("certify", cert);
    section("negative_controls", neg);
    section("figures_realized", fig);
    json.metric("fd_cache_histories", static_cast<double>(cache.size()));
    json.metric("fd_cache_hits", static_cast<double>(cache.hits()));
    bench::emitBatchStats(json, "certify_batch", cert_batch);
    if (!json.write(args.json_path)) ++g_failures;
  }

  if (g_failures != 0) {
    std::printf("\nbench_net: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("\nbench_net: all sections certified\n");
  return 0;
}
