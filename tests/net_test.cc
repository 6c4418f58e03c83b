// The message-passing substrate (sim/net/) and its realized detectors:
// seed determinism, the partial-synchrony envelope contract, golden trace
// hashes, offline + online axiom certification of heartbeat-realized
// <>P / Omega / Upsilon histories, legality of composing them with chaos
// crash injection, post-GST negative controls, and cache sharing.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkKSetAgreement;
using core::upsilonFSetAgreement;
using core::upsilonSetAgreement;
using sim::AuditMode;
using sim::BatchCell;
using sim::BatchOptions;
using sim::BatchRunner;
using sim::BatchStats;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::FdCache;
using sim::GlitchKind;
using sim::ReportCache;
using sim::RunConfig;
using sim::RunReport;
using sim::RunVerdict;
using sim::WatchdogConfig;
using sim::net::NetConfig;
using sim::net::NetHistoryPtr;
using sim::net::RealizedFd;
using sim::net::RealizedLens;
using sim::net::simulateHeartbeats;

// A substrate configuration with every pre-GST fault class armed.
NetConfig faultyNet(std::uint64_t seed, Time gst = 64) {
  NetConfig cfg;
  cfg.env = {gst, 4};
  cfg.faults = {/*min_delay=*/1, /*max_delay=*/12, /*drop_permille=*/150,
                /*partitions=*/1, /*partition_len=*/32};
  cfg.seed = seed;
  return cfg;
}

// ---- Substrate determinism and the envelope contract ----

TEST(NetWorld, SameSeedIsBitIdentical) {
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  const auto a = simulateHeartbeats(fp, faultyNet(11));
  const auto b = simulateHeartbeats(fp, faultyNet(11));
  EXPECT_EQ(a->counters.trace_hash, b->counters.trace_hash);
  EXPECT_EQ(a->counters.sent, b->counters.sent);
  EXPECT_EQ(a->counters.dropped, b->counters.dropped);
  ASSERT_EQ(a->switches.size(), b->switches.size());
  for (std::size_t p = 0; p < a->switches.size(); ++p) {
    ASSERT_EQ(a->switches[p].size(), b->switches[p].size());
    for (std::size_t i = 0; i < a->switches[p].size(); ++i) {
      EXPECT_EQ(a->switches[p][i].at, b->switches[p][i].at);
      EXPECT_EQ(a->switches[p][i].out.bits(), b->switches[p][i].out.bits());
    }
  }
}

TEST(NetWorld, DifferentSeedsDiverge) {
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  const auto a = simulateHeartbeats(fp, faultyNet(11));
  const auto b = simulateHeartbeats(fp, faultyNet(12));
  EXPECT_NE(a->counters.trace_hash, b->counters.trace_hash);
}

TEST(NetWorld, EnvelopeBoundsPostGstLagAcrossSeeds) {
  // Whatever the pre-GST fault draw, no message sent at or after GST may
  // take longer than delta — the graceful-degradation half of the
  // partial-synchrony contract.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
    const NetConfig cfg = faultyNet(seed);
    const auto h = simulateHeartbeats(fp, cfg);
    EXPECT_GE(h->counters.max_post_gst_lag, 1) << "seed " << seed;
    EXPECT_LE(h->counters.max_post_gst_lag, cfg.env.delta) << "seed " << seed;
    // The fault classes actually fired (this config arms all of them).
    EXPECT_GT(h->counters.dropped + h->counters.partition_dropped, 0)
        << "seed " << seed;
    EXPECT_GT(h->counters.delivered, 0) << "seed " << seed;
  }
}

TEST(NetWorld, FaultFreeSubstrateDropsNothing) {
  NetConfig cfg;
  cfg.env = {0, 4};  // synchronous from the start
  cfg.seed = 3;
  const auto h = simulateHeartbeats(FailurePattern::failureFree(4), cfg);
  EXPECT_EQ(h->counters.dropped, 0);
  EXPECT_EQ(h->counters.partition_dropped, 0);
  EXPECT_LE(h->counters.max_post_gst_lag, cfg.env.delta);
}

// ---- Golden hashes: the substrate is a pinned, replayable artifact ----
//
// These values pin the full event stream (sends, fates, timers, output
// switches) of two workloads. A change here is a semantic change to the
// substrate and must be deliberate (docs/NET.md).

TEST(NetWorld, GoldenHashWorkload1) {
  NetConfig cfg;
  cfg.env = {64, 4};
  cfg.faults = {1, 12, 150, 1, 32};
  cfg.seed = 42;
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  const auto h = simulateHeartbeats(fp, cfg);
  EXPECT_EQ(h->counters.trace_hash, 0xda4ddcd2b3443314ULL);
  EXPECT_EQ(h->horizon, 832);
  EXPECT_EQ(h->counters.sent, 3813);
  EXPECT_EQ(h->counters.dropped, 37);
  EXPECT_EQ(h->counters.partition_dropped, 94);
  EXPECT_EQ(h->counters.output_switches, 48);
}

TEST(NetWorld, GoldenHashWorkload2) {
  NetConfig cfg;
  cfg.env = {128, 3};
  cfg.faults = {2, 20, 300, 2, 48};
  cfg.hb = {3, 5, 3};
  cfg.seed = 7;
  const auto fp = FailurePattern::withCrashes(5, {{0, 10}, {4, 90}});
  const auto h = simulateHeartbeats(fp, cfg);
  EXPECT_EQ(h->counters.trace_hash, 0xcadaaa2cfb58959eULL);
  EXPECT_EQ(h->horizon, 1024);
  EXPECT_EQ(h->counters.sent, 4240);
  EXPECT_EQ(h->counters.dropped, 141);
  EXPECT_EQ(h->counters.partition_dropped, 144);
  EXPECT_EQ(h->counters.output_switches, 90);
}

// ---- Offline certification: realized histories satisfy their axioms ----

TEST(RealizedFd, LensesSatisfyTheirAxiomFamiliesOffline) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::random(5, 2, 60, seed * 31);
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    const Time horizon = h->horizon + 64;

    const auto ep = sim::net::makeRealizedEventuallyPerfect(h);
    const auto ep_rep = fd::checkEventuallyPerfect(*ep, fp, horizon);
    EXPECT_TRUE(ep_rep.ok) << "seed " << seed << ": " << ep_rep.violation;

    const auto om = sim::net::makeRealizedOmega(h);
    const auto om_rep = fd::checkOmegaK(*om, fp, 1, horizon);
    EXPECT_TRUE(om_rep.ok) << "seed " << seed << ": " << om_rep.violation;

    const int f = fp.nProcs() - 1;
    const auto up = sim::net::makeRealizedUpsilon(h, f);
    const auto up_rep = fd::checkUpsilonF(*up, fp, f, horizon);
    EXPECT_TRUE(up_rep.ok) << "seed " << seed << ": " << up_rep.violation;
  }
}

TEST(RealizedFd, StabilizationTimeIsComputedNotAssumed) {
  // The reported witness must really witness: at stab - 1 some process's
  // answer still differs from the stable value (otherwise the computed
  // time would be smaller), and from stab on every live answer matches.
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  const auto h = simulateHeartbeats(fp, faultyNet(5));
  for (const RealizedLens lens : {RealizedLens::kEventuallyPerfect,
                                  RealizedLens::kOmega, RealizedLens::kUpsilon}) {
    const RealizedFd fd(h, lens, /*f=*/3);
    const Time stab = fd.stabilizationTime();
    for (Pid p = 0; p < fp.nProcs(); ++p) {
      if (!fp.isCorrect(p)) continue;
      for (Time t = stab; t <= h->horizon; t += 7) {
        EXPECT_EQ(fd.query(p, t).bits(), fd.stableValue().bits())
            << fd.name() << " p" << p << " t" << t;
      }
    }
    if (stab > 0) {
      bool witnessed = false;
      for (Pid p = 0; p < fp.nProcs() && !witnessed; ++p) {
        if (fp.crashTime(p) >= stab - 1 &&
            fd.query(p, stab - 1).bits() != fd.stableValue().bits()) {
          witnessed = true;
        }
      }
      EXPECT_TRUE(witnessed) << fd.name() << " stab " << stab << " is slack";
    }
  }
}

TEST(RealizedFd, QueriesBeyondHorizonClampToFinalValue) {
  const auto fp = FailurePattern::failureFree(3);
  const auto h = simulateHeartbeats(fp, faultyNet(9, /*gst=*/32));
  const auto om = sim::net::makeRealizedOmega(h);
  EXPECT_EQ(om->query(0, h->horizon).bits(),
            om->query(0, h->horizon + 1'000'000).bits());
}

// ---- Online certification: the step auditor accepts realized runs ----

sim::AlgoFn fig1Algo() {
  return [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
}

TEST(RealizedFd, AuditedFig1RunsCleanOnRealizedUpsilon) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 40}});
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = sim::net::makeRealizedUpsilon(h, n_plus_1 - 1);
    cfg.seed = seed;
    cfg.audit = AuditMode::kThrow;  // any axiom slip aborts the run
    const auto res = runTask(cfg, fig1Algo(), test::distinctProposals(n_plus_1));
    EXPECT_TRUE(res.all_correct_done) << "seed " << seed;
    const auto check =
        checkKSetAgreement(res, n_plus_1 - 1, test::distinctProposals(n_plus_1));
    EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << check.violation;
  }
}

TEST(RealizedFd, AuditedFig2RunsCleanOnRealizedUpsilonF) {
  const int n_plus_1 = 4;
  const int f = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{0, 30}});
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = sim::net::makeRealizedUpsilon(h, f);
    cfg.seed = seed;
    cfg.audit = AuditMode::kThrow;
    const auto algo = [f](Env& e, Value v) { return upsilonFSetAgreement(e, f, v); };
    const auto res = runTask(cfg, algo, test::distinctProposals(n_plus_1));
    EXPECT_TRUE(res.all_correct_done) << "seed " << seed;
    const auto check =
        checkKSetAgreement(res, f, test::distinctProposals(n_plus_1));
    EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << check.violation;
  }
}

TEST(RealizedFd, AuditedEventuallyPerfectSamplerRunsClean) {
  // <>P has no shared-memory protocol here; a sampler automaton exercises
  // the online family checks (constancy + end-of-run equality with
  // faulty(F)) at every process.
  const auto sampler = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < 80; ++i) (void)co_await e.queryFd();
    e.decide(0);
    co_return sim::Unit{};
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto fp = FailurePattern::withCrashes(4, {{2, 25}});
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.fp = fp;
    cfg.fd = sim::net::makeRealizedEventuallyPerfect(h);
    cfg.seed = seed;
    cfg.audit = AuditMode::kThrow;
    const auto res = runTask(cfg, sampler, test::distinctProposals(4));
    EXPECT_TRUE(res.all_correct_done) << "seed " << seed;
  }
}

// ---- Composing realized detectors with chaos crash injection ----

TEST(RealizedFd, UpsilonAndOmegaComposeWithInjectedCrashes) {
  // Legality (docs/NET.md): the realized stable value excludes the
  // original pattern's min correct process l; protecting l keeps
  // stable != correct(F') for Upsilon and l in correct(F') for Omega,
  // whatever else the injector kills.
  const int n_plus_1 = 5;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 35}});
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    const Pid leader = fp.correct().members().front();
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = sim::net::makeRealizedUpsilon(h, n_plus_1 - 1);
    cfg.seed = seed;
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 3;
    chaos.protected_pids = ProcSet{leader};
    chaos.crashes.push_back({CrashInjection::Strategy::kRandom,
                             /*victim=*/-1, /*at=*/0, /*horizon=*/600,
                             /*count=*/2, /*seed=*/seed * 13});
    ASSERT_TRUE(chaos.legal());
    const RunReport rep =
        runChaosTask(cfg, chaos, WatchdogConfig{3'000'000, 0, n_plus_1 - 1},
                     fig1Algo(), props);
    ASSERT_EQ(rep.verdict, RunVerdict::kOk)
        << "seed " << seed << ": " << sim::runVerdictName(rep.verdict) << " "
        << rep.detail;
    EXPECT_TRUE(checkKSetAgreement(rep.result, n_plus_1 - 1, props).ok());
  }
}

TEST(RealizedFd, EventuallyPerfectNeverComposesWithInjectedCrashes) {
  // The negative side of the legality table: <>P stabilizes on the
  // ORIGINAL faulty(F); any injected crash makes faulty(F') a strict
  // superset, so the end-of-run family check must flag the composition.
  const auto sampler = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < 200; ++i) (void)co_await e.queryFd();
    e.decide(0);
    co_return sim::Unit{};
  };
  const auto fp = FailurePattern::withCrashes(4, {{3, 20}});
  const auto h = simulateHeartbeats(fp, faultyNet(2));
  RunConfig cfg;
  cfg.n_plus_1 = 4;
  cfg.fp = fp;
  cfg.fd = sim::net::makeRealizedEventuallyPerfect(h);
  cfg.seed = 2;
  ChaosConfig chaos;
  chaos.max_faulty = 2;
  chaos.crashes.push_back(
      {CrashInjection::Strategy::kAtTime, /*victim=*/1, /*at=*/50, 0, 1, 0});
  const RunReport rep = runChaosTask(
      cfg, chaos, WatchdogConfig{500'000, 0, 0}, sampler,
      test::distinctProposals(4));
  EXPECT_EQ(rep.verdict, RunVerdict::kAxiomViolation)
      << sim::runVerdictName(rep.verdict) << " " << rep.detail;
}

// ---- Negative controls: post-GST-style glitches are always caught ----

TEST(RealizedFd, IllegalGlitchesOnRealizedDetectorsAreAlwaysDetected) {
  const auto sampler = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < 120; ++i) (void)co_await e.queryFd();
    e.decide(0);
    co_return sim::Unit{};
  };
  struct Control {
    RealizedLens lens;
    GlitchKind kind;
    const char* why;
  };
  const Control controls[] = {
      {RealizedLens::kEventuallyPerfect, GlitchKind::kEmptyAnswer,
       "stable {} != faulty(F)"},
      {RealizedLens::kEventuallyPerfect, GlitchKind::kPostStabFlap,
       "post-stabilization constancy"},
      {RealizedLens::kOmega, GlitchKind::kEmptyAnswer, "size != 1"},
      {RealizedLens::kOmega, GlitchKind::kStabExcludeCorrect,
       "no correct member"},
      {RealizedLens::kUpsilon, GlitchKind::kUndersizedAnswer, "size < n+1-f"},
      {RealizedLens::kUpsilon, GlitchKind::kStabToCorrect,
       "stable == correct(F)"},
  };
  const auto fp = FailurePattern::withCrashes(4, {{3, 30}});
  for (const Control& c : controls) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto h = simulateHeartbeats(fp, faultyNet(seed));
      RunConfig cfg;
      cfg.n_plus_1 = 4;
      cfg.fp = fp;
      cfg.fd = std::make_shared<const RealizedFd>(h, c.lens, /*f=*/2);
      cfg.seed = seed;
      ChaosConfig chaos;
      chaos.glitch = {c.kind, 0, seed};
      ASSERT_FALSE(chaos.legal());
      const RunReport rep =
          runChaosTask(cfg, chaos, WatchdogConfig{500'000, 0, 0}, sampler,
                       test::distinctProposals(4));
      EXPECT_EQ(rep.verdict, RunVerdict::kAxiomViolation)
          << sim::glitchName(c.kind) << " on lens "
          << static_cast<int>(c.lens) << " (" << c.why
          << ") escaped detection at seed " << seed << ": "
          << sim::runVerdictName(rep.verdict) << " " << rep.detail;
    }
  }
}

// ---- Caches: one simulation serves three lenses; cells replay ----

TEST(FdCacheNet, ThreeLensesShareOneSimulation) {
  FdCache cache;
  const auto fp = FailurePattern::withCrashes(4, {{3, 40}});
  const NetConfig cfg = faultyNet(21);
  const auto ep = cache.netEventuallyPerfect(fp, cfg);
  const auto om = cache.netOmega(fp, cfg);
  const auto up = cache.netUpsilonF(fp, 3, cfg);
  const auto* ep_r = dynamic_cast<const RealizedFd*>(ep.get());
  const auto* om_r = dynamic_cast<const RealizedFd*>(om.get());
  const auto* up_r = dynamic_cast<const RealizedFd*>(up.get());
  ASSERT_NE(ep_r, nullptr);
  ASSERT_NE(om_r, nullptr);
  ASSERT_NE(up_r, nullptr);
  EXPECT_EQ(&ep_r->history(), &om_r->history());
  EXPECT_EQ(&om_r->history(), &up_r->history());
  // One execution cut three ways: one simulation, two hits.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  // A second lookup serves the same lens instance without simulating.
  const auto ep2 = cache.netEventuallyPerfect(fp, cfg);
  EXPECT_EQ(ep.get(), ep2.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  // Same (fp, cfg) => the identical history object.
  EXPECT_EQ(cache.netHistory(fp, cfg).get(), &ep_r->history());
  // Distinct keyDigests per lens over the same execution.
  EXPECT_NE(ep->keyDigest(), om->keyDigest());
  EXPECT_NE(om->keyDigest(), up->keyDigest());
  EXPECT_NE(ep->keyDigest(), fd::kOpaqueFdDigest);
}

TEST(FdCacheNet, RealizedCellsMemoizeAndReplayBitIdentically) {
  auto cache = std::make_shared<FdCache>();
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  const auto make = [&](std::size_t i) {
    BatchCell cell;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 40}});
    cell.cfg.fd = cache->netUpsilonF(*cell.cfg.fp, n_plus_1 - 1,
                                     faultyNet(100 + i));
    cell.cfg.seed = 100 + i;
    cell.algo = fig1Algo();
    cell.proposals = props;
    cell.memo_family = "net_test.fig1-realized";
    return cell;
  };
  std::vector<BatchCell> cells;
  for (std::size_t i = 0; i < 6; ++i) cells.push_back(make(i));
  ReportCache memo(64);
  BatchOptions opts;
  opts.jobs = 2;
  opts.memo = &memo;
  const BatchRunner runner(opts);
  BatchStats s1, s2;
  const auto r1 = runner.run(cells, &s1);
  const auto r2 = runner.run(cells, &s2);
  ASSERT_EQ(r1.size(), r2.size());
  EXPECT_EQ(s1.memo_hits, 0u);
  // Under a WFD_AUDIT latch every unset-audit cell is uncacheable; the
  // warm pass then re-runs (still bit-identically) instead of hitting.
  const std::size_t expect_hits =
      sim::resolvedAuditMode(std::nullopt).has_value() ? 0u : cells.size();
  EXPECT_EQ(s2.memo_hits, expect_hits);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i].ok()) << r1[i].detail;
    EXPECT_EQ(r1[i].trace_hash, r2[i].trace_hash);
    EXPECT_EQ(r1[i].decisions, r2[i].decisions);
  }
}

}  // namespace
}  // namespace wfd
