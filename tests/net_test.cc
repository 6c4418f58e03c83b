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
using Family = fd::AxiomSpec::Family;

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
//
// The substrate tests keep the `NetWorld` suite name: CI's net job and
// docs/NET.md select them by it.

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

// One digest over many executions: each one's horizon, every NetCounters
// field and every per-process switch list, or the SimAbort text when the
// run does not converge. The sweep is seeded configs at n+1 = 2..6 plus
// the corner cases of the fate and timer code (GST 0 with partitions
// armed, certain drops, min_delay > max_delay, delta 0, heartbeat knobs
// that clamp to 1, a crash at tick 0, a crash on a tick that delivers to
// the crashed process, a horizon too short to converge).
TEST(NetWorld, GoldenSweepDigest) {
  struct Case {
    FailurePattern fp;
    NetConfig cfg;
  };
  std::vector<Case> cases;
  const auto add = [&cases](FailurePattern fp, NetConfig cfg) {
    cases.push_back({std::move(fp), cfg});
  };
  const auto crash3 = FailurePattern::withCrashes(4, {{3, 40}});
  NetConfig c = faultyNet(1, 0);
  c.faults.partitions = 2;
  add(crash3, c);  // gst 0, partitions armed
  c = faultyNet(2);
  c.faults.drop_permille = 1000;
  add(crash3, c);
  c = faultyNet(3);
  c.faults.min_delay = 9;
  c.faults.max_delay = 3;
  add(crash3, c);
  c = faultyNet(4);
  c.env.delta = 0;
  add(crash3, c);
  c = faultyNet(5);
  c.hb = {1, 0, 0};
  add(crash3, c);
  add(FailurePattern::withCrashes(4, {{1, 0}}), faultyNet(6));
  // Post-GST with delta 1: heartbeats sent on even ticks arrive on odd
  // ones, so p2's crash at tick 3 discards deliveries made to it then.
  c = NetConfig{};
  c.env = {0, 1};
  c.seed = 7;
  add(FailurePattern::withCrashes(3, {{1, 3}}), c);  // cases[6]
  c = faultyNet(8);
  c.horizon = 3;
  add(FailurePattern::withCrashes(3, {{2, 1}}), c);  // throws
  for (int n_plus_1 = 2; n_plus_1 <= 6; ++n_plus_1) {
    add(FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 20}}),
        faultyNet(static_cast<std::uint64_t>(n_plus_1)));
  }
  Rng rng(20240917);
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const int n_plus_1 = static_cast<int>(rng.range(2, 6));
    const Time gsts[] = {0, 16, 64, 128};
    NetConfig r;
    r.env = {gsts[rng.below(4)], rng.range(1, 5)};
    r.faults = {rng.range(0, 4), rng.range(0, 20),
                static_cast<int>(rng.range(0, 400)),
                static_cast<int>(rng.range(0, 2)), rng.range(8, 64)};
    r.hb = {rng.range(1, 4), rng.range(1, 8), rng.range(0, 3)};
    r.seed = seed;
    if (rng.below(8) == 0) r.horizon = rng.range(20, 400);
    add(FailurePattern::random(n_plus_1, static_cast<int>(rng.below(
                                             static_cast<std::uint64_t>(
                                                 n_plus_1))),
                               80, seed),
        r);
  }

  std::uint64_t digest = 0;
  int aborted = 0;
  std::int64_t to_crashed_at_edge = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& k = cases[i];
    try {
      const auto h = simulateHeartbeats(k.fp, k.cfg);
      const sim::net::NetCounters& n = h->counters;
      for (const std::int64_t v :
           {h->horizon, n.sent, n.delivered, n.dropped, n.partition_dropped,
            n.to_crashed, n.timers_fired, n.output_switches,
            n.max_post_gst_lag}) {
        digest = mixDigest(digest, static_cast<std::uint64_t>(v));
      }
      digest = mixDigest(digest, n.trace_hash);
      for (const auto& sw : h->switches) {
        digest = mixDigest(digest, sw.size());
        for (const auto& s : sw) {
          digest = mixDigest(digest, static_cast<std::uint64_t>(s.at));
          digest = mixDigest(digest, s.out.bits());
        }
      }
      if (i == 6) to_crashed_at_edge = n.to_crashed;
    } catch (const sim::SimAbort& e) {
      ++aborted;
      digest = digestString(digest, e.what());
    }
  }
  EXPECT_GT(to_crashed_at_edge, 0);
  EXPECT_EQ(aborted, 14);
  EXPECT_EQ(digest, 0xe69bec89413a0dafULL) << std::hex << digest;
}

// ---- Offline certification: realized histories satisfy their axioms ----

TEST(RealizedFd, LensesSatisfyTheirAxiomFamiliesOffline) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::random(5, 2, 60, seed * 31);
    const auto h = simulateHeartbeats(fp, faultyNet(seed));
    const Time horizon = h->horizon + 64;

    const auto ep = sim::net::makeRealizedEventuallyPerfect(h);
    const auto ep_rep =
        fd::checkHistory(*ep, fp, {Family::kEventuallyPerfect, 0}, horizon);
    EXPECT_TRUE(ep_rep.ok) << "seed " << seed << ": " << ep_rep.violation;

    const auto om = sim::net::makeRealizedOmega(h);
    const auto om_rep =
        fd::checkHistory(*om, fp, {Family::kOmegaK, 1}, horizon);
    EXPECT_TRUE(om_rep.ok) << "seed " << seed << ": " << om_rep.violation;

    const int f = fp.nProcs() - 1;
    const auto up = sim::net::makeRealizedUpsilon(h, f);
    const auto up_rep =
        fd::checkHistory(*up, fp, {Family::kUpsilonF, f}, horizon);
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
