// Fault injection (sim/chaos.h) + run watchdog (sim/watchdog.h): every
// RunVerdict is reachable and correct, legal injectors never break safety,
// every illegal FD glitch is caught by the online axiom checker, and chaos
// runs replay bit-identically per seed.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkKSetAgreement;
using core::extractUpsilonF;
using core::upsilonSetAgreement;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::FdGlitch;
using sim::GlitchKind;
using sim::OpDelay;
using sim::RunConfig;
using sim::RunReport;
using sim::RunVerdict;
using sim::StarvationWindow;
using sim::WatchdogConfig;

// A Fig. 1 configuration chaos can legally perturb: the Upsilon stable
// set is pinned to Pi and one crash is pre-seeded, so Pi != correct(F')
// survives any further injected crash (docs/CHAOS.md legality contract).
RunConfig fig1Config(int n_plus_1, std::uint64_t seed, Time stab = 300) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 50}});
  cfg.fd = fd::makeUpsilon(*cfg.fp, ProcSet::full(n_plus_1), stab, seed);
  cfg.seed = seed;
  return cfg;
}

sim::AlgoFn fig1Algo() {
  return [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
}

// ---- kOk: legal injector compositions keep Theorem 2 intact ----

TEST(Chaos, LegalInjectorsYieldOkAndSafeDecisions) {
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 2;  // one pre-seeded + at most one injected
    chaos.crashes.push_back({CrashInjection::Strategy::kRandom,
                             /*victim=*/-1, /*at=*/0, /*horizon=*/800,
                             /*count=*/2, /*seed=*/seed * 7});
    chaos.starvation.push_back({ProcSet{0}, 100, 400});
    chaos.op_delay = OpDelay{64, 24, seed};
    chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed};
    ASSERT_TRUE(chaos.legal());
    const RunReport rep = runChaosTask(fig1Config(n_plus_1, seed), chaos,
                                       WatchdogConfig{3'000'000, 0, n_plus_1 - 1},
                                       fig1Algo(), props);
    ASSERT_EQ(rep.verdict, RunVerdict::kOk)
        << sim::runVerdictName(rep.verdict) << ": " << rep.detail;
    const auto check = checkKSetAgreement(rep.result, n_plus_1 - 1, props);
    EXPECT_TRUE(check.ok()) << "seed " << seed << ": " << check.violation;
  }
}

TEST(Chaos, DelayedStabilizationIsLegal) {
  const int n_plus_1 = 3;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.glitch = {GlitchKind::kDelayStabilization, /*delay=*/400, seed};
    const RunReport rep = runChaosTask(fig1Config(n_plus_1, seed, 100), chaos,
                                       WatchdogConfig{3'000'000, 0, n_plus_1 - 1},
                                       fig1Algo(), props);
    ASSERT_EQ(rep.verdict, RunVerdict::kOk) << rep.detail;
    EXPECT_TRUE(checkKSetAgreement(rep.result, n_plus_1 - 1, props).ok());
  }
}

// Crash-at-critical-step strategies are legal too: killing the adopt-min
// leader of the current FD output, and killing a process the step its
// decision lands, must not break k-set agreement.
TEST(Chaos, CriticalStepCrashesKeepSafety) {
  const int n_plus_1 = 5;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 3;
    chaos.crashes.push_back(
        {CrashInjection::Strategy::kFdLeader, -1, /*at=*/350, 0, 1, 0});
    chaos.crashes.push_back(
        {CrashInjection::Strategy::kOnDecide, -1, 0, 0, /*count=*/1, 0});
    const RunReport rep = runChaosTask(fig1Config(n_plus_1, seed), chaos,
                                       WatchdogConfig{4'000'000, 0, n_plus_1 - 1},
                                       fig1Algo(), props);
    ASSERT_EQ(rep.verdict, RunVerdict::kOk) << rep.detail;
    EXPECT_TRUE(checkKSetAgreement(rep.result, n_plus_1 - 1, props).ok());
  }
}

// ---- kSafetyViolation: a deliberately broken task, caught online ----

TEST(Chaos, BrokenAlgorithmIsFlaggedAsSafetyViolation) {
  const int n_plus_1 = 4;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 3;
  // Everyone "decides" its own proposal: n+1 distinct values, no FD, no
  // agreement whatsoever.
  const auto algo = [](Env& e, Value v) -> sim::Coro<sim::Unit> {
    e.propose(v);
    (void)co_await e.yield();
    e.decide(v);
    co_return sim::Unit{};
  };
  const RunReport rep =
      runChaosTask(cfg, ChaosConfig{}, WatchdogConfig{100'000, 0, n_plus_1 - 1},
                   algo, test::distinctProposals(n_plus_1));
  ASSERT_EQ(rep.verdict, RunVerdict::kSafetyViolation) << rep.detail;
  EXPECT_NE(rep.detail.find("distinct"), std::string::npos) << rep.detail;
  EXPECT_LT(rep.steps, 100'000);  // caught at the offending step, not at end
}

TEST(Chaos, DoubleDecideIsFlaggedAsSafetyViolation) {
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 5;
  const auto algo = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    e.decide(7);
    (void)co_await e.yield();
    e.decide(7);  // same value, second decision: still a violation
    co_return sim::Unit{};
  };
  const RunReport rep =
      runChaosTask(cfg, ChaosConfig{}, WatchdogConfig{100'000, 0, 2}, algo,
                   test::distinctProposals(n_plus_1));
  ASSERT_EQ(rep.verdict, RunVerdict::kSafetyViolation) << rep.detail;
  // The watchdog alone keeps the plain runner's schedule, so the plain
  // trace names the first process whose second decision lands; the
  // detail uses the paper's 1-based name for it.
  const auto plain =
      sim::runTask(cfg, algo, test::distinctProposals(n_plus_1));
  std::set<Pid> decided;
  Pid twice = -1;
  for (const auto& e : plain.trace().ofKind(sim::EventKind::kDecide)) {
    if (!decided.insert(e.pid).second) {
      twice = e.pid;
      break;
    }
  }
  ASSERT_GE(twice, 0);
  EXPECT_NE(rep.detail.find("process p" + std::to_string(twice + 1) +
                            " decided twice"),
            std::string::npos)
      << rep.detail;
}

// ---- kAxiomViolation: every illegal glitch is a detected negative
// control, online where possible ----

TEST(Chaos, EmptyAnswerIsDetectedOnline) {
  const int n_plus_1 = 4;
  ChaosConfig chaos;
  chaos.glitch = {GlitchKind::kEmptyAnswer, 0, 0};
  ASSERT_FALSE(chaos.legal());
  const RunReport rep = runChaosTask(fig1Config(n_plus_1, 2), chaos,
                                     WatchdogConfig{500'000, 0, n_plus_1 - 1},
                                     fig1Algo(), test::distinctProposals(n_plus_1));
  ASSERT_EQ(rep.verdict, RunVerdict::kAxiomViolation) << rep.detail;
  EXPECT_NE(rep.detail.find("fd-illegal-output"), std::string::npos);
  // Online: the very first FD query is already illegal; the run must be
  // cut down long before any budget machinery.
  EXPECT_LT(rep.steps, 5'000);
}

// Detection must not depend on whether a particular algorithm happens to
// look at its detector (Fig. 1 can commit in round 1 without a single FD
// query): negative controls drive a sampler automaton that definitely
// queries the history at many times at every process.
sim::AlgoFn fdSampler(int queries = 60) {
  return [queries](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < queries; ++i) (void)co_await e.queryFd();
    co_return sim::Unit{};
  };
}

TEST(Chaos, EveryIllegalGlitchIsDetected) {
  const auto props4 = test::distinctProposals(4);
  struct Control {
    GlitchKind kind;
    const char* why;
  };
  // Upsilon-judged controls; stab = 0 puts every query after the claimed
  // stabilization point.
  for (const Control c : {Control{GlitchKind::kEmptyAnswer, "range"},
                          Control{GlitchKind::kUndersizedAnswer, "range"},
                          Control{GlitchKind::kPostStabFlap, "constancy"},
                          Control{GlitchKind::kStabToCorrect, "end-check"}}) {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.fp = FailurePattern::failureFree(4);
    // f = 2: answers must have >= 2 members, and the default stable set
    // (Pi minus p4) rotates to a different set under the flap control.
    cfg.fd = fd::makeUpsilonF(*cfg.fp, 2, /*stab_time=*/0, /*noise_seed=*/9);
    cfg.seed = 11;
    ChaosConfig chaos;
    chaos.glitch = {c.kind, 0, 1};
    ASSERT_FALSE(chaos.legal());
    const RunReport rep =
        runChaosTask(cfg, chaos, WatchdogConfig{400'000, 0, 0}, fdSampler(),
                     props4);
    EXPECT_EQ(rep.verdict, RunVerdict::kAxiomViolation)
        << sim::glitchName(c.kind) << " (" << c.why
        << ") escaped detection: " << sim::runVerdictName(rep.verdict) << " "
        << rep.detail;
  }
  // Omega^k-judged control: a stable leader set with no correct member.
  {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.fp = FailurePattern::withCrashes(4, {{2, 10}, {3, 10}});
    cfg.fd = fd::makeOmegaK(*cfg.fp, 2, /*stab_time=*/0, /*noise_seed=*/3);
    cfg.seed = 13;
    ChaosConfig chaos;
    chaos.glitch = {GlitchKind::kStabExcludeCorrect, 0, 1};
    const RunReport rep = runChaosTask(
        cfg, chaos, WatchdogConfig{400'000, 0, 0}, fdSampler(), props4);
    EXPECT_EQ(rep.verdict, RunVerdict::kAxiomViolation)
        << sim::runVerdictName(rep.verdict) << " " << rep.detail;
    EXPECT_NE(rep.detail.find("no correct process"), std::string::npos)
        << rep.detail;
  }
}

// A stable anti-Omega history is an Upsilon history, and anti-Omega claims
// exactly that (fd/anti_omega.h), so the online checker judges it: an
// illegal glitch over it is caught, and the unperturbed history audits
// clean before and after stabilization.
RunConfig antiOmegaConfig() {
  RunConfig cfg;
  cfg.n_plus_1 = 4;
  cfg.fp = FailurePattern::withCrashes(4, {{3, 50}});
  cfg.fd = fd::makeAntiOmega(*cfg.fp, /*stab_time=*/100, /*noise_seed=*/5);
  cfg.seed = 17;
  return cfg;
}

TEST(Chaos, IllegalGlitchOverAntiOmegaIsDetected) {
  ChaosConfig chaos;
  chaos.glitch = {GlitchKind::kEmptyAnswer, 0, 1};
  const RunReport rep =
      runChaosTask(antiOmegaConfig(), chaos, WatchdogConfig{400'000, 0, 0},
                   fdSampler(), test::distinctProposals(4));
  ASSERT_EQ(rep.verdict, RunVerdict::kAxiomViolation) << rep.detail;
  EXPECT_NE(rep.detail.find("fd-illegal-output"), std::string::npos);
}

TEST(Chaos, AuditedAntiOmegaRunIsClean) {
  RunConfig cfg = antiOmegaConfig();
  cfg.audit = sim::AuditMode::kCollect;
  const auto rr = sim::runTask(cfg, fdSampler(), test::distinctProposals(4));
  ASSERT_NE(rr.audit(), nullptr);
  EXPECT_TRUE(rr.audit()->clean()) << rr.audit()->report();
  EXPECT_TRUE(rr.all_correct_done);
}

// The same illegal histories run against the real Fig. 1 workload either
// get caught or — if the algorithm never sampled the history — terminate
// safely; they never abort and never silently violate agreement.
TEST(Chaos, IllegalGlitchOnFig1NeverEscapesUnsafely) {
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  for (const GlitchKind kind :
       {GlitchKind::kEmptyAnswer, GlitchKind::kUndersizedAnswer,
        GlitchKind::kPostStabFlap, GlitchKind::kStabToCorrect}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ChaosConfig chaos;
      chaos.glitch = {kind, 0, seed};
      const RunReport rep = runChaosTask(
          fig1Config(n_plus_1, seed, /*stab=*/0), chaos,
          WatchdogConfig{400'000, 0, n_plus_1 - 1}, fig1Algo(), props);
      if (rep.verdict == RunVerdict::kOk) {
        EXPECT_TRUE(checkKSetAgreement(rep.result, n_plus_1 - 1, props).ok());
      } else {
        EXPECT_EQ(rep.verdict, RunVerdict::kAxiomViolation)
            << sim::glitchName(kind) << " seed " << seed << ": " << rep.detail;
      }
    }
  }
}

// ---- kBudgetExhausted: the Fig. 3 extraction runs forever by design ----

TEST(Chaos, ExtractionRunExhaustsItsBudget) {
  const int n_plus_1 = 4;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{3, 40}});
  cfg.fd = fd::makeOmega(*cfg.fp, 100, 2);
  cfg.seed = 17;
  const auto phi = core::phiOmegaK(n_plus_1);
  const RunReport rep = runChaosTask(
      cfg, ChaosConfig{}, WatchdogConfig{/*step_budget=*/20'000, 0, 0},
      [phi](Env& e, Value) { return extractUpsilonF(e, phi); },
      std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  ASSERT_EQ(rep.verdict, RunVerdict::kBudgetExhausted) << rep.detail;
  EXPECT_EQ(rep.steps, 20'000);
  EXPECT_FALSE(rep.result.all_correct_done);
  ASSERT_NE(rep.result.world, nullptr);  // full post-mortem state retained
}

// ---- kLivelock: steps forever, no new externally visible event ----

TEST(Chaos, SpinningAutomatonIsFlaggedAsLivelock) {
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 23;
  const auto algo = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    const ObjId r = e.reg(sim::ObjKey{"spin"});
    for (;;) (void)co_await e.read(r);  // busy-waits on a register forever
  };
  const RunReport rep = runChaosTask(
      cfg, ChaosConfig{}, WatchdogConfig{1'000'000, /*livelock_window=*/500, 0},
      algo, test::distinctProposals(n_plus_1));
  ASSERT_EQ(rep.verdict, RunVerdict::kLivelock) << rep.detail;
  EXPECT_LE(rep.steps, 1'000);  // detected by the window, not the budget
}

// ---- Determinism and budget enforcement ----

TEST(Chaos, ChaosRunsReplayBitIdentically) {
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  ChaosConfig chaos;
  chaos.seed = 99;
  chaos.max_faulty = 2;
  chaos.crashes.push_back(
      {CrashInjection::Strategy::kRandom, -1, 0, 600, 2, 5});
  chaos.op_delay = OpDelay{32, 8, 7};
  chaos.glitch = {GlitchKind::kScrambleNoise, 0, 41};
  const WatchdogConfig wd{3'000'000, 0, n_plus_1 - 1};
  const RunReport a =
      runChaosTask(fig1Config(n_plus_1, 6), chaos, wd, fig1Algo(), props);
  const RunReport b =
      runChaosTask(fig1Config(n_plus_1, 6), chaos, wd, fig1Algo(), props);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.result.decisions, b.result.decisions);
  EXPECT_EQ(a.result.trace().hash64(), b.result.trace().hash64());
}

TEST(Chaos, CrashBudgetAndProtectionsAreRespected) {
  const int n_plus_1 = 5;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 2;
    chaos.protected_pids = ProcSet{0};
    // Far more requested crashes than the budget admits.
    chaos.crashes.push_back(
        {CrashInjection::Strategy::kRandom, -1, 0, 500, 10, seed});
    const RunReport rep = runChaosTask(fig1Config(n_plus_1, seed), chaos,
                                       WatchdogConfig{4'000'000, 0, n_plus_1 - 1},
                                       fig1Algo(), props);
    ASSERT_EQ(rep.verdict, RunVerdict::kOk) << rep.detail;
    const auto& fp = rep.result.world->pattern();
    EXPECT_LE(fp.faulty().size(), 2) << "seed " << seed;
    EXPECT_TRUE(fp.isCorrect(0));
    EXPECT_FALSE(fp.correct().empty());
  }
}

// A watchdog-driven run without chaos replays Scheduler::run exactly.
TEST(Chaos, WatchdogAloneMatchesPlainRunner) {
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  RunConfig cfg = fig1Config(n_plus_1, 8);
  const auto plain = sim::runTask(cfg, fig1Algo(), props);
  const RunReport watched = runChaosTask(
      cfg, ChaosConfig{}, WatchdogConfig{cfg.max_steps, 0, 0}, fig1Algo(),
      props);
  EXPECT_EQ(watched.verdict, RunVerdict::kOk);
  EXPECT_EQ(watched.steps, plain.steps);
  EXPECT_EQ(watched.result.decisions, plain.decisions);
  EXPECT_EQ(watched.result.trace().hash64(), plain.trace().hash64());
}

// driveToVerdict picks up a run where Scheduler::run left it: its budget
// counts only its own steps, and the schedule continues the straight run's.
TEST(Chaos, DriveToVerdictResumesASteppedRun) {
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  const RunConfig cfg = fig1Config(n_plus_1, 8);
  const WatchdogConfig full{cfg.max_steps, 0, 0};
  sim::Run straight(cfg, fig1Algo(), props);
  const auto straight_policy = sim::makePolicy(cfg.policy);
  const RunReport whole =
      sim::driveWatched(straight, *straight_policy, full, nullptr);
  ASSERT_EQ(whole.verdict, RunVerdict::kOk) << whole.detail;
  const Time k = whole.steps / 3;
  ASSERT_GT(k, 0);

  const auto resumed = [&](Time budget) {
    auto run = std::make_unique<sim::Run>(cfg, fig1Algo(), props);
    const auto policy = sim::makePolicy(cfg.policy);
    EXPECT_EQ(run->scheduler().run(*policy, k), k);
    RunReport rep = sim::driveToVerdict(*run, *policy,
                                        WatchdogConfig{budget, 0, 0}, nullptr);
    return std::make_pair(std::move(run), std::move(rep));
  };

  const Time short_budget = (whole.steps - k) / 2;
  const auto [cut, cut_rep] = resumed(short_budget);
  EXPECT_EQ(cut_rep.verdict, RunVerdict::kBudgetExhausted);
  EXPECT_EQ(cut_rep.steps, short_budget);
  EXPECT_EQ(cut->world().now(), k + short_budget);

  const auto [done, done_rep] = resumed(whole.steps - k);
  EXPECT_EQ(done_rep.verdict, RunVerdict::kOk) << done_rep.detail;
  EXPECT_EQ(done_rep.steps, whole.steps - k);
  EXPECT_EQ(done->finish(k + done_rep.steps).trace().hash64(),
            whole.result.trace().hash64());
}

}  // namespace
}  // namespace wfd
