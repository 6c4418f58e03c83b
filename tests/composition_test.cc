// Composition: detectors derived from other detectors and from recorded
// runs, and the full "timing assumptions -> Omega -> Upsilon -> set
// agreement" chain the paper's introduction motivates.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkEmulatedOmega;
using core::checkKSetAgreement;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;
using Family = fd::AxiomSpec::Family;

// ---- MappedFd: Omega_n through the complement lens IS an Upsilon ----

TEST(MappedFd, ComplementOfOmegaNIsALegalUpsilonHistory) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(4, 3, 50, seed);
    const auto lens = fd::makeComplemented(fd::makeOmegaK(fp, 3, 80, seed), 4);
    const auto rep = fd::checkHistory(*lens, fp, {Family::kUpsilonF, 3}, 300);
    EXPECT_TRUE(rep.ok) << rep.violation;
  }
}

TEST(MappedFd, Fig1RunsOnComplementedOmegaN) {
  // Set agreement driven by Omega_n seen through the Sect. 4 reduction —
  // the two halves of the paper meeting in one run.
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, 3, 200, seed * 3);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeComplemented(fd::makeOmegaK(fp, 3, 250, seed), n_plus_1);
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg, [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
        props);
    const auto rep = checkKSetAgreement(rr, n_plus_1 - 1, props);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.violation;
  }
}

// ---- RecordedFd: a reduction's output replayed as a detector ----

TEST(RecordedFd, ReplaysExtractionOutputAsUpsilon) {
  const int n_plus_1 = 4;
  const auto fp = FailurePattern::failureFree(n_plus_1);
  // Stage 1: Fig. 3 extracts Upsilon from Omega.
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.fd = fd::makeOmega(fp, 150, 3);
  cfg.seed = 5;
  cfg.max_steps = 40'000;
  const auto phi = core::phiOmegaK(n_plus_1);
  const auto stage1 = sim::runTask(
      cfg, [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); },
      std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  ASSERT_TRUE(core::checkEmulatedUpsilonF(stage1, n_plus_1 - 1).ok());

  // Stage 2: the recorded emulation is itself a legal Upsilon history...
  const auto recorded = fd::makeRecorded(stage1.trace(), n_plus_1,
                                         ProcSet::full(n_plus_1), "recorded");
  EXPECT_TRUE(fd::checkHistory(*recorded, fp, {Family::kUpsilonF, n_plus_1 - 1},
                               recorded->stabilizationTime() + 200)
                  .ok);

  // ...and drives Fig. 1 to a correct decision.
  const auto props = test::distinctProposals(n_plus_1);
  RunConfig cfg2;
  cfg2.n_plus_1 = n_plus_1;
  cfg2.fp = fp;
  cfg2.fd = recorded;
  cfg2.seed = 6;
  const auto stage2 = sim::runTask(
      cfg2, [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
      props);
  EXPECT_TRUE(checkKSetAgreement(stage2, n_plus_1 - 1, props).ok());
}

// ---- Omega implemented from eventual synchrony (no oracle at all) ----

RunResult runOmegaImpl(int n_plus_1, const FailurePattern& fp, Time gst,
                       std::uint64_t seed, Time horizon) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.seed = seed;
  sim::Run run(cfg,
               [](Env& e, Value) { return core::omegaFromEventualSynchrony(e); },
               std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  sim::EventuallySynchronousPolicy policy(gst);
  const Time taken = run.scheduler().run(policy, horizon);
  return run.finish(taken);
}

TEST(OmegaImpl, StabilizesOnCorrectLeaderAfterGst) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, 3, 2000, seed * 7);
    const auto rr = runOmegaImpl(n_plus_1, fp, /*gst=*/3000, seed, 120'000);
    const auto rep = checkEmulatedOmega(rr);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << " correct "
                          << fp.correct().toString() << ": " << rep.violation;
    // The elected leader is in fact the smallest correct id.
    EXPECT_EQ(rep.stable_value, ProcSet::singleton(fp.correct().min()));
  }
}

TEST(OmegaImpl, SurvivesLateCrashOfTheLeader) {
  const int n_plus_1 = 4;
  // p1 leads, then crashes long after GST; the rest must re-elect.
  const auto fp = FailurePattern::withCrashes(n_plus_1, {{0, 40'000}});
  const auto rr = runOmegaImpl(n_plus_1, fp, /*gst=*/1000, 3, 200'000);
  const auto rep = checkEmulatedOmega(rr);
  ASSERT_TRUE(rep.ok()) << rep.violation;
  EXPECT_EQ(rep.stable_value, ProcSet::singleton(1));
}

TEST(OmegaImpl, FullChainTimingToSetAgreement) {
  // eventual synchrony -> (algorithm) Omega -> complement -> Upsilon
  // -> Fig. 1 set agreement. No oracle anywhere.
  const int n_plus_1 = 4;
  const auto fp = FailurePattern::withCrashes(n_plus_1, {{2, 500}});
  const auto stage1 = runOmegaImpl(n_plus_1, fp, 2000, 9, 100'000);
  ASSERT_TRUE(checkEmulatedOmega(stage1).ok());

  const auto omega = fd::makeRecorded(stage1.trace(), n_plus_1,
                                      ProcSet::singleton(0), "omega-impl");
  // Omega = Omega^1; its complement is a legal Upsilon^3 = Upsilon output
  // of size n.
  const auto upsilon = fd::makeComplemented(omega, n_plus_1);
  const auto props = test::distinctProposals(n_plus_1);
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.fd = upsilon;
  cfg.seed = 10;
  const auto stage2 = sim::runTask(
      cfg, [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
      props);
  EXPECT_TRUE(checkKSetAgreement(stage2, n_plus_1 - 1, props).ok());
}

}  // namespace
}  // namespace wfd
