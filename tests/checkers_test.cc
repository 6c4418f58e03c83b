// The checkers themselves: every property they certify must be one they
// actually detect the violation of. Synthetic traces are fed to each
// checker and must be flagged — a checker that passes everything would
// silently vacate every experiment in the repository.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkEmulatedOmega;
using core::checkEmulatedUpsilonF;
using core::checkKConverge;
using core::checkKSetAgreement;
using core::Pick;
using sim::Env;
using sim::EventKind;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;
using Family = fd::AxiomSpec::Family;

// Build a RunResult by hand: a world with the given pattern plus a
// scripted trace.
RunResult synthetic(int n_plus_1, FailurePattern fp,
                    const std::vector<sim::Event>& events, Time horizon) {
  RunResult rr;
  rr.world = std::make_unique<sim::World>(n_plus_1, std::move(fp), nullptr);
  for (const auto& e : events) {
    rr.world->trace().record(e.time, e.pid, e.kind, e.label, e.value);
    if (e.kind == EventKind::kDecide) rr.decisions[e.pid] = e.value.asInt();
  }
  while (rr.world->now() < horizon) rr.world->advanceClock();
  rr.all_correct_done = true;
  rr.steps = horizon;
  return rr;
}

sim::Event decide(Time t, Pid p, Value v) {
  return {t, p, EventKind::kDecide, "", RegVal(v)};
}
sim::Event publish(Time t, Pid p, ProcSet s) {
  return {t, p, EventKind::kPublish, "", RegVal(s)};
}

// ---- k-set agreement checker ----

TEST(AgreementChecker, FlagsMissingDecision) {
  auto rr = synthetic(3, FailurePattern::failureFree(3),
                      {decide(1, 0, 100), decide(2, 1, 100)}, 10);
  rr.all_correct_done = false;
  const auto rep = checkKSetAgreement(rr, 2, {100, 101, 102});
  EXPECT_FALSE(rep.termination);
  EXPECT_FALSE(rep.ok());
}

TEST(AgreementChecker, FlagsInventedValue) {
  const auto rr = synthetic(
      2, FailurePattern::failureFree(2),
      {decide(1, 0, 100), decide(2, 1, 999)}, 10);
  const auto rep = checkKSetAgreement(rr, 1, {100, 101});
  EXPECT_FALSE(rep.validity);
}

TEST(AgreementChecker, FlagsTooManyValues) {
  const auto rr = synthetic(
      3, FailurePattern::failureFree(3),
      {decide(1, 0, 100), decide(2, 1, 101), decide(3, 2, 102)}, 10);
  const auto rep = checkKSetAgreement(rr, 2, {100, 101, 102});
  EXPECT_FALSE(rep.agreement);
  EXPECT_EQ(rep.distinct, 3);
}

TEST(AgreementChecker, FlagsDoubleDecision) {
  const auto rr = synthetic(2, FailurePattern::failureFree(2),
                            {decide(1, 0, 100), decide(2, 0, 101),
                             decide(3, 1, 100)},
                            10);
  const auto rep = checkKSetAgreement(rr, 2, {100, 101});
  EXPECT_FALSE(rep.decide_once);
}

TEST(AgreementChecker, CrashedProcessesNeedNotDecide) {
  const auto rr = synthetic(3, FailurePattern::withCrashes(3, {{2, 5}}),
                            {decide(1, 0, 100), decide(2, 1, 100)}, 10);
  const auto rep = checkKSetAgreement(rr, 2, {100, 101, 102});
  EXPECT_TRUE(rep.ok()) << rep.violation;
}

// ---- k-converge checker ----

sim::Event note(Pid p, const char* label, Value v) {
  return {0, p, EventKind::kNote, label, RegVal(v)};
}

TEST(KConvergeChecker, FlagsNonProposedPick) {
  const auto rep = checkKConverge(
      {note(0, "adopt", 100), note(1, "adopt", 999)}, 2, {100, 101});
  EXPECT_FALSE(rep.validity);
  EXPECT_TRUE(rep.agreement);
  EXPECT_NE(rep.violation.find("C-Validity"), std::string::npos)
      << rep.violation;
}

TEST(KConvergeChecker, FlagsCommitWithKPlusOnePicks) {
  const auto rep = checkKConverge(
      {note(0, "commit", 100), note(1, "adopt", 101), note(2, "adopt", 102)},
      2, {100, 101, 102});
  EXPECT_TRUE(rep.validity);
  EXPECT_FALSE(rep.agreement);
  EXPECT_EQ(rep.distinct, 3);
  EXPECT_NE(rep.violation.find("C-Agreement"), std::string::npos)
      << rep.violation;
}

TEST(KConvergeChecker, AcceptsKPlusOneAdoptedPicks) {
  // Without a commit, C-Agreement bounds nothing.
  const auto rep = checkKConverge(
      {note(0, "adopt", 100), note(1, "adopt", 101), note(2, "adopt", 102)},
      2, {100, 101, 102});
  EXPECT_TRUE(rep.ok()) << rep.violation;
  EXPECT_EQ(rep.picks, 3);
  EXPECT_EQ(rep.commits, 0);
  EXPECT_EQ(rep.distinct, 3);
}

TEST(KConvergeChecker, FlagsAdoptWithAtMostKInputs) {
  const auto rep = checkKConverge(
      {note(0, "commit", 100), note(1, "adopt", 100)}, 1, {100, 100});
  EXPECT_TRUE(rep.validity && rep.agreement);
  EXPECT_FALSE(rep.convergence);
}

TEST(KConvergeChecker, PicksAreLastPickNotesPerProcess) {
  const std::vector<sim::Event> events = {
      note(2, "adopt", 101), note(0, "gladiator", 7),
      decide(1, 2, 101), note(2, "commit", 100)};
  EXPECT_EQ(core::picksOf(events, 3),
            (std::vector<Pick>{Pick{}, Pick{}, Pick{100, true}}));
  const auto rep = checkKConverge(events, 1, {100, 101, 102});
  EXPECT_EQ(rep.picks, 1);
  EXPECT_EQ(rep.commits, 1);
}

// ---- emulation checkers ----

TEST(EmulationChecker, FlagsDisagreeingFinals) {
  const auto rr =
      synthetic(2, FailurePattern::failureFree(2),
                {publish(1, 0, ProcSet{0}), publish(2, 1, ProcSet{1})}, 10);
  const auto rep = checkEmulatedUpsilonF(rr, 1);
  EXPECT_FALSE(rep.stabilized);
}

TEST(EmulationChecker, FlagsCorrectSetAsUpsilonOutput) {
  const auto fp = FailurePattern::withCrashes(3, {{2, 3}});
  const auto rr = synthetic(3, fp,
                            {publish(5, 0, ProcSet{0, 1}),
                             publish(6, 1, ProcSet{0, 1})},
                            10);
  const auto rep = checkEmulatedUpsilonF(rr, 2);
  EXPECT_TRUE(rep.stabilized);
  EXPECT_FALSE(rep.legal);  // {p1,p2} IS the correct set
}

TEST(EmulationChecker, FlagsTooSmallUpsilonFOutput) {
  const auto rr = synthetic(4, FailurePattern::failureFree(4),
                            {publish(1, 0, ProcSet{0}), publish(1, 1, ProcSet{0}),
                             publish(1, 2, ProcSet{0}), publish(1, 3, ProcSet{0})},
                            10);
  // f = 1 requires outputs of size >= n+1-f = 3.
  const auto rep = checkEmulatedUpsilonF(rr, 1);
  EXPECT_FALSE(rep.legal);
}

TEST(EmulationChecker, FlagsFaultyLeader) {
  const auto fp = FailurePattern::withCrashes(2, {{1, 3}});
  const auto rr = synthetic(2, fp, {publish(5, 0, ProcSet{1})}, 10);
  const auto rep = checkEmulatedOmega(rr);
  EXPECT_TRUE(rep.stabilized);
  EXPECT_FALSE(rep.legal);
}

TEST(EmulationChecker, FlagsNonSingletonOmega) {
  const auto rr = synthetic(2, FailurePattern::failureFree(2),
                            {publish(1, 0, ProcSet{0, 1}),
                             publish(1, 1, ProcSet{0, 1})},
                            10);
  const auto rep = checkEmulatedOmega(rr);
  EXPECT_FALSE(rep.legal);
}

TEST(EmulationChecker, AcceptsLegalOmega) {
  const auto fp = FailurePattern::withCrashes(2, {{1, 3}});
  const auto rr = synthetic(
      2, fp, {publish(2, 0, ProcSet{1}), publish(7, 0, ProcSet{0})}, 20);
  const auto rep = checkEmulatedOmega(rr);
  EXPECT_TRUE(rep.ok()) << rep.violation;
  EXPECT_EQ(rep.last_change, 7);
}

// ---- FD axiom checkers (negative controls) ----

TEST(AxiomChecker, FlagsNonStabilizingHistory) {
  const auto fp = FailurePattern::failureFree(2);
  const auto flip = fd::makeScripted(
      "flip", [](Pid, Time t) { return ProcSet{static_cast<Pid>(t % 2)}; },
      /*claimed stab=*/0);
  EXPECT_FALSE(fd::checkHistory(*flip, fp, fd::AxiomSpec{}, 50).ok);
  EXPECT_FALSE(fd::checkHistory(*flip, fp, {Family::kUpsilonF, 1}, 50).ok);
}

TEST(AxiomChecker, FlagsCorrectSetStableValue) {
  const auto fp = FailurePattern::failureFree(3);
  const auto bad = fd::makeScripted(
      "U=Pi", [](Pid, Time) { return ProcSet::full(3); }, 0);
  EXPECT_FALSE(fd::checkHistory(*bad, fp, {Family::kUpsilonF, 2}, 50).ok);
  // The same history IS legal when someone is faulty.
  const auto fp2 = FailurePattern::withCrashes(3, {{0, 5}});
  EXPECT_TRUE(fd::checkHistory(*bad, fp2, {Family::kUpsilonF, 2}, 50).ok);
}

TEST(AxiomChecker, FlagsAllFaultyOmegaSet) {
  const auto fp = FailurePattern::withCrashes(3, {{0, 2}});
  const auto bad = fd::makeScripted(
      "L={p1}", [](Pid, Time) { return ProcSet{0}; }, 0);
  EXPECT_FALSE(fd::checkHistory(*bad, fp, {Family::kOmegaK, 1}, 50).ok);
}

TEST(AxiomChecker, FlagsPrematureSuspicion) {
  const auto fp = FailurePattern::withCrashes(3, {{2, 40}});
  const auto eager = fd::makeScripted(
      "eager", [](Pid, Time) { return ProcSet{2}; }, 40);
  // As <>P: fine (suspicion before crash is allowed noise).
  EXPECT_TRUE(
      fd::checkHistory(*eager, fp, {Family::kEventuallyPerfect, 0}, 100).ok);
  // As P: strong accuracy violated (p3 suspected while alive).
  EXPECT_FALSE(fd::checkStrongAccuracy(*eager, fp, 100).ok);
}

}  // namespace
}  // namespace wfd
