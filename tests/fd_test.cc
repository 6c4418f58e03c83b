// Failure detector history generators must produce histories inside
// D(F): every experiment's conclusion depends on it (fd/axioms.h).
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using fd::checkHistory;
using sim::FailurePattern;
using Family = fd::AxiomSpec::Family;

TEST(UpsilonFd, AxiomsHoldFailureFree) {
  for (int n_plus_1 : {2, 3, 5, 8}) {
    const auto fp = FailurePattern::failureFree(n_plus_1);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto u = fd::makeUpsilon(fp, /*stab_time=*/50, seed);
      const auto rep = checkHistory(*u, fp, {Family::kUpsilonF, n_plus_1 - 1},
                                    /*horizon=*/300);
      EXPECT_TRUE(rep.ok) << "n+1=" << n_plus_1 << " seed " << seed << ": "
                          << rep.violation;
    }
  }
}

TEST(UpsilonFd, AxiomsHoldWithCrashes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto fp = FailurePattern::random(5, 4, 100, seed);
    const auto u = fd::makeUpsilon(fp, 80, seed);
    const auto rep = checkHistory(*u, fp, {Family::kUpsilonF, 4}, 400);
    EXPECT_TRUE(rep.ok) << rep.violation;
  }
}

TEST(UpsilonFd, FRangeRespected) {
  for (int f = 1; f <= 4; ++f) {
    const auto fp = FailurePattern::failureFree(5);
    const auto u = fd::makeUpsilonF(fp, f, 60, 7);
    const auto rep = checkHistory(*u, fp, {Family::kUpsilonF, f}, 250);
    EXPECT_TRUE(rep.ok) << "f=" << f << ": " << rep.violation;
  }
}

TEST(UpsilonFd, RejectsIllegalStableSet) {
  const auto fp = FailurePattern::failureFree(3);
  // U = correct(F) = Pi violates axiom (2).
  EXPECT_DEATH(
      { auto u = fd::makeUpsilon(fp, ProcSet::full(3), 0, 1); (void)u; },
      "stable set");
}

TEST(UpsilonFd, NoiseHoldKeepsValuesForWindow) {
  const auto fp = FailurePattern::failureFree(4);
  fd::UpsilonFd::Params p;
  p.stable_set = fd::UpsilonFd::defaultStableSet(fp, 3);
  p.stab_time = 1000;
  p.noise_hold = 50;
  const auto u = fd::makeUpsilonWithParams(fp, 3, p);
  // Within one hold window the noise output is constant per process.
  for (Time base : {0L, 50L, 400L}) {
    const ProcSet v = u->query(1, base);
    for (Time t = base; t < base + 50; ++t) EXPECT_EQ(u->query(1, t), v);
  }
}

TEST(UpsilonFd, HistoryIsAFunction) {
  // Re-querying H(p, t) gives identical answers (required by the model).
  const auto fp = FailurePattern::failureFree(4);
  const auto u = fd::makeUpsilon(fp, 500, 3);
  for (Pid p = 0; p < 4; ++p) {
    for (Time t = 0; t < 200; t += 17) {
      EXPECT_EQ(u->query(p, t), u->query(p, t));
    }
  }
}

TEST(OmegaKFd, AxiomsHold) {
  for (int k = 1; k <= 4; ++k) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto fp = FailurePattern::random(5, 5 - k, 50, seed * 3);
      const auto om = fd::makeOmegaK(fp, k, 70, seed);
      const auto rep = checkHistory(*om, fp, {Family::kOmegaK, k}, 300);
      EXPECT_TRUE(rep.ok) << "k=" << k << " seed " << seed << ": "
                          << rep.violation;
    }
  }
}

TEST(OmegaKFd, OmegaIsOmega1) {
  const auto fp = FailurePattern::failureFree(3);
  const auto om = fd::makeOmega(fp, 40, 5);
  EXPECT_EQ(om->name(), "Omega");
  const auto rep = checkHistory(*om, fp, {Family::kOmegaK, 1}, 200);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(AntiOmegaFd, StableVariantIsALegalUpsilonHistory) {
  // Structural fact from Sect. 2/related work: a stable anti-Omega
  // history (eventually constant singleton != correct set) satisfies
  // Upsilon's axioms verbatim.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(4, 3, 60, seed * 11);
    const auto ao = fd::makeAntiOmega(fp, 90, seed);
    const auto rep = checkHistory(*ao, fp, {Family::kUpsilonF, 3}, 350);
    EXPECT_TRUE(rep.ok) << rep.violation;
  }
}

TEST(ScriptedFd, RealizesArbitraryHistories) {
  const ProcSet a{0, 1};
  const ProcSet b{2};
  const auto s = fd::makeScripted(
      "flip", [&](Pid, Time t) { return (t < 10) ? a : b; }, 10);
  EXPECT_EQ(s->query(0, 0), a);
  EXPECT_EQ(s->query(2, 9), a);
  EXPECT_EQ(s->query(1, 10), b);
  EXPECT_EQ(s->query(1, 1000), b);
}

TEST(DummyFd, IsStableAndConstant) {
  const auto fp = FailurePattern::failureFree(3);
  const auto d = fd::makeConstant(ProcSet{1});
  const auto rep = checkHistory(*d, fp, fd::AxiomSpec{}, 100);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(AllShippedDetectors, AreStable) {
  // Sect. 6.2: the minimality result covers stable detectors; everything
  // we ship must be in scope.
  const auto fp = FailurePattern::withCrashes(5, {{4, 30}});
  std::vector<fd::FdPtr> dets = {
      fd::makeUpsilon(fp, 60, 1), fd::makeUpsilonF(fp, 2, 60, 2),
      fd::makeOmega(fp, 60, 3),   fd::makeOmegaK(fp, 3, 60, 4),
      fd::makeAntiOmega(fp, 60, 5), fd::makeConstant(ProcSet{0})};
  for (const auto& d : dets) {
    const auto rep = checkHistory(*d, fp, fd::AxiomSpec{}, 400);
    EXPECT_TRUE(rep.ok) << d->name() << ": " << rep.violation;
  }
}

}  // namespace
}  // namespace wfd
