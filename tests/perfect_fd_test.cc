// P and <>P (Chandra–Toueg [4]): axioms, the classic <>P -> Omega
// reduction, extraction of Upsilon from <>P through Fig. 3, and the
// Sect. 6.3 sample checker validating every shipped phi map.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::ConstantSigma;
using core::DetectorFamily;
using core::isFResilientSample;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using Family = fd::AxiomSpec::Family;

// ---- Axioms ----

TEST(PerfectFd, TracksCrashesExactly) {
  const auto fp = FailurePattern::withCrashes(4, {{1, 10}, {3, 30}});
  const auto p = fd::makePerfect(fp);
  EXPECT_EQ(p->query(0, 0), ProcSet{});
  EXPECT_EQ(p->query(0, 10), ProcSet{1});
  EXPECT_EQ(p->query(2, 29), ProcSet{1});
  EXPECT_EQ(p->query(2, 30), (ProcSet{1, 3}));
  const auto accurate = fd::checkStrongAccuracy(*p, fp, 200);
  EXPECT_TRUE(accurate.ok) << accurate.violation;
  const auto rep =
      fd::checkHistory(*p, fp, {Family::kEventuallyPerfect, 0}, 200);
  EXPECT_TRUE(rep.ok) << rep.violation;
}

TEST(EventuallyPerfectFd, AxiomsHold) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto fp = FailurePattern::random(5, 4, 60, seed * 19);
    const auto dp = fd::makeEventuallyPerfect(fp, 100, seed);
    const auto rep =
        fd::checkHistory(*dp, fp, {Family::kEventuallyPerfect, 0}, 400);
    EXPECT_TRUE(rep.ok) << rep.violation;
    // <>P is stable, so it is in scope for Theorem 10.
    EXPECT_TRUE(fd::checkHistory(*dp, fp, fd::AxiomSpec{}, 400).ok);
  }
}

TEST(EventuallyPerfectFd, PerfectIsALegalEventuallyPerfectHistory) {
  const auto fp = FailurePattern::withCrashes(3, {{2, 25}});
  const auto p = fd::makePerfect(fp);
  EXPECT_TRUE(
      fd::checkHistory(*p, fp, {Family::kEventuallyPerfect, 0}, 200).ok);
}

// ---- <>P -> Omega ----

TEST(DiamondPToOmega, ElectsSmallestCorrectProcess) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, 3, 50, seed * 5);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeEventuallyPerfect(fp, 100, seed);
    cfg.seed = seed;
    cfg.max_steps = 30'000;
    const auto rr = sim::runTask(
        cfg, [](Env& e, Value) { return core::diamondPToOmega(e); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    const auto rep = core::checkEmulatedOmega(rr);
    ASSERT_TRUE(rep.ok()) << rep.violation;
    EXPECT_EQ(rep.stable_value, ProcSet::singleton(fp.correct().min()));
  }
}

// ---- <>P -> Upsilon via Fig. 3 ----

TEST(Extraction, FromEventuallyPerfect) {
  const int n_plus_1 = 4;
  const int f = n_plus_1 - 1;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, f, 40, seed * 3 + 1);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeEventuallyPerfect(fp, 90, seed);
    cfg.seed = seed;
    cfg.max_steps = 60'000;
    const auto phi = core::phiEventuallyPerfect(n_plus_1, f);
    const auto rr = sim::runTask(
        cfg, [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    const auto rep = core::checkEmulatedUpsilonF(rr, f);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << " correct "
                          << fp.correct().toString() << ": " << rep.violation;
  }
}

// ---- Sect. 6.3 sample checker: positive and negative controls ----

TEST(Samples, OmegaKControls) {
  const int n = 5, f = 4;
  // A 2-set intersecting the recurring set: a legitimate sample.
  EXPECT_TRUE(isFResilientSample(DetectorFamily::kOmegaK, n, f, 2,
                                 {ProcSet{0, 1}, ProcSet{1, 2, 3}}));
  // Disjoint from the recurring set: not a sample (phi's designation).
  EXPECT_FALSE(isFResilientSample(DetectorFamily::kOmegaK, n, f, 2,
                                  {ProcSet{0, 1}, ProcSet{2, 3, 4}}));
  // Wrong cardinality for Omega^2.
  EXPECT_FALSE(isFResilientSample(DetectorFamily::kOmegaK, n, f, 2,
                                  {ProcSet{0}, ProcSet{0, 1}}));
  // Too few recurring processes for the environment.
  EXPECT_FALSE(isFResilientSample(DetectorFamily::kOmegaK, n, 2, 2,
                                  {ProcSet{0, 1}, ProcSet{1}}));
}

TEST(Samples, EveryShippedPhiDesignatesANonSample) {
  const int n_plus_1 = 5;
  const auto all = ProcSet::full(n_plus_1);
  // phi[Omega^k] across k and all k-sized outputs d.
  for (int k = 1; k <= 4; ++k) {
    const int f = k;
    const auto phi = core::phiOmegaK(n_plus_1);
    for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      if (d.size() != k) continue;
      const auto r = phi->map(d);
      EXPECT_FALSE(isFResilientSample(
          DetectorFamily::kOmegaK, n_plus_1, f, static_cast<std::uint64_t>(k),
          {d, r.correct_sigma}))
          << "k=" << k << " d=" << d.toString();
      EXPECT_GE(r.correct_sigma.size(), n_plus_1 - f);
    }
  }
  // phi[Upsilon^f].
  for (int f = 1; f <= 4; ++f) {
    const auto phi = core::phiUpsilonSelf();
    for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      if (d.size() < n_plus_1 - f) continue;
      const auto r = phi->map(d);
      EXPECT_FALSE(isFResilientSample(DetectorFamily::kUpsilonF, n_plus_1, f,
                                      0, {d, r.correct_sigma}))
          << "f=" << f << " d=" << d.toString();
    }
  }
  // phi[anti-Omega] over singletons.
  for (Pid p = 0; p < n_plus_1; ++p) {
    const auto r = core::phiAntiOmega()->map(ProcSet::singleton(p));
    EXPECT_FALSE(isFResilientSample(DetectorFamily::kAntiOmegaStable,
                                    n_plus_1, n_plus_1 - 1, 0,
                                    {ProcSet::singleton(p), r.correct_sigma}));
  }
  // phi[<>P] over every suspicion set d (including empty).
  for (int f = 1; f <= 4; ++f) {
    const auto phi = core::phiEventuallyPerfect(n_plus_1, f);
    for (std::uint64_t bits = 0; bits < (1u << n_plus_1); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      if (d == all) continue;  // <>P never stabilizes on "all suspected"
                               // (some process is correct) — unreachable d
      const auto r = phi->map(d);
      EXPECT_FALSE(isFResilientSample(DetectorFamily::kEventuallyPerfect,
                                      n_plus_1, f, 0, {d, r.correct_sigma}))
          << "f=" << f << " d=" << d.toString();
      EXPECT_GE(r.correct_sigma.size(), n_plus_1 - f);
    }
  }
}

TEST(Samples, DummyHasNoPhi) {
  // For the dummy detector, the constant d = c makes EVERY sigma a
  // sample — precisely why no phi map (and no Fig. 3 extraction) can
  // exist for a trivial detector.
  const int n_plus_1 = 4;
  const ProcSet c{1, 2};
  for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
    const ProcSet r = ProcSet::fromBits(bits);
    EXPECT_TRUE(isFResilientSample(DetectorFamily::kDummy, n_plus_1,
                                   n_plus_1 - 1, c.bits(), {c, r}));
  }
}

}  // namespace
}  // namespace wfd
