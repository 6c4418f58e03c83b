// P and <>P (Chandra–Toueg [4]): axioms, the classic <>P -> Omega
// reduction, extraction of Upsilon from <>P through Fig. 3, and the
// Sect. 6.3 sample checker validating every shipped phi map.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

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
    const auto phi = core::derivePhi(
        core::axiomLegal(cfg.fd->axioms(), n_plus_1), n_plus_1, f, 0);
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
  const auto omega2 = core::axiomLegal({Family::kOmegaK, 2}, n);
  // A 2-set intersecting the recurring set: a legitimate sample.
  EXPECT_TRUE(
      isFResilientSample(omega2, n, f, {ProcSet{0, 1}, ProcSet{1, 2, 3}}));
  // Disjoint from the recurring set: not a sample (phi's designation).
  EXPECT_FALSE(
      isFResilientSample(omega2, n, f, {ProcSet{0, 1}, ProcSet{2, 3, 4}}));
  // Wrong cardinality for Omega^2.
  EXPECT_FALSE(isFResilientSample(omega2, n, f, {ProcSet{0}, ProcSet{0, 1}}));
  // Too few recurring processes for the environment.
  EXPECT_FALSE(isFResilientSample(omega2, n, 2, {ProcSet{0, 1}, ProcSet{1}}));
}

TEST(Samples, EveryShippedPhiDesignatesANonSample) {
  const int n_plus_1 = 5;
  const auto all = ProcSet::full(n_plus_1);
  const auto derived = [n_plus_1](const fd::AxiomSpec& spec, int f) {
    return core::derivePhi(core::axiomLegal(spec, n_plus_1), n_plus_1, f, 0);
  };
  // phi[Omega^k] across k and all k-sized outputs d.
  for (int k = 1; k <= 4; ++k) {
    const int f = k;
    const fd::AxiomSpec spec{Family::kOmegaK, k};
    const auto legal = core::axiomLegal(spec, n_plus_1);
    for (const auto& phi : {core::phiOmegaK(n_plus_1), derived(spec, f)}) {
      for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
        const ProcSet d = ProcSet::fromBits(bits);
        if (d.size() != k) continue;
        const auto* r = phi->find(d);
        ASSERT_NE(r, nullptr) << "k=" << k << " d=" << d.toString();
        EXPECT_FALSE(
            isFResilientSample(legal, n_plus_1, f, {d, r->correct_sigma}))
            << "k=" << k << " d=" << d.toString();
        EXPECT_GE(r->correct_sigma.size(), n_plus_1 - f);
      }
    }
  }
  // phi[Upsilon^f].
  for (int f = 1; f <= 4; ++f) {
    const fd::AxiomSpec spec{Family::kUpsilonF, f};
    const auto phi = derived(spec, f);
    for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      if (d.size() < n_plus_1 - f) continue;
      const auto* r = phi->find(d);
      ASSERT_NE(r, nullptr);
      EXPECT_FALSE(isFResilientSample(core::axiomLegal(spec, n_plus_1),
                                      n_plus_1, f, {d, r->correct_sigma}))
          << "f=" << f << " d=" << d.toString();
    }
  }
  // phi[anti-Omega] over singletons.
  const auto anti =
      fd::makeAntiOmega(FailurePattern::failureFree(n_plus_1), 10, 1);
  const auto anti_phi = derived(anti->axioms(), n_plus_1 - 1);
  for (Pid p = 0; p < n_plus_1; ++p) {
    const auto* r = anti_phi->find(ProcSet::singleton(p));
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(isFResilientSample(core::axiomLegal(anti->axioms(), n_plus_1),
                                    n_plus_1, n_plus_1 - 1,
                                    {ProcSet::singleton(p), r->correct_sigma}));
  }
  // phi[<>P] over every suspicion set d (including empty and Pi).
  for (int f = 1; f <= 4; ++f) {
    const fd::AxiomSpec spec{Family::kEventuallyPerfect, 0};
    const auto phi = derived(spec, f);
    for (std::uint64_t bits = 0; bits <= all.bits(); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      const auto* r = phi->find(d);
      ASSERT_NE(r, nullptr);
      EXPECT_FALSE(isFResilientSample(core::axiomLegal(spec, n_plus_1),
                                      n_plus_1, f, {d, r->correct_sigma}))
          << "f=" << f << " d=" << d.toString();
      EXPECT_GE(r->correct_sigma.size(), n_plus_1 - f);
    }
  }
}

TEST(Samples, DummyHasNoPhi) {
  // For the dummy detector, the constant d = c makes EVERY sigma a
  // sample — precisely why no phi map (and no Fig. 3 extraction) can
  // exist for a trivial detector: the derivation designates nothing for c.
  const int n_plus_1 = 4;
  const ProcSet c{1, 2};
  const core::Legal dummy = [c](const ProcSet& d, const ProcSet&) {
    return d == c;
  };
  for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
    const ProcSet r = ProcSet::fromBits(bits);
    EXPECT_TRUE(isFResilientSample(dummy, n_plus_1, n_plus_1 - 1, {c, r}));
  }
  const auto phi = core::derivePhi(dummy, n_plus_1, n_plus_1 - 1, 0);
  EXPECT_EQ(phi->find(c), nullptr);
}

}  // namespace
}  // namespace wfd
