// Fig. 3 / Theorem 10: extracting Upsilon^f from any stable f-non-trivial
// detector via phi_D, derived from the detector's axioms. For every shipped
// detector, and for every realizable stable detector at n+1 = 2, the
// emulated output must stabilize on a legal Upsilon^f value; the derived
// designations are unit-checked against the relation they came from.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkEmulatedUpsilonF;
using core::extractUpsilonF;
using core::Legal;
using core::PhiPtr;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;
using Family = fd::AxiomSpec::Family;

RunResult runExtraction(int n_plus_1, const FailurePattern& fp, fd::FdPtr d,
                        PhiPtr phi, std::uint64_t seed, Time steps = 120'000) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.fd = std::move(d);
  cfg.seed = seed;
  cfg.max_steps = steps;
  return sim::runTask(
      cfg, [phi](Env& e, Value) { return extractUpsilonF(e, phi); },
      std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
}

// phi_D derived from an axiom family in E_f, with w batches.
PhiPtr derived(const fd::AxiomSpec& spec, int n_plus_1, int f, int w = 0) {
  return core::derivePhi(core::axiomLegal(spec, n_plus_1), n_plus_1, f, w);
}

// ---- D = Omega (f = n): the CHT-style special case of Sect. 6 ----

TEST(Extraction, FromOmega) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 40, seed);
    const auto rr = runExtraction(n_plus_1, fp, fd::makeOmega(fp, 100, seed),
                                  core::phiOmegaK(n_plus_1), seed);
    const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
    EXPECT_TRUE(rep.ok()) << "seed " << seed << " correct "
                          << fp.correct().toString() << ": " << rep.violation;
  }
}

// ---- D = Omega^f in E_f ----

TEST(Extraction, FromOmegaFAcrossF) {
  const int n_plus_1 = 5;
  for (int f = 1; f <= 4; ++f) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto fp = FailurePattern::random(n_plus_1, f, 40, seed * 9 + f);
      const auto rr =
          runExtraction(n_plus_1, fp, fd::makeOmegaK(fp, f, 90, seed),
                        core::phiOmegaK(n_plus_1), seed);
      const auto rep = checkEmulatedUpsilonF(rr, f);
      EXPECT_TRUE(rep.ok()) << "f=" << f << " seed " << seed << ": "
                            << rep.violation;
    }
  }
}

// ---- D = Upsilon itself: extraction must reproduce a legal output
// (the identity sanity check — Upsilon is non-trivial by Theorem 2) ----

TEST(Extraction, FromUpsilonIsIdentityLike) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::failureFree(n_plus_1);
    const auto d = fd::makeUpsilon(fp, 100, seed);
    const auto phi = derived(d->axioms(), n_plus_1, n_plus_1 - 1);
    const auto rr = runExtraction(n_plus_1, fp, d, phi, seed);
    const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
    ASSERT_TRUE(rep.ok()) << rep.violation;
    // phi designates d itself, so the extracted stable value is exactly the
    // source detector's stable set.
    const auto* u = dynamic_cast<const fd::UpsilonFd*>(d.get());
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(rep.stable_value, u->stableSet());
  }
}

// ---- D = Upsilon^f across resiliences ----

TEST(Extraction, FromUpsilonFAcrossF) {
  const int n_plus_1 = 5;
  for (int f = 1; f <= 4; ++f) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto fp = FailurePattern::random(n_plus_1, f, 40, seed * 17 + f);
      const auto d = fd::makeUpsilonF(fp, f, 120, seed);
      const auto phi = derived(d->axioms(), n_plus_1, f);
      const auto rr = runExtraction(n_plus_1, fp, d, phi, seed);
      const auto rep = checkEmulatedUpsilonF(rr, f);
      ASSERT_TRUE(rep.ok()) << "f=" << f << " seed " << seed << ": "
                            << rep.violation;
      // Identity again: the emulated stable output is the source's set.
      const auto* u = dynamic_cast<const fd::UpsilonFd*>(d.get());
      ASSERT_NE(u, nullptr);
      EXPECT_EQ(rep.stable_value, u->stableSet());
    }
  }
}

// ---- D = stable anti-Omega ----

TEST(Extraction, FromStableAntiOmega) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 30, seed);
    const auto d = fd::makeAntiOmega(fp, 80, seed);
    const auto phi = derived(d->axioms(), n_plus_1, n_plus_1 - 1);
    const auto rr = runExtraction(n_plus_1, fp, d, phi, seed);
    const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
    EXPECT_TRUE(rep.ok()) << rep.violation;
  }
}

// ---- w > 0: Fig. 3's batch-observation machinery (line 15) ----

TEST(Extraction, InflatedWStillExtractsFailureFree) {
  const int n_plus_1 = 3;
  for (int w : {1, 2, 5}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto fp = FailurePattern::failureFree(n_plus_1);
      const auto d = fd::makeOmega(fp, 60, seed);
      const auto phi = derived(d->axioms(), n_plus_1, n_plus_1 - 1, w);
      const auto rr = runExtraction(n_plus_1, fp, d, phi, seed);
      const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
      EXPECT_TRUE(rep.ok()) << "w=" << w << " seed " << seed << ": "
                            << rep.violation;
    }
  }
}

TEST(Extraction, InflatedWBlocksAtPiWhenAProcessIsSilent) {
  // With w > 0 and a crashed process, the batches of line 15 never
  // complete, so the output stays Pi — which is legal exactly because
  // someone is faulty (Theorem 10 proof, case (1)).
  const int n_plus_1 = 3;
  const auto fp = FailurePattern::withCrashes(n_plus_1, {{2, 10}});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto d = fd::makeOmega(fp, 60, seed);
    const auto phi = derived(d->axioms(), n_plus_1, n_plus_1 - 1, 3);
    const auto rr = runExtraction(n_plus_1, fp, d, phi, seed);
    const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
    ASSERT_TRUE(rep.ok()) << rep.violation;
    EXPECT_EQ(rep.stable_value, ProcSet::full(n_plus_1));
  }
}

// ---- The derived designations' defining property, checked against the
// detector axioms: a run where correct(F) = phi(d).correct_sigma and every
// correct process forever observes d violates D's axioms (sigma is NOT a
// sample) ----

TEST(PhiMaps, OmegaPhiDesignatesNonSample) {
  const int n_plus_1 = 4;
  const auto phi = core::phiOmegaK(n_plus_1);
  for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
    const ProcSet d = ProcSet::fromBits(bits);
    if (d.size() != 1) continue;  // Omega outputs singletons
    const auto* r = phi->find(d);
    ASSERT_NE(r, nullptr) << d.toString();
    // In a run with correct(F) = r->correct_sigma, Omega must eventually
    // output a member of correct(F); d contains none of them.
    EXPECT_TRUE(d.intersect(r->correct_sigma).empty())
        << "phi(" << d.toString() << ") = " << r->correct_sigma.toString();
    EXPECT_GE(r->correct_sigma.size(), 1);
  }
}

TEST(PhiMaps, UpsilonPhiDesignatesNonSample) {
  const int n_plus_1 = 4;
  const auto phi = derived({Family::kUpsilonF, n_plus_1 - 1}, n_plus_1,
                           n_plus_1 - 1);
  for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
    const ProcSet d = ProcSet::fromBits(bits);
    const auto* r = phi->find(d);
    ASSERT_NE(r, nullptr) << d.toString();
    // Upsilon never stabilizes on the correct set; phi designates
    // correct(sigma) = d, making d the correct set of the hypothetical
    // run — contradiction.
    EXPECT_EQ(r->correct_sigma, d);
    EXPECT_EQ(r->w, 0);
  }
}

// ---- The designations themselves: Omega gets Pi - d, Upsilon^f and
// anti-Omega get d, and w carries through ----

TEST(PhiMaps, OmegaMapIsTheComplementOfD) {
  for (int n_plus_1 = 2; n_plus_1 <= 6; ++n_plus_1) {
    const auto phi = core::phiOmegaK(n_plus_1);
    const ProcSet all = ProcSet::full(n_plus_1);
    for (std::uint64_t bits = 0; bits < all.bits(); ++bits) {
      const ProcSet d = ProcSet::fromBits(bits);
      const auto* r = phi->find(d);
      ASSERT_NE(r, nullptr) << "n+1=" << n_plus_1 << " d=" << d.toString();
      EXPECT_EQ(r->correct_sigma, d.complement(n_plus_1))
          << "n+1=" << n_plus_1 << " d=" << d.toString();
      EXPECT_EQ(r->w, 0);
    }
    // No Omega^k with k <= n outputs Pi, and no correct set rules it out.
    EXPECT_EQ(phi->find(all), nullptr);
  }
}

TEST(PhiMaps, UpsilonFMapIsDInRange) {
  for (int n_plus_1 = 2; n_plus_1 <= 6; ++n_plus_1) {
    for (int f = 1; f < n_plus_1; ++f) {
      const auto phi = derived({Family::kUpsilonF, f}, n_plus_1, f);
      for (std::uint64_t bits = 1; bits < (1u << n_plus_1); ++bits) {
        const ProcSet d = ProcSet::fromBits(bits);
        if (d.size() < n_plus_1 - f) continue;
        const auto* r = phi->find(d);
        ASSERT_NE(r, nullptr) << "n+1=" << n_plus_1 << " f=" << f;
        EXPECT_EQ(r->correct_sigma, d)
            << "n+1=" << n_plus_1 << " f=" << f << " d=" << d.toString();
        EXPECT_EQ(r->w, 0);
      }
    }
  }
}

TEST(PhiMaps, AntiOmegaMapIsDOnSingletonsAndCarriesW) {
  for (int n_plus_1 = 2; n_plus_1 <= 6; ++n_plus_1) {
    const auto fp = FailurePattern::failureFree(n_plus_1);
    const auto anti = fd::makeAntiOmega(fp, 10, 1);
    for (int w : {0, 3}) {
      const auto phi = derived(anti->axioms(), n_plus_1, n_plus_1 - 1, w);
      for (Pid p = 0; p < n_plus_1; ++p) {
        const auto* r = phi->find(ProcSet::singleton(p));
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->correct_sigma, ProcSet::singleton(p));
        EXPECT_EQ(r->w, w);
      }
    }
  }
}

TEST(PhiMaps, EventuallyPerfectMapIsPiUnlessNothingIsSuspected) {
  // <>P stabilizes on faulty(F): a stable d != {} means someone is faulty,
  // so R = Pi rules d out; d = {} is ruled out by any R with a faulty
  // process, the first of which drops the largest id.
  for (int n_plus_1 = 2; n_plus_1 <= 6; ++n_plus_1) {
    for (int f = 1; f < n_plus_1; ++f) {
      const auto phi =
          derived({Family::kEventuallyPerfect, 0}, n_plus_1, f);
      const ProcSet all = ProcSet::full(n_plus_1);
      for (std::uint64_t bits = 0; bits <= all.bits(); ++bits) {
        const auto* r = phi->find(ProcSet::fromBits(bits));
        ASSERT_NE(r, nullptr);
        ProcSet want = all;
        if (bits == 0) want.erase(n_plus_1 - 1);
        EXPECT_EQ(r->correct_sigma, want) << "n+1=" << n_plus_1 << " f=" << f;
      }
    }
  }
}

TEST(PhiMaps, Fig3AbortsOnAValueWithNoDesignation) {
  // Omega's k-free derivation leaves Pi undesignated; a detector that
  // stabilizes there is outside every Omega^k with k <= n.
  const int n_plus_1 = 3;
  const auto fp = FailurePattern::failureFree(n_plus_1);
  const auto all = std::make_shared<fd::ScriptedFd>(
      "all", [n_plus_1](Pid, Time) { return ProcSet::full(n_plus_1); }, 0);
  EXPECT_THROW(
      runExtraction(n_plus_1, fp, all, core::phiOmegaK(n_plus_1), 1, 1000),
      sim::SimAbort);
  // A value outside the Pi the table was derived for has none either.
  EXPECT_EQ(core::phiOmegaK(2)->find(ProcSet{2}), nullptr);
}

// ---- Theorem 10 over a whole class: every stable detector at n+1 = 2,
// f = 1. A relation allows, under each of the three correct sets {p1},
// {p2} and Pi, a non-empty subset of the four values, so there are
// 15^3 = 3,375 realizable relations. It is f-non-trivial iff no value is
// allowed under all three; exactly then the derived phi is total ----

// allowed[R.bits() - 1] is the bitmask (over d.bits()) of R's legal values.
using Allowed = std::array<unsigned, 3>;

Legal relationOf(const Allowed& allowed) {
  return [allowed](const ProcSet& d, const ProcSet& r) {
    return ((allowed[r.bits() - 1] >> d.bits()) & 1u) != 0;
  };
}

// The k-th (mod popcount) member of a non-empty value mask.
ProcSet nthValue(unsigned mask, std::uint64_t k) {
  k %= static_cast<std::uint64_t>(std::popcount(mask));
  for (unsigned v = 0;; ++v) {
    if (((mask >> v) & 1u) != 0 && k-- == 0) return ProcSet::fromBits(v);
  }
}

// A legal history of the relation for correct set R: in-range noise (any
// value some correct set allows) until `stab`, then one of R's values.
fd::FdPtr scriptedHistory(const Allowed& allowed, const ProcSet& r,
                          std::uint64_t seed, Time stab) {
  const unsigned range = allowed[0] | allowed[1] | allowed[2];
  const ProcSet stable = nthValue(allowed[r.bits() - 1], seed);
  return std::make_shared<fd::ScriptedFd>(
      "relation",
      [range, stable, seed, stab](Pid p, Time t) {
        if (t >= stab) return stable;
        const std::uint64_t k = hashedUniform(
            seed, static_cast<std::uint64_t>(p) + 1,
            static_cast<std::uint64_t>(t), 4);
        return nthValue(range, k);
      },
      stab);
}

TEST(Theorem10, EveryRealizableRelationAtTwoProcesses) {
  const int n_plus_1 = 2, f = 1;
  const FailurePattern patterns[] = {
      FailurePattern::withCrashes(n_plus_1, {{1, 12}}),  // correct {p1}
      FailurePattern::withCrashes(n_plus_1, {{0, 12}}),  // correct {p2}
      FailurePattern::failureFree(n_plus_1)};            // correct Pi
  int extracted = 0, trivial = 0;
  for (unsigned a = 1; a < 16; ++a) {
    for (unsigned b = 1; b < 16; ++b) {
      for (unsigned c = 1; c < 16; ++c) {
        const Allowed allowed{a, b, c};
        const Legal legal = relationOf(allowed);
        const auto phi = core::derivePhi(legal, n_plus_1, f, 0);
        const unsigned always = a & b & c;
        // The negative control: a value every correct set allows gets no
        // designation (the dummy detector is the case of one such value).
        for (std::uint64_t d = 0; d < 4; ++d) {
          const auto* r = phi->find(ProcSet::fromBits(d));
          ASSERT_EQ(r == nullptr, ((always >> d) & 1u) != 0);
          if (r != nullptr) {
            ASSERT_FALSE(legal(ProcSet::fromBits(d), r->correct_sigma));
          }
        }
        if (always != 0) {
          ++trivial;
          continue;
        }
        for (const FailurePattern& fp : patterns) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const auto d = scriptedHistory(allowed, fp.correct(), seed, 20);
            const auto rr = runExtraction(n_plus_1, fp, d, phi, seed, 600);
            const auto rep = checkEmulatedUpsilonF(rr, f);
            ASSERT_TRUE(rep.ok())
                << "allowed {" << a << "," << b << "," << c << "} correct "
                << fp.correct().toString() << " seed " << seed << ": "
                << rep.violation;
          }
        }
        ++extracted;
      }
    }
  }
  EXPECT_EQ(extracted, 1680);
  EXPECT_EQ(trivial, 1695);
}

TEST(PhiMaps, SampledRelationsAtThreeProcesses) {
  // 4.2e9 relations at f = 1 and 7.0e16 at f = 2: a seeded sample. Every
  // designation is a non-sample with |R| >= n+1-f; a value is left
  // undesignated exactly when every admissible R allows it.
  const int n_plus_1 = 3;
  Rng rng(0xF3);
  for (int f = 1; f <= 2; ++f) {
    for (int i = 0; i < 200; ++i) {
      std::array<unsigned, 8> allowed{};
      for (unsigned r = 1; r < 8; ++r) {
        allowed[r] = static_cast<unsigned>(rng.range(1, 255));
      }
      const Legal legal = [&allowed](const ProcSet& d, const ProcSet& r) {
        return ((allowed[r.bits()] >> d.bits()) & 1u) != 0;
      };
      const auto phi = core::derivePhi(legal, n_plus_1, f, 0);
      for (std::uint64_t bits = 0; bits < 8; ++bits) {
        const ProcSet d = ProcSet::fromBits(bits);
        bool always = true;
        for (unsigned r = 1; r < 8; ++r) {
          const ProcSet rs = ProcSet::fromBits(r);
          if (rs.size() >= n_plus_1 - f) always = always && legal(d, rs);
        }
        const auto* r = phi->find(d);
        ASSERT_EQ(r == nullptr, always) << "f=" << f << " i=" << i;
        if (r == nullptr) continue;
        EXPECT_GE(r->correct_sigma.size(), n_plus_1 - f);
        EXPECT_FALSE(core::isFResilientSample(legal, n_plus_1, f,
                                              {d, r->correct_sigma}));
      }
    }
  }
}

// ---- Stabilization time scales with the source detector's ----

TEST(Extraction, StabilizesAfterSourceDetector) {
  const int n_plus_1 = 3;
  const auto fp = FailurePattern::failureFree(n_plus_1);
  const Time stab = 2000;
  const auto rr = runExtraction(n_plus_1, fp, fd::makeOmega(fp, stab, 1),
                                core::phiOmegaK(n_plus_1), 1, 200'000);
  const auto rep = checkEmulatedUpsilonF(rr, n_plus_1 - 1);
  ASSERT_TRUE(rep.ok()) << rep.violation;
  // The last output change cannot precede the source stabilizing (the
  // candidate value keeps flapping before that).
  EXPECT_GE(rep.last_change, stab / 2);
}

}  // namespace
}  // namespace wfd
