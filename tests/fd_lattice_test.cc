// The weaker-than lattice (paper Sect. 3.5), systematically:
//
//    P ≥ <>P ≥ Omega = Omega^1 ≥ Omega^k ≥ Upsilon^{n+1-k}, and
//    Upsilon^{f'} histories are Upsilon^f histories for f' <= f.
//
// Each "≥" edge is realized either by a stateless lens (fd::MappedFd —
// one detector's history IS a legal history of the other after a pure
// per-query map) or by a published reduction; every edge is certified by
// the target's axiom checker. The strictness results (Theorems 1/5) are
// the *absence* of upward edges, covered in adversary_test.cc.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using sim::FailurePattern;
using Family = fd::AxiomSpec::Family;

TEST(Lattice, PerfectHistoriesAreEventuallyPerfect) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = FailurePattern::random(5, 4, 60, seed);
    EXPECT_TRUE(fd::checkHistory(*fd::makePerfect(fp), fp,
                                 {Family::kEventuallyPerfect, 0}, 300)
                    .ok);
  }
}

TEST(Lattice, OmegaToOmegaKByPadding) {
  // Omega^k from Omega: leader plus the k-1 lowest non-leader ids — the
  // padded set still eventually contains the correct leader.
  const int n_plus_1 = 5;
  for (int k = 2; k <= 4; ++k) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto fp = FailurePattern::random(n_plus_1, n_plus_1 - k, 50,
                                             seed * 7 + k);
      const auto lens = fd::makeMapped(
          fd::makeOmega(fp, 80, seed),
          [k, n_plus_1](const ProcSet& leader, Pid, Time) {
            ProcSet s = leader;
            for (Pid p = 0; p < n_plus_1 && s.size() < k; ++p) s.insert(p);
            return s;
          },
          "pad(Omega)");
      EXPECT_TRUE(fd::checkHistory(*lens, fp, {Family::kOmegaK, k}, 300).ok)
          << "k=" << k << " seed " << seed;
    }
  }
}

TEST(Lattice, OmegaKToUpsilonByComplement) {
  const int n_plus_1 = 5;
  for (int k = 1; k <= 4; ++k) {
    const int f = n_plus_1 - 1;  // complement has size n+1-k >= n+1-f
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto fp =
          FailurePattern::random(n_plus_1, n_plus_1 - k, 50, seed * 3 + k);
      const auto lens =
          fd::makeComplemented(fd::makeOmegaK(fp, k, 70, seed), n_plus_1);
      // The complement misses the stable correct leader, so it is never
      // the correct set — a legal Upsilon history. (For k = n+1-? the
      // tighter Upsilon^{n+1-k} claim is covered in reductions_test.)
      EXPECT_TRUE(fd::checkHistory(*lens, fp, {Family::kUpsilonF, f}, 300).ok)
          << "k=" << k << " seed " << seed;
    }
  }
}

TEST(Lattice, UpsilonFPrimeHistoriesAreUpsilonF) {
  // f' <= f: the range only widens (sets of size >= n+1-f' are also of
  // size >= n+1-f) and the axioms coincide — identity is the reduction.
  const int n_plus_1 = 6;
  for (int f_strong = 1; f_strong <= 4; ++f_strong) {
    for (int f_weak = f_strong; f_weak <= 5; ++f_weak) {
      const auto fp = FailurePattern::random(n_plus_1, f_strong, 50,
                                             static_cast<std::uint64_t>(
                                                 f_strong * 10 + f_weak));
      const auto d = fd::makeUpsilonF(fp, f_strong, 60, 3);
      EXPECT_TRUE(fd::checkHistory(*d, fp, {Family::kUpsilonF, f_weak}, 250).ok)
          << "f'=" << f_strong << " f=" << f_weak;
    }
  }
}

TEST(Lattice, ChainedLensPToUpsilon) {
  // The full descent in one composition: P -> (suspected-complement
  // leader) -> padded Omega_n -> complement = Upsilon, as one MappedFd
  // chain over the perfect detector.
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, 3, 40, seed * 11);
    const auto omega = fd::makeMapped(
        fd::makePerfect(fp),
        [n_plus_1](const ProcSet& suspected, Pid, Time) {
          const ProcSet alive = suspected.complement(n_plus_1);
          return ProcSet::singleton(alive.empty() ? 0 : alive.min());
        },
        "omega(P)");
    EXPECT_TRUE(fd::checkHistory(*omega, fp, {Family::kOmegaK, 1}, 250).ok);
    const auto upsilon = fd::makeComplemented(omega, n_plus_1);
    EXPECT_TRUE(
        fd::checkHistory(*upsilon, fp, {Family::kUpsilonF, n_plus_1 - 1}, 250)
            .ok);
  }
}

TEST(Lattice, EveryStableDetectorFeedsFig1ThroughItsLens) {
  // End-to-end: each lattice member, pushed down to Upsilon through its
  // lens, drives Fig. 1 to a correct decision — the practical content of
  // "provides at least as much information as Upsilon".
  const int n_plus_1 = 4;
  const auto props = test::distinctProposals(n_plus_1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto fp = FailurePattern::random(n_plus_1, 3, 100, seed * 13);
    const std::vector<fd::FdPtr> sources = {
        fd::makeComplemented(
            fd::makeMapped(
                fd::makeEventuallyPerfect(fp, 150, seed),
                [n_plus_1](const ProcSet& susp, Pid, Time) {
                  const ProcSet alive = susp.complement(n_plus_1);
                  return ProcSet::singleton(alive.empty() ? 0 : alive.min());
                },
                "omega(<>P)"),
            n_plus_1),
        fd::makeComplemented(fd::makeOmegaK(fp, n_plus_1 - 1, 150, seed),
                             n_plus_1),
        fd::makeUpsilon(fp, 150, seed),
        fd::makeAntiOmega(fp, 150, seed),
    };
    for (const auto& src : sources) {
      sim::RunConfig cfg;
      cfg.n_plus_1 = n_plus_1;
      cfg.fp = fp;
      cfg.fd = src;
      cfg.seed = seed;
      const auto rr = sim::runTask(
          cfg,
          [](sim::Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
          props);
      const auto rep = core::checkKSetAgreement(rr, n_plus_1 - 1, props);
      EXPECT_TRUE(rep.ok()) << src->name() << " seed " << seed << ": "
                            << rep.violation;
    }
  }
}

}  // namespace
}  // namespace wfd
