// Randomized cross-product soak: algorithms x detectors x failure
// patterns x snapshot flavors x schedules, all verified by the trace
// checkers. Catches interaction bugs no targeted test thought to look
// for; failures print the full configuration for deterministic replay.
#include <gtest/gtest.h>

#include "test_util.h"

namespace wfd {
namespace {

using core::checkKSetAgreement;
using sim::Env;
using sim::FailurePattern;
using sim::PolicyKind;
using sim::RunConfig;
using sim::SnapshotFlavor;

struct Config {
  int n_plus_1;
  int f;               // crash budget + detector resilience
  Time stab;
  Time noise_hold;
  SnapshotFlavor flavor;
  PolicyKind policy;
  int algo;            // 0 = Fig.1, 1 = Fig.2, 2 = Omega^k baseline
  std::uint64_t seed;

  std::string describe() const {
    return "n+1=" + std::to_string(n_plus_1) + " f=" + std::to_string(f) +
           " stab=" + std::to_string(stab) +
           " hold=" + std::to_string(noise_hold) +
           (flavor == SnapshotFlavor::kAfek ? " afek" : " native") +
           (policy == PolicyKind::kRoundRobin ? " lockstep" : " random") +
           " algo=" + std::to_string(algo) + " seed=" + std::to_string(seed);
  }
};

Config randomConfig(Rng& rng, std::uint64_t seed) {
  Config c;
  c.n_plus_1 = static_cast<int>(rng.range(2, 7));
  c.f = static_cast<int>(rng.range(1, c.n_plus_1 - 1));
  c.stab = rng.range(0, 1500);
  c.noise_hold = rng.chance(0.3) ? rng.range(20, 200) : 1;
  c.flavor = rng.chance(0.25) ? SnapshotFlavor::kAfek : SnapshotFlavor::kNative;
  c.policy = rng.chance(0.3) ? PolicyKind::kRoundRobin : PolicyKind::kRandom;
  c.algo = static_cast<int>(rng.below(3));
  c.seed = seed;
  return c;
}

TEST(Soak, RandomizedCrossProduct) {
  const int kRuns = 150;
  Rng rng(0xB0A7);
  for (int i = 0; i < kRuns; ++i) {
    const Config c = randomConfig(rng, static_cast<std::uint64_t>(i) + 1);
    const auto fp =
        FailurePattern::random(c.n_plus_1, c.f, c.stab + 400, c.seed * 97 + 5);
    const auto props = test::distinctProposals(c.n_plus_1);

    RunConfig cfg;
    cfg.n_plus_1 = c.n_plus_1;
    cfg.fp = fp;
    cfg.seed = c.seed;
    cfg.flavor = c.flavor;
    cfg.policy = c.policy;
    cfg.max_steps = 6'000'000;

    int k = 0;
    sim::AlgoFn algo;
    switch (c.algo) {
      case 0: {  // Fig. 1 (wait-free: detector must be plain Upsilon)
        k = c.n_plus_1 - 1;
        fd::UpsilonFd::Params p;
        p.stable_set = fd::UpsilonFd::defaultStableSet(fp, k);
        p.stab_time = c.stab;
        p.noise_seed = c.seed;
        p.noise_hold = c.noise_hold;
        cfg.fd = fd::makeUpsilonWithParams(fp, k, p);
        algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
        break;
      }
      case 1: {  // Fig. 2 at resilience f
        k = c.f;
        fd::UpsilonFd::Params p;
        p.stable_set = fd::UpsilonFd::defaultStableSet(fp, c.f);
        p.stab_time = c.stab;
        p.noise_seed = c.seed;
        p.noise_hold = c.noise_hold;
        cfg.fd = fd::makeUpsilonWithParams(fp, c.f, p);
        const int f = c.f;
        algo = [f](Env& e, Value v) {
          return core::upsilonFSetAgreement(e, f, v);
        };
        break;
      }
      default: {  // Omega^k baseline at k = f
        k = c.f;
        cfg.fd = fd::makeOmegaK(fp, c.f, c.stab, c.seed);
        const int kk = c.f;
        algo = [kk](Env& e, Value v) {
          return core::omegaKSetAgreement(e, kk, v);
        };
        break;
      }
    }

    const auto rr = sim::runTask(cfg, algo, props);
    const auto rep = checkKSetAgreement(rr, k, props);
    ASSERT_TRUE(rep.ok()) << c.describe() << " -> " << rep.violation
                          << " (steps=" << rr.steps << ")";
  }
}

TEST(Soak, ReductionsCrossProduct) {
  const int kRuns = 60;
  Rng rng(0x50AB);
  for (int i = 0; i < kRuns; ++i) {
    const auto seed = static_cast<std::uint64_t>(i) + 1;
    const int n_plus_1 = static_cast<int>(rng.range(2, 6));
    const int f = static_cast<int>(rng.range(1, n_plus_1 - 1));
    const Time stab = rng.range(0, 800);
    const auto fp = FailurePattern::random(n_plus_1, f, 60, seed * 13);

    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.seed = seed;
    cfg.max_steps = stab * 3 + 40'000;
    cfg.fd = fd::makeOmegaK(fp, f, stab, seed);
    const auto rr = sim::runTask(
        cfg, [](Env& e, Value) { return core::omegaKToUpsilonF(e); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    const auto rep = core::checkEmulatedUpsilonF(rr, f);
    ASSERT_TRUE(rep.ok()) << "n+1=" << n_plus_1 << " f=" << f << " stab="
                          << stab << " seed=" << seed << " -> "
                          << rep.violation;
  }
}

TEST(Soak, ExtractionCrossProduct) {
  const int kRuns = 40;
  Rng rng(0xE27);
  for (int i = 0; i < kRuns; ++i) {
    const auto seed = static_cast<std::uint64_t>(i) + 1;
    const int n_plus_1 = static_cast<int>(rng.range(3, 5));
    const int f = n_plus_1 - 1;
    const Time stab = rng.range(50, 600);
    const auto fp = FailurePattern::random(n_plus_1, f, 40, seed * 29);
    const bool use_dp = rng.chance(0.5);

    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.seed = seed;
    cfg.max_steps = stab * 4 + 80'000;
    cfg.fd = use_dp ? fd::makeEventuallyPerfect(fp, stab, seed)
                    : fd::makeOmega(fp, stab, seed);
    const auto phi = core::derivePhi(
        core::axiomLegal(cfg.fd->axioms(), n_plus_1), n_plus_1, f, 0);
    const auto rr = sim::runTask(
        cfg, [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    const auto rep = core::checkEmulatedUpsilonF(rr, f);
    ASSERT_TRUE(rep.ok()) << "n+1=" << n_plus_1 << " stab=" << stab
                          << (use_dp ? " <>P" : " Omega") << " seed=" << seed
                          << " -> " << rep.violation;
  }
}

}  // namespace
}  // namespace wfd
