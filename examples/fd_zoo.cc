// A tour of the failure detector zoo and the weaker-than lattice.
//
//   $ ./fd_zoo
//
// Shows, on one failure pattern, what each shipped detector reports
// before and after stabilization, and demonstrates the reduction lattice
// the paper situates Upsilon in:
//
//        P  ≥  <>P  ≥  Omega  ≥  Omega_n  ≥  Upsilon  ≥  (anti-Omega)
//
// ("≥" = "provides at least as much failure information": each arrow is
// an executable reduction in core/reductions.h or fd/mapped.h.)
#include <cstdio>

#include "wfd.h"

namespace {

using namespace wfd;

void showHistory(const fd::FailureDetector& d, Time stab) {
  std::printf("  %-12s", d.name().c_str());
  for (Time t : {Time{0}, Time{5}, stab / 2, stab + 1, stab + 100}) {
    std::printf("  t=%-4lld %-14s", static_cast<long long>(t),
                d.query(0, t).toString().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace wfd;

  const int n_plus_1 = 4;
  const Time stab = 500;
  const auto fp = sim::FailurePattern::withCrashes(n_plus_1, {{2, 100}});
  std::printf("failure pattern: p3 crashes at t=100; correct = %s\n\n",
              fp.correct().toString().c_str());

  std::printf("histories at p1 (noisy, then stable):\n");
  showHistory(*fd::makePerfect(fp), stab);
  showHistory(*fd::makeEventuallyPerfect(fp, stab, 1), stab);
  showHistory(*fd::makeOmega(fp, stab, 2), stab);
  showHistory(*fd::makeOmegaK(fp, n_plus_1 - 1, stab, 3), stab);
  showHistory(*fd::makeUpsilon(fp, stab, 4), stab);
  showHistory(*fd::makeAntiOmega(fp, stab, 5), stab);

  std::printf("\nreductions down the lattice (each checked by its axioms):\n");

  auto runReduction = [&](const char* label, fd::FdPtr src,
                          const sim::AlgoFn& algo, bool omega_target) {
    sim::RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = std::move(src);
    cfg.max_steps = 40'000;
    const auto rr = sim::runTask(
        cfg, algo, std::vector<Value>(n_plus_1, 0));
    const auto rep = omega_target
                         ? core::checkEmulatedOmega(rr)
                         : core::checkEmulatedUpsilonF(rr, n_plus_1 - 1);
    std::printf("  %-28s -> %-14s %s\n", label,
                rep.stable_value.toString().c_str(),
                rep.ok() ? "ok" : "FAIL");
    return rep.ok();
  };

  bool ok = true;
  ok &= runReduction("<>P -> Omega", fd::makeEventuallyPerfect(fp, stab, 1),
                     [](sim::Env& e, Value) { return core::diamondPToOmega(e); },
                     /*omega_target=*/true);
  ok &= runReduction("Omega_n -> Upsilon",
                     fd::makeOmegaK(fp, n_plus_1 - 1, stab, 3),
                     [](sim::Env& e, Value) { return core::omegaKToUpsilonF(e); },
                     /*omega_target=*/false);
  // P is a legal <>P history; Omega is Omega^1; a stable anti-Omega
  // history is a legal Upsilon history — three "free" lattice edges:
  using Family = fd::AxiomSpec::Family;
  const auto axiomEdge = [&](const char* what, const fd::FdPtr& d,
                             fd::AxiomSpec spec) {
    const auto rep = fd::checkHistory(*d, fp, spec, stab + 200);
    std::printf("  %-28s -> %-14s %s\n", what, "(axioms)",
                rep.ok ? "ok" : "FAIL");
    return rep.ok;
  };
  ok &= axiomEdge("P is a <>P history", fd::makePerfect(fp),
                  {Family::kEventuallyPerfect, 0});
  ok &= axiomEdge("anti-Omega is an Upsilon", fd::makeAntiOmega(fp, stab, 5),
                  {Family::kUpsilonF, n_plus_1 - 1});

  std::printf("\nand the floor: Theorem 10 extracts Upsilon from ANY stable\n");
  std::printf("non-trivial detector — try ./weakest_fd_extraction next.\n");
  return ok ? 0 : 1;
}
