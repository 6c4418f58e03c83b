#include "fd/anti_omega.h"

#include <cassert>

#include "common/rng.h"
#include "fd/axioms.h"

namespace wfd::fd {

AntiOmegaFd::AntiOmegaFd(const FailurePattern& fp, Params p)
    : n_plus_1_(fp.nProcs()), params_(p) {
  assert(params_.stable_pid >= 0 && params_.stable_pid < n_plus_1_);
  assert(stableViolation(axioms(), n_plus_1_,
                         ProcSet::singleton(params_.stable_pid), fp.correct())
             .empty() &&
         "stable singleton breaks the stable-value rule");
}

ProcSet AntiOmegaFd::query(Pid p, Time t) const {
  assert(p >= 0 && p < n_plus_1_);
  if (t >= params_.stab_time) return ProcSet::singleton(params_.stable_pid);
  const auto q = static_cast<Pid>(hashedUniform(
      params_.noise_seed ^ 0xA271, static_cast<std::uint64_t>(p) + 1,
      static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(n_plus_1_)));
  return ProcSet::singleton(q);
}

std::uint64_t AntiOmegaFd::keyDigest() const {
  std::uint64_t h = digestString(0xA271, name());
  h = mixDigest(h, static_cast<std::uint64_t>(n_plus_1_));
  h = mixDigest(h, static_cast<std::uint64_t>(params_.stable_pid) + 1);
  h = mixDigest(h, static_cast<std::uint64_t>(params_.stab_time));
  h = mixDigest(h, params_.noise_seed);
  return h;
}

Pid AntiOmegaFd::defaultStablePid(const FailurePattern& fp) {
  const ProcSet faulty = fp.faulty();
  if (!faulty.empty()) return faulty.min();
  // Failure-free: any singleton differs from correct(F) = Pi (n+1 >= 2).
  assert(fp.nProcs() >= 2);
  return 0;
}

FdPtr makeAntiOmega(const FailurePattern& fp, Time stab_time,
                    std::uint64_t noise_seed) {
  AntiOmegaFd::Params p;
  p.stable_pid = AntiOmegaFd::defaultStablePid(fp);
  p.stab_time = stab_time;
  p.noise_seed = noise_seed;
  return std::make_shared<AntiOmegaFd>(fp, p);
}

}  // namespace wfd::fd
