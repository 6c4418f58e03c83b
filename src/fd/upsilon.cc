#include "fd/upsilon.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"
#include "fd/axioms.h"

namespace wfd::fd {

UpsilonFd::UpsilonFd(const FailurePattern& fp, int f, Params p)
    : n_plus_1_(fp.nProcs()), f_(f), params_(std::move(p)) {
  assert(f_ >= 1 && f_ <= n_plus_1_ - 1);
  assert(params_.stable_set.subsetOf(ProcSet::full(n_plus_1_)));
  assert(rangeViolation(axioms(), n_plus_1_, params_.stable_set).empty() &&
         "stable set breaks the range rule");
  assert(stableViolation(axioms(), n_plus_1_, params_.stable_set, fp.correct())
             .empty() &&
         "stable set breaks the stable-value rule");
}

ProcSet UpsilonFd::query(Pid p, Time t) const {
  assert(p >= 0 && p < n_plus_1_);
  if (t >= params_.stab_time) return params_.stable_set;
  // Salted per process: pre-stab outputs may differ across pids.
  return legalNoise(axioms(), n_plus_1_, params_.noise_seed ^ 0xC0FFEE,
                    static_cast<std::uint64_t>(p) + 1,
                    t / std::max<Time>(params_.noise_hold, 1));
}

std::string UpsilonFd::name() const {
  return (f_ == n_plus_1_ - 1) ? "Upsilon" : "Upsilon^" + std::to_string(f_);
}

std::uint64_t UpsilonFd::keyDigest() const {
  // Everything query() can depend on: the class (via the name), the
  // universe, f, and the full Params. The factory-derived stable set is
  // folded directly, so patterns enter through it.
  std::uint64_t h = digestString(0xA11CE, name());
  h = mixDigest(h, static_cast<std::uint64_t>(n_plus_1_));
  h = mixDigest(h, static_cast<std::uint64_t>(f_));
  h = mixDigest(h, params_.stable_set.bits());
  h = mixDigest(h, static_cast<std::uint64_t>(params_.stab_time));
  h = mixDigest(h, params_.noise_seed);
  h = mixDigest(h, 1);  // per_process_noise, always set: keeps stored keys
  h = mixDigest(h, static_cast<std::uint64_t>(params_.noise_hold));
  return h;
}

ProcSet UpsilonFd::defaultStableSet(const FailurePattern& fp, int f) {
  const int n_plus_1 = fp.nProcs();
  const ProcSet all = ProcSet::full(n_plus_1);
  if (fp.correct() != all) return all;  // someone faulty: Pi != correct(F)
  (void)f;  // |Pi - {p}| = n >= n+1-f for every f >= 1
  ProcSet s = all;
  s.erase(n_plus_1 - 1);
  return s;
}

FdPtr makeUpsilon(const FailurePattern& fp, Time stab_time,
                  std::uint64_t noise_seed) {
  return makeUpsilonF(fp, fp.nProcs() - 1, stab_time, noise_seed);
}

FdPtr makeUpsilon(const FailurePattern& fp, ProcSet stable_set, Time stab_time,
                  std::uint64_t noise_seed) {
  return makeUpsilonF(fp, fp.nProcs() - 1, std::move(stable_set), stab_time,
                      noise_seed);
}

FdPtr makeUpsilonF(const FailurePattern& fp, int f, Time stab_time,
                   std::uint64_t noise_seed) {
  return makeUpsilonF(fp, f, UpsilonFd::defaultStableSet(fp, f), stab_time,
                      noise_seed);
}

FdPtr makeUpsilonF(const FailurePattern& fp, int f, ProcSet stable_set,
                   Time stab_time, std::uint64_t noise_seed) {
  UpsilonFd::Params p;
  p.stable_set = std::move(stable_set);
  p.stab_time = stab_time;
  p.noise_seed = noise_seed;
  return std::make_shared<UpsilonFd>(fp, f, std::move(p));
}

FdPtr makeUpsilonWithParams(const FailurePattern& fp, int f,
                            UpsilonFd::Params p) {
  return std::make_shared<UpsilonFd>(fp, f, std::move(p));
}

}  // namespace wfd::fd
