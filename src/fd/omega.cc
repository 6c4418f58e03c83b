#include "fd/omega.h"

#include <cassert>

#include "common/rng.h"
#include "fd/axioms.h"

namespace wfd::fd {

namespace {

// Deterministic pre-stabilization noise: an arbitrary k-sized set (legal
// range for Omega^k), a pure function of (seed, p, t). k cyclically
// consecutive members from a hashed base, direction also hashed — always
// exactly k distinct pids.
ProcSet noiseKSet(int n_plus_1, int k, std::uint64_t seed, Pid p, Time t) {
  ProcSet s;
  const auto base = static_cast<int>(hashedUniform(
      seed, static_cast<std::uint64_t>(p) + 1, static_cast<std::uint64_t>(t),
      static_cast<std::uint64_t>(n_plus_1)));
  const bool forward = hashedUniform(seed ^ 0xABCD,
                                     static_cast<std::uint64_t>(p) + 1,
                                     static_cast<std::uint64_t>(t), 2) == 0;
  for (int i = 0; i < k; ++i) {
    const int off = forward ? i : -i;
    s.insert(((base + off) % n_plus_1 + n_plus_1) % n_plus_1);
  }
  return s;
}

}  // namespace

OmegaKFd::OmegaKFd(const FailurePattern& fp, int k, Params p)
    : n_plus_1_(fp.nProcs()), k_(k), params_(std::move(p)) {
  assert(k_ >= 1 && k_ <= n_plus_1_);
  assert(rangeViolation(axioms(), n_plus_1_, params_.stable_leaders).empty() &&
         "stable set breaks the range rule");
  assert(stableViolation(axioms(), n_plus_1_, params_.stable_leaders,
                         fp.correct())
             .empty() &&
         "stable set breaks the stable-value rule");
}

ProcSet OmegaKFd::query(Pid p, Time t) const {
  assert(p >= 0 && p < n_plus_1_);
  if (t >= params_.stab_time) return params_.stable_leaders;
  return noiseKSet(n_plus_1_, k_, params_.noise_seed ^ 0x0E6A, p, t);
}

std::string OmegaKFd::name() const {
  return (k_ == 1) ? "Omega" : "Omega^" + std::to_string(k_);
}

std::uint64_t OmegaKFd::keyDigest() const {
  std::uint64_t h = digestString(0x03E6A, name());
  h = mixDigest(h, static_cast<std::uint64_t>(n_plus_1_));
  h = mixDigest(h, static_cast<std::uint64_t>(k_));
  h = mixDigest(h, params_.stable_leaders.bits());
  h = mixDigest(h, static_cast<std::uint64_t>(params_.stab_time));
  h = mixDigest(h, params_.noise_seed);
  return h;
}

ProcSet OmegaKFd::defaultLeaders(const FailurePattern& fp, int k) {
  ProcSet s;
  const Pid leader = fp.correct().min();
  assert(leader >= 0);
  s.insert(leader);
  for (Pid p = 0; p < fp.nProcs() && s.size() < k; ++p) s.insert(p);
  return s;
}

FdPtr makeOmega(const FailurePattern& fp, Time stab_time,
                std::uint64_t noise_seed) {
  return makeOmegaK(fp, 1, stab_time, noise_seed);
}

FdPtr makeOmegaK(const FailurePattern& fp, int k, Time stab_time,
                 std::uint64_t noise_seed) {
  return makeOmegaK(fp, k, OmegaKFd::defaultLeaders(fp, k), stab_time,
                    noise_seed);
}

FdPtr makeOmegaK(const FailurePattern& fp, int k, ProcSet leaders,
                 Time stab_time, std::uint64_t noise_seed) {
  OmegaKFd::Params p;
  p.stable_leaders = std::move(leaders);
  p.stab_time = stab_time;
  p.noise_seed = noise_seed;
  return std::make_shared<OmegaKFd>(fp, k, std::move(p));
}

}  // namespace wfd::fd
