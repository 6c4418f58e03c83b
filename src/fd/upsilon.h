// Upsilon and Upsilon^f (paper Sect. 4 and 5.3).
//
// Upsilon^f outputs a set of at least n+1-f processes such that eventually
// (1) the same set U is permanently output at all correct processes, and
// (2) U != correct(F). Upsilon is Upsilon^n: any non-empty set works.
//
// A constructed instance is one *history* H in Upsilon^f(F): before
// `stab_time` it emits arbitrary legal-range noise (possibly different at
// different processes, changing over time — the paper stresses Upsilon
// "might provide random information for an arbitrarily long period");
// from `stab_time` on it emits the stable set U at every process.
#pragma once

#include "fd/failure_detector.h"

namespace wfd::fd {

class UpsilonFd final : public FailureDetector {
 public:
  struct Params {
    ProcSet stable_set;          // U; must satisfy the axioms for (F, f)
    Time stab_time = 0;          // first time the output is guaranteed stable
    std::uint64_t noise_seed = 0;  // pre-stab noise differs across pids
    // Pre-stabilization noise holds each value for this many time units.
    // 1 = flap every step (algorithms mostly see "unstable" and burn
    // rounds); larger values make misleading sets look temporarily stable,
    // which drives runs deep into the gladiator/citizen machinery.
    Time noise_hold = 1;
  };

  // f: resilience; Upsilon proper is f == n (n_plus_1 - 1).
  UpsilonFd(const FailurePattern& fp, int f, Params p);

  ProcSet query(Pid p, Time t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Time stabilizationTime() const override { return params_.stab_time; }
  [[nodiscard]] AxiomSpec axioms() const override {
    return {AxiomSpec::Family::kUpsilonF, f_};
  }
  [[nodiscard]] std::uint64_t keyDigest() const override;

  [[nodiscard]] const ProcSet& stableSet() const { return params_.stable_set; }
  [[nodiscard]] int f() const { return f_; }

  // A legal stable set for (fp, f): Pi if some process is faulty, else
  // Pi minus its largest-id member (size n >= n+1-f for any f >= 1).
  static ProcSet defaultStableSet(const FailurePattern& fp, int f);

 private:
  int n_plus_1_;
  int f_;
  Params params_;
};

// Convenience factories.
FdPtr makeUpsilon(const FailurePattern& fp, Time stab_time,
                  std::uint64_t noise_seed = 0);
FdPtr makeUpsilon(const FailurePattern& fp, ProcSet stable_set, Time stab_time,
                  std::uint64_t noise_seed = 0);
FdPtr makeUpsilonF(const FailurePattern& fp, int f, Time stab_time,
                   std::uint64_t noise_seed = 0);
FdPtr makeUpsilonF(const FailurePattern& fp, int f, ProcSet stable_set,
                   Time stab_time, std::uint64_t noise_seed = 0);
FdPtr makeUpsilonWithParams(const FailurePattern& fp, int f,
                            UpsilonFd::Params p);

}  // namespace wfd::fd
