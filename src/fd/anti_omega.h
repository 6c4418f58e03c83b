// anti-Omega (Zielinski [22,23], discussed in the paper's related work).
//
// anti-Omega outputs one process id per query such that some correct
// process is eventually never output. We ship its *stable* variant: the
// output eventually stabilizes on a singleton {q} with {q} != correct(F)
// — which is exactly Upsilon restricted to singleton outputs, a pleasing
// structural fact the tests verify (every stable anti-Omega history is a
// legal Upsilon history).
#pragma once

#include "fd/failure_detector.h"

namespace wfd::fd {

class AntiOmegaFd final : public FailureDetector {
 public:
  struct Params {
    Pid stable_pid = 0;  // q; {q} must differ from correct(F)
    Time stab_time = 0;
    std::uint64_t noise_seed = 0;
  };

  AntiOmegaFd(const FailurePattern& fp, Params p);

  ProcSet query(Pid p, Time t) const override;
  [[nodiscard]] std::string name() const override { return "anti-Omega"; }
  [[nodiscard]] Time stabilizationTime() const override {
    return params_.stab_time;
  }
  // Every stable anti-Omega history is an Upsilon (= Upsilon^n) history.
  [[nodiscard]] AxiomSpec axioms() const override {
    return {AxiomSpec::Family::kUpsilonF, n_plus_1_ - 1};
  }
  [[nodiscard]] std::uint64_t keyDigest() const override;

  // A legal stable pid: any faulty process if one exists; otherwise any
  // process (since |correct| = n+1 >= 2 > 1 = |{q}|).
  static Pid defaultStablePid(const FailurePattern& fp);

 private:
  int n_plus_1_;
  Params params_;
};

FdPtr makeAntiOmega(const FailurePattern& fp, Time stab_time,
                    std::uint64_t noise_seed = 0);

}  // namespace wfd::fd
