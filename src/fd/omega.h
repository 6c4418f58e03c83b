// Omega and Omega^k (Chandra–Hadzilacos–Toueg [3]; Neiger's Omega_n [18]).
//
// Omega^k outputs a set of exactly k processes such that eventually the
// same set, containing at least one correct process, is permanently output
// at all correct processes. Omega is Omega^1 (we encode the leader as a
// singleton set). The paper compares Upsilon against Omega_n (Theorem 1)
// and Upsilon^f against Omega^f (Theorem 5), and uses Omega^f -> Upsilon^f
// (complementation) as the easy direction of both.
#pragma once

#include "fd/failure_detector.h"

namespace wfd::fd {

class OmegaKFd final : public FailureDetector {
 public:
  struct Params {
    ProcSet stable_leaders;  // size k, containing >= 1 correct process
    Time stab_time = 0;
    std::uint64_t noise_seed = 0;
  };

  OmegaKFd(const FailurePattern& fp, int k, Params p);

  ProcSet query(Pid p, Time t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Time stabilizationTime() const override {
    return params_.stab_time;
  }
  [[nodiscard]] AxiomSpec axioms() const override {
    return {AxiomSpec::Family::kOmegaK, k_};
  }
  [[nodiscard]] std::uint64_t keyDigest() const override;

  [[nodiscard]] int k() const { return k_; }

  // A legal stable output: the lowest-id correct process plus the k-1
  // lowest-id other processes.
  static ProcSet defaultLeaders(const FailurePattern& fp, int k);

 private:
  int n_plus_1_;
  int k_;
  Params params_;
};

FdPtr makeOmega(const FailurePattern& fp, Time stab_time,
                std::uint64_t noise_seed = 0);
FdPtr makeOmegaK(const FailurePattern& fp, int k, Time stab_time,
                 std::uint64_t noise_seed = 0);
FdPtr makeOmegaK(const FailurePattern& fp, int k, ProcSet leaders,
                 Time stab_time, std::uint64_t noise_seed = 0);

}  // namespace wfd::fd
