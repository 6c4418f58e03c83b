// Realized failure detectors: heartbeat executions as FD histories.
//
// A scripted detector (fd/upsilon.h, fd/omega.h, fd/perfect.h) *asserts*
// a history; a realized detector *earns* one: simulateHeartbeats runs
// the increasing-timeout protocol (net/heartbeat.h) over the faulty
// message substrate (net/net_world.h) and records, per process, the
// full piecewise-constant suspicion history. RealizedFd then serves
// query(p, t) by binary search over the recorded switch points — a pure
// function of (p, t), exactly what the FailureDetector contract and the
// step auditor's monotonicity rule require — through one of three
// lenses over the same execution:
//
//   kEventuallyPerfect  H(p,t) = suspected_p(t)            (◊P)
//   kOmega              H(p,t) = { min not-suspected }     (Omega)
//   kUpsilon            H(p,t) = Pi \ { min not-suspected } (Upsilon^f)
//
// Post-GST the suspicions converge to exactly faulty(F), so the lenses
// stabilize on faulty(F), {min correct(F)}, and Pi \ {min correct(F)}.
// The Upsilon value has size n >= n+1-f for every f >= 1 and can never
// equal correct(F) (its excluded leader is correct), so the SAME
// heartbeat execution yields legal histories of all three families —
// and stabilizationTime() is *computed* from the recorded history (the
// last tick any process's lens value differed from the stable one), so
// the online axiom checker certifies realized runs with zero slack.
//
// Queries beyond the simulated horizon clamp to the final value; the
// construction throws SimAbort if the suspicions had not converged to
// faulty(F) by the horizon (raise NetConfig::horizon).
#pragma once

#include <memory>

#include "fd/failure_detector.h"
#include "sim/net/net_world.h"

namespace wfd::sim::net {

// One complete simulated heartbeat execution, shared by every lens cut
// from it (immutable after construction; safe across threads).
struct NetHistory {
  int n_plus_1 = 0;
  FailurePattern fp;
  NetConfig cfg;
  Time horizon = 0;
  std::vector<std::vector<OutputSwitch>> switches;  // per pid, time-sorted
  NetCounters counters;
  std::uint64_t digest = 0;  // pins (cfg, fp)

  // suspected_p(min(t, horizon)): binary search over p's switch list.
  [[nodiscard]] ProcSet suspectedAt(Pid p, Time t) const;

  NetHistory(int n, FailurePattern pattern, const NetConfig& config)
      : n_plus_1(n), fp(std::move(pattern)), cfg(config) {}
};

using NetHistoryPtr = std::shared_ptr<const NetHistory>;

// Run the heartbeat protocol over the configured substrate and record
// the execution. Throws SimAbort if any correct process's final
// suspicion set differs from faulty(fp) at the horizon.
[[nodiscard]] NetHistoryPtr simulateHeartbeats(const FailurePattern& fp,
                                               const NetConfig& cfg);

enum class RealizedLens { kEventuallyPerfect, kOmega, kUpsilon };

class RealizedFd final : public fd::FailureDetector {
 public:
  // `f` parameterizes the Upsilon lens's axiom claim (must be >= 1, else
  // SimAbort); ignored by the other lenses.
  RealizedFd(NetHistoryPtr history, RealizedLens lens, int f);

  ProcSet query(Pid p, Time t) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Time stabilizationTime() const override { return stab_; }
  [[nodiscard]] fd::AxiomSpec axioms() const override;
  [[nodiscard]] std::uint64_t keyDigest() const override;

  [[nodiscard]] const NetHistory& history() const { return *history_; }
  [[nodiscard]] RealizedLens lens() const { return lens_; }
  // The value every live process's lens output converges to.
  [[nodiscard]] const ProcSet& stableValue() const { return stable_; }

 private:
  NetHistoryPtr history_;
  RealizedLens lens_;
  int f_;
  ProcSet stable_;
  Time stab_ = 0;  // computed: first tick from which every answer == stable_
};

[[nodiscard]] fd::FdPtr makeRealizedEventuallyPerfect(NetHistoryPtr history);
[[nodiscard]] fd::FdPtr makeRealizedOmega(NetHistoryPtr history);
[[nodiscard]] fd::FdPtr makeRealizedUpsilon(NetHistoryPtr history, int f);

}  // namespace wfd::sim::net
