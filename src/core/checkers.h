// Trace checkers: machine-verified task and emulation properties.
//
// Each checker consumes a RunResult (or, for k-converge, a run's or an
// explored outcome's events) and certifies the exact properties the
// paper's theorem statements promise, so tests, benches and tools share
// one notion of "correct":
//   checkKSetAgreement     k-set agreement (Sect. 5.1)
//   checkKConverge         k-converge: C-Validity, C-Agreement, Convergence
//   checkEmulatedUpsilonF  an emulated Upsilon^f output (reductions, Fig. 3)
//   checkEmulatedOmega     an emulated Omega output
#pragma once

#include <string>
#include <vector>

#include "core/kconverge.h"
#include "sim/runner.h"

namespace wfd::core {

using sim::RunResult;
using sim::Time;

// ---- k-set agreement (paper Sect. 5.1) ----
struct AgreementReport {
  bool termination = false;  // every correct process decided
  bool validity = false;     // decided values were proposed
  bool agreement = false;    // at most k distinct decisions
  bool decide_once = false;  // no process decided twice
  int distinct = 0;
  std::string violation;

  [[nodiscard]] bool ok() const {
    return termination && validity && agreement && decide_once;
  }
};

AgreementReport checkKSetAgreement(const RunResult& rr, int k,
                                   const std::vector<Value>& proposals);

// ---- k-converge (paper Sect. 5.1, core/kconverge.h) ----
// A process's pick is its last "commit" or "adopt" note (kConvergeTask
// notes one per process). Termination is the run's all_correct_done.
struct ConvergeReport {
  bool validity = false;     // C-Validity: every pick was proposed
  bool agreement = false;    // C-Agreement: a commit caps picks at k values
  bool convergence = false;  // <= k distinct proposals: every pick commits
  int picks = 0;             // processes that picked
  int commits = 0;           // ... and committed
  int distinct = 0;          // distinct picked values
  std::string violation;

  [[nodiscard]] bool ok() const {
    return validity && agreement && convergence;
  }
};

// Reads the events of a run or of an ExploreOutcome, in any order across
// processes.
ConvergeReport checkKConverge(const std::vector<sim::Event>& events, int k,
                              const std::vector<Value>& proposals);

// The picks of processes 0..n-1 (Pick{} for a process that made none):
// the schedule-invariant outcome harnesses compare as sets.
std::vector<Pick> picksOf(const std::vector<sim::Event>& events, int n);

// ---- Emulated failure detector outputs (reductions, Fig. 3) ----
struct EmulationReport {
  bool stabilized = false;   // same final value at all correct processes,
                             // unchanged after last_change
  bool legal = false;        // final value satisfies the target FD's axioms
  ProcSet stable_value;
  Time last_change = 0;      // last publish change at a correct process
  std::string violation;

  [[nodiscard]] bool ok() const { return stabilized && legal; }
};

// The emulated stable output must obey Upsilon^f's range and stable-value
// rules (fd/axioms.h): a non-empty set of size >= n+1-f, != correct(F).
EmulationReport checkEmulatedUpsilonF(const RunResult& rr, int f);

// The same for Omega = Omega^1: a singleton {q} with q correct.
EmulationReport checkEmulatedOmega(const RunResult& rr);

}  // namespace wfd::core
