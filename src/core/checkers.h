// Trace checkers: machine-verified task and emulation properties.
//
// Each checker consumes a RunResult and certifies the exact properties
// the paper's theorem statements promise, so tests and benches share one
// notion of "correct".
#pragma once

#include <string>
#include <vector>

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
