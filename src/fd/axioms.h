// The detector axioms: the one place that knows what each AxiomSpec
// family allows.
//
// Every experiment's conclusion hinges on the failure detector history
// being *legal*, H in D(F) — a set-agreement run "solved with Upsilon"
// proves nothing if the history violated Upsilon's axioms. Each family's
// definition splits into two rules, written once here:
//   range rule (every answer, at every process and time, stabilized or
//   not):
//     Upsilon^f: non-empty, size >= n+1-f.
//     Omega^k:   size exactly k.
//     <>P:       any set.
//   stable-value rule (the value every correct process eventually outputs
//   permanently, judged against the final correct(F)):
//     Upsilon^f: != correct(F).
//     Omega^k:   contains a correct process.
//     <>P:       == faulty(F).
// kNone constrains nothing. Consumers: the offline checkers below, the
// online auditor (sim/step_audit.h), chaos noise (sim/chaos.h), the
// emulation checks (core/checkers.h), the f-resilient sample predicate
// (core/samples.h) and the Upsilon^f / Omega^k constructors.
#pragma once

#include <cstdint>
#include <string>

#include "fd/failure_detector.h"

namespace wfd::fd {

// Why `answer` breaks the range rule; empty (and allocation-free) when it
// is in range.
std::string rangeViolation(const AxiomSpec& spec, int n_plus_1,
                           const ProcSet& answer);

// Why `stable` may not be the permanent value under correct set `correct`;
// empty when it may. Reads after the value: "{p1} contains no correct
// process — ...". The stable value must also pass rangeViolation.
std::string stableViolation(const AxiomSpec& spec, int n_plus_1,
                            const ProcSet& stable, const ProcSet& correct);

// Smallest answer size the range rule allows (0 for <>P).
int minLegalSize(const AxiomSpec& spec, int n_plus_1);

// In-range noise for (salt, t): a pure function of its arguments, as every
// history must be. Upsilon^f: a cyclic block of minLegalSize members plus
// random extras; Omega^k: the cyclic block alone; <>P: a random subset.
ProcSet legalNoise(const AxiomSpec& spec, int n_plus_1, std::uint64_t seed,
                   std::uint64_t salt, Time t);

struct AxiomReport {
  bool ok = true;
  std::string violation;  // human-readable first failure
};

// Offline certification of one history against `spec` over [0, horizon]:
// the range rule at every process and time, eventual constancy at the
// correct processes from the witness fd.stabilizationTime() on, and the
// stable-value rule. With kNone only constancy is checked.
AxiomReport checkHistory(const FailureDetector& fd, const FailurePattern& fp,
                         const AxiomSpec& spec, Time horizon);

// P's strong accuracy over [0, horizon]: no process is suspected before
// it crashes (completeness is checkHistory's <>P stable-value rule).
AxiomReport checkStrongAccuracy(const FailureDetector& fd,
                                const FailurePattern& fp, Time horizon);

}  // namespace wfd::fd
