// Failure detector oracles (paper Sect. 3.2).
//
// A failure detector D maps each failure pattern F to a set of histories
// D(F); a history H gives the module output H(p, t). This library fixes
// the range of every shipped detector to ProcSet: Upsilon/Upsilon^f output
// process sets by definition, Omega outputs a singleton set {leader}, and
// Omega^k a k-sized set — so reductions can relay outputs through shared
// registers without type erasure.
//
// An implementation *is* one history for one failure pattern: query(p, t)
// must be a pure function of (p, t) given construction parameters, so that
// re-querying is consistent no matter how the scheduler interleaves steps.
// Axiom checkers that certify a generated history really belongs to D(F)
// live in fd/axioms.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/proc_set.h"
#include "common/types.h"
#include "sim/failure_pattern.h"

namespace wfd::fd {

using sim::FailurePattern;

// Sentinel keyDigest() value: this history cannot be pinned by a digest
// (opaque scripted/mapped functions). Runs using such a detector are
// excluded from whole-run memoization (sim/report_cache.h).
inline constexpr std::uint64_t kOpaqueFdDigest = 0;

// Detector digests fold the common mix round (common/types.h), so they
// compose with the trace-hash machinery; benchmarks and tests call it as
// fd::mixDigest.
using wfd::mixDigest;

// A pattern pins the perfect-information detectors (P, <>P) completely,
// and disambiguates histories whose factories derived defaults from it.
[[nodiscard]] inline std::uint64_t digestPattern(std::uint64_t h,
                                                 const FailurePattern& fp) {
  h = mixDigest(h, static_cast<std::uint64_t>(fp.nProcs()));
  for (Pid p = 0; p < fp.nProcs(); ++p) {
    h = mixDigest(h, static_cast<std::uint64_t>(fp.crashTime(p)));
  }
  return h;
}

// What a detector instance claims about its own history, machine-readably:
// the axiom family its outputs promise to satisfy, plus the family
// parameter (f for Upsilon^f, k for Omega^k). What each family allows is
// written once, in fd/axioms.h; the online axiom checker in
// sim/step_audit.h applies it to every query() answer as it is produced.
// kNone opts a detector out (scripted/adversarial histories whose whole
// point is to sit outside any family).
struct AxiomSpec {
  enum class Family { kNone, kUpsilonF, kOmegaK, kEventuallyPerfect };
  Family family = Family::kNone;
  int param = 0;  // f (Upsilon^f) or k (Omega^k); unused otherwise
};

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  // H(p, t): the value of p's module at time t. Must be deterministic.
  virtual ProcSet query(Pid p, Time t) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // The time by which this particular history has provably stabilized
  // (kNeverCrashes if the detector gives no such bound). Tests use it to
  // pick run budgets; algorithms must never look at it.
  [[nodiscard]] virtual Time stabilizationTime() const = 0;

  // The axiom family this history claims to satisfy; kNone = unchecked.
  [[nodiscard]] virtual AxiomSpec axioms() const { return {}; }

  // Stable 64-bit digest of this history's construction parameters
  // (stable set, stabilization time, noise seed, pattern, ...). Two
  // instances whose histories can differ ANYWHERE must digest
  // differently: sim::ReportCache keys memoized whole-run summaries on
  // it, so a collision would serve one cell's result for another. The
  // default is kOpaqueFdDigest — uncacheable — so detector classes must
  // opt in by overriding; scripted/mapped histories wrapping opaque
  // callables stay opted out by construction.
  [[nodiscard]] virtual std::uint64_t keyDigest() const {
    return kOpaqueFdDigest;
  }
};

using FdPtr = std::shared_ptr<const FailureDetector>;

}  // namespace wfd::fd
