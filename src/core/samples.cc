#include "core/samples.h"

#include "fd/axioms.h"

namespace wfd::core {

bool isFResilientSample(DetectorFamily family, int n_plus_1, int f,
                        std::uint64_t param, const ConstantSigma& sigma) {
  const ProcSet& d = sigma.d;
  const ProcSet& r = sigma.recurring;
  // Structural requirements common to every sample: enough recurring
  // processes, and a realizable failure pattern with correct(F) = R.
  if (r.size() < n_plus_1 - f) return false;
  if (r.empty() || !r.subsetOf(ProcSet::full(n_plus_1))) return false;
  if (r.complement(n_plus_1).size() > f) return false;  // F must be in E_f

  // A constant history d is legal for a family iff d obeys its range rule
  // and may be the permanent value when correct(F) = R.
  const auto legal = [&](fd::AxiomSpec spec) {
    return fd::rangeViolation(spec, n_plus_1, d).empty() &&
           fd::stableViolation(spec, n_plus_1, d, r).empty();
  };
  using Family = fd::AxiomSpec::Family;
  switch (family) {
    case DetectorFamily::kOmegaK:
      return legal({Family::kOmegaK, static_cast<int>(param)});
    case DetectorFamily::kUpsilonF:
      return legal({Family::kUpsilonF, f});
    case DetectorFamily::kAntiOmegaStable:
      return d.size() == 1 && legal({Family::kUpsilonF, n_plus_1 - 1});
    case DetectorFamily::kEventuallyPerfect:
    case DetectorFamily::kPerfect:
      return legal({Family::kEventuallyPerfect, 0});
    case DetectorFamily::kDummy:
      return d == ProcSet::fromBits(param);
  }
  return false;
}

}  // namespace wfd::core
