#include "core/samples.h"

#include "fd/axioms.h"

namespace wfd::core {

Legal axiomLegal(const fd::AxiomSpec& spec, int n_plus_1) {
  return [spec, n_plus_1](const ProcSet& d, const ProcSet& r) {
    return fd::rangeViolation(spec, n_plus_1, d).empty() &&
           fd::stableViolation(spec, n_plus_1, d, r).empty();
  };
}

bool isFResilientSample(const Legal& legal, int n_plus_1, int f,
                        const ConstantSigma& sigma) {
  const ProcSet& r = sigma.recurring;
  // Structural requirements common to every sample: a realizable failure
  // pattern in E_f with correct(F) = R (|R| >= n+1-f, so |Pi - R| <= f).
  if (r.empty() || !r.subsetOf(ProcSet::full(n_plus_1))) return false;
  if (r.size() < n_plus_1 - f) return false;
  return legal(sigma.d, r);
}

}  // namespace wfd::core
