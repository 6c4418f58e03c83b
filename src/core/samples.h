// f-resilient samples (paper Sect. 6.3), decidable for stable detectors.
//
// A sequence sigma in (Pi x {d})^inf is an f-resilient sample of D if
// |correct(sigma)| >= n+1-f and there is a failure pattern F in E_f with
// correct(F) = correct(sigma), a history H in D(F) and times realizing
// sigma's queries. (We read the definition as fixing correct(F) =
// correct(sigma): the Lemma 8 and Theorem 10 proofs instantiate F with
// exactly the run's correct set, and phi_D's defining property is used
// under that binding.)
//
// For a *constant-value* sigma — the only shape Fig. 3 needs (Lemma 8
// produces sigma in (Pi x {d})^inf) — sample-ness reduces to one relation
// legal(d, R): may d be the permanent value when correct(F) = R? Prefixes
// are unconstrained (a legal history is in-range noise, then a legal
// stable value; P's prefix constraints are satisfiable by choosing crash
// times). For an axiom family, legal(d, R) is fd/axioms.h's range rule on
// d plus its stable-value rule against R (axiomLegal):
//
//   Omega^k:   |d| = k  and  d intersects R
//   Upsilon^f: |d| >= n+1-f  and  d != R
//   <>P / P:   d = Pi - R
//
// A detector is f-non-trivial iff no value it may output is legal under
// every admissible R; for the dummy detector (legal(d, R) iff d = c)
// every sigma with d = c is a sample, so no phi_D exists.
#pragma once

#include <functional>

#include "common/proc_set.h"
#include "common/types.h"
#include "fd/failure_detector.h"

namespace wfd::core {

// legal(d, R): d may be D's permanent output when correct(F) = R.
using Legal = std::function<bool(const ProcSet& d, const ProcSet& r)>;

// fd/axioms.h's range and stable-value rules of `spec` as a relation.
Legal axiomLegal(const fd::AxiomSpec& spec, int n_plus_1);

struct ConstantSigma {
  ProcSet d;          // the constant detector value
  ProcSet recurring;  // correct(sigma)
};

// f is the environment's resilience.
bool isFResilientSample(const Legal& legal, int n_plus_1, int f,
                        const ConstantSigma& sigma);

}  // namespace wfd::core
