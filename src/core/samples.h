// f-resilient samples (paper Sect. 6.3), decidable for shipped detectors.
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
// produces sigma in (Pi x {d})^inf) — sample-ness is decidable per
// concrete detector family, because prefixes are unconstrained for every
// shipped detector (their axioms are purely eventual, except P whose
// prefix constraints are always satisfiable by choosing crash times) and
// the eventual constraint reduces to a set predicate — for the axiom
// families, d passing fd/axioms.h's range and stable-value rules with
// correct(F) = R:
//
//   Omega^k:  |d| = k  and  d intersects R       (eventual leader set
//                                                  contains a correct)
//   Upsilon^f:|d| >= n+1-f, d != R, d nonempty   (never the correct set)
//   stable anti-Omega: |d| = 1 and d != R
//   <>P / P:  d = Pi - R                         (eventually exactly the
//                                                  faulty set)
//   Dummy(c): d = c                              (trivially; for d = c
//                                                  EVERY sigma is a
//                                                  sample — the detector
//                                                  carries no failure
//                                                  information, so no
//                                                  phi map can exist)
//
// where R = correct(sigma). Tests use these to verify every shipped
// phi_D rigorously: phi_D(d) = (S, w) must make the constant-d sigma
// with correct(sigma) = S a NON-sample.
#pragma once

#include "common/proc_set.h"
#include "common/types.h"

namespace wfd::core {

enum class DetectorFamily {
  kOmegaK,
  kUpsilonF,
  kAntiOmegaStable,
  kEventuallyPerfect,
  kPerfect,
  kDummy,
};

struct ConstantSigma {
  ProcSet d;          // the constant detector value
  ProcSet recurring;  // correct(sigma)
};

// `param` is k for Omega^k, the constant's bits for Dummy, unused
// otherwise (pass 0). f is the environment's resilience.
bool isFResilientSample(DetectorFamily family, int n_plus_1, int f,
                        std::uint64_t param, const ConstantSigma& sigma);

}  // namespace wfd::core
