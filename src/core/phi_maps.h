// The map phi_D of Corollary 9, derived from D's axioms.
//
// For an f-non-trivial failure detector D, phi_D carries each output
// value d to (correct(sigma), w(sigma)) for some sequence sigma in
// (Pi x {d})* that is NOT an f-resilient sample of D: a run in which the
// processes of correct(sigma) run forever observing d (after the
// processes outside it take w(sigma) "batches" of steps) is incompatible
// with D's axioms. The paper's proof of Theorem 10 only needs phi_D to
// *exist*; for a finite Pi that existence proof is a finite search over
// correct sets, and derivePhi runs it: for every d it designates the first
// admissible R (|R| descending, then ascending bit pattern) under which
// the constant-d sigma is not a sample (core/samples.h). By Lemma 7 a
// non-sample stays one with a larger w, so w is a free argument; w > 0
// only delays extraction and exercises Fig. 3's batch machinery.
#pragma once

#include <memory>
#include <vector>

#include "common/proc_set.h"
#include "common/types.h"
#include "core/samples.h"

namespace wfd::core {

struct PhiResult {
  ProcSet correct_sigma;  // correct(sigma); |.| >= n+1-f
  int w = 0;              // w(sigma): batches of steps of Pi-correct(sigma)
};

// phi_D as an immutable table indexed by d's bit pattern, built once and
// shared read-only (Fig. 3 looks up a row per round; batch workers share
// one table).
class Phi {
 public:
  explicit Phi(std::vector<PhiResult> rows) : rows_(std::move(rows)) {}

  // The designation for d, or nullptr when every admissible correct set
  // allows d as a stable value (no constant-d sigma is a non-sample) or d
  // lies outside the Pi the table was derived for.
  [[nodiscard]] const PhiResult* find(const ProcSet& d) const {
    if (d.bits() >= rows_.size()) return nullptr;
    const PhiResult& r = rows_[d.bits()];
    return r.correct_sigma.empty() ? nullptr : &r;
  }

 private:
  std::vector<PhiResult> rows_;
};

using PhiPtr = std::shared_ptr<const Phi>;

// Corollary 9 as a search: phi_D(d) = (R, w) for the first R in the order
// above with |R| >= n+1-f and !legal(d, R).
PhiPtr derivePhi(const Legal& legal, int n_plus_1, int f, int w);

// phi for Omega^k in E_f (k <= f), derived from Omega's k-free
// stable-value rule (d contains a correct process) at f = n: Pi - d for
// every d != Pi. d = Pi gets no designation; no Omega^k with k <= n
// outputs it. With k = 1 this is phi_Omega.
PhiPtr phiOmegaK(int n_plus_1);

}  // namespace wfd::core
