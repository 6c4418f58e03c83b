#include "core/phi_maps.h"

#include <algorithm>
#include <cassert>

#include "fd/axioms.h"

namespace wfd::core {

PhiPtr derivePhi(const Legal& legal, int n_plus_1, int f, int w) {
  assert(n_plus_1 >= 1 && n_plus_1 <= 16 && "a 2^(n+1)-row table");
  const std::uint64_t values = std::uint64_t{1} << n_plus_1;
  // The candidate correct sets in search order.
  std::vector<ProcSet> order;
  for (std::uint64_t bits = 1; bits < values; ++bits) {
    order.push_back(ProcSet::fromBits(bits));
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const ProcSet& a, const ProcSet& b) {
                     return a.size() > b.size();
                   });
  std::vector<PhiResult> rows(values);
  for (std::uint64_t bits = 0; bits < values; ++bits) {
    const ProcSet d = ProcSet::fromBits(bits);
    for (const ProcSet& r : order) {
      if (r.size() < n_plus_1 - f) break;  // no admissible R is left
      if (!isFResilientSample(legal, n_plus_1, f, {d, r})) {
        rows[bits] = {r, w};
        break;
      }
    }
  }
  return std::make_shared<const Phi>(std::move(rows));
}

PhiPtr phiOmegaK(int n_plus_1) {
  // Omega^k's stable-value rule does not read k.
  const fd::AxiomSpec omega{fd::AxiomSpec::Family::kOmegaK, 0};
  return derivePhi(
      [omega, n_plus_1](const ProcSet& d, const ProcSet& r) {
        return fd::stableViolation(omega, n_plus_1, d, r).empty();
      },
      n_plus_1, n_plus_1 - 1, 0);
}

}  // namespace wfd::core
