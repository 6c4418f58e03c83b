#include "fd/axioms.h"

#include <algorithm>

#include "common/rng.h"

namespace wfd::fd {

std::string rangeViolation(const AxiomSpec& spec, int n_plus_1,
                           const ProcSet& answer) {
  switch (spec.family) {
    case AxiomSpec::Family::kUpsilonF: {
      const int min_size = minLegalSize(spec, n_plus_1);
      if (answer.size() >= min_size) return {};
      return "Upsilon^f outputs non-empty sets of size >= n+1-f = " +
             std::to_string(min_size);
    }
    case AxiomSpec::Family::kOmegaK:
      if (answer.size() == spec.param) return {};
      return "Omega^k outputs sets of size exactly k = " +
             std::to_string(spec.param);
    case AxiomSpec::Family::kEventuallyPerfect:
    case AxiomSpec::Family::kNone:
      return {};
  }
  return {};
}

std::string stableViolation(const AxiomSpec& spec, int n_plus_1,
                            const ProcSet& stable, const ProcSet& correct) {
  switch (spec.family) {
    case AxiomSpec::Family::kUpsilonF:
      if (stable != correct) return {};
      return "equals correct(F) — Upsilon's non-triviality axiom requires "
             "the stable set to differ from the correct set";
    case AxiomSpec::Family::kOmegaK:
      if (!stable.intersect(correct).empty()) return {};
      return "contains no correct process — Omega^k's stable set must "
             "include at least one";
    case AxiomSpec::Family::kEventuallyPerfect: {
      const ProcSet faulty = correct.complement(n_plus_1);
      if (stable == faulty) return {};
      return "is not faulty(F) = " + faulty.toString() +
             " — <>P must eventually suspect exactly the faulty processes "
             "(strong completeness + eventual strong accuracy)";
    }
    case AxiomSpec::Family::kNone:
      return {};
  }
  return {};
}

int minLegalSize(const AxiomSpec& spec, int n_plus_1) {
  switch (spec.family) {
    case AxiomSpec::Family::kUpsilonF:
      return std::max(1, n_plus_1 - spec.param);
    case AxiomSpec::Family::kOmegaK:
      return std::max(1, spec.param);
    case AxiomSpec::Family::kEventuallyPerfect:
      return 0;  // any suspicion set — even empty — is in range pre-stab
    case AxiomSpec::Family::kNone:
      return 1;
  }
  return 1;
}

ProcSet legalNoise(const AxiomSpec& spec, int n_plus_1, std::uint64_t seed,
                   std::uint64_t salt, Time t) {
  const auto twice_t = 2 * static_cast<std::uint64_t>(t);
  const ProcSet all = ProcSet::full(n_plus_1);
  if (spec.family == AxiomSpec::Family::kEventuallyPerfect) {
    return ProcSet::fromBits(
        hashedUniform(seed, salt, twice_t, ~std::uint64_t{0}) & all.bits());
  }
  const auto base = static_cast<int>(hashedUniform(
      seed, salt, twice_t, static_cast<std::uint64_t>(n_plus_1)));
  ProcSet s;
  for (int i = 0; i < minLegalSize(spec, n_plus_1); ++i) {
    s.insert((base + i) % n_plus_1);
  }
  if (spec.family == AxiomSpec::Family::kUpsilonF) {
    s = s.unionWith(ProcSet::fromBits(
        hashedUniform(seed, salt, twice_t + 1, ~std::uint64_t{0}) &
        all.bits()));
  }
  return s;
}

AxiomReport checkHistory(const FailureDetector& fd, const FailurePattern& fp,
                         const AxiomSpec& spec, Time horizon) {
  const int n_plus_1 = fp.nProcs();
  for (Time t = 0; t <= horizon; ++t) {
    for (Pid p = 0; p < n_plus_1; ++p) {
      const ProcSet s = fd.query(p, t);
      const std::string why = rangeViolation(spec, n_plus_1, s);
      if (!why.empty()) {
        return {false, "H(p" + std::to_string(p + 1) + "," +
                           std::to_string(t) + ") = " + s.toString() + ": " +
                           why};
      }
    }
  }
  // Eventual constancy at the correct processes over [witness, horizon].
  const Time from = fd.stabilizationTime();
  if (from > horizon) {
    return {false, "stabilization witness " + std::to_string(from) +
                       " beyond horizon " + std::to_string(horizon)};
  }
  const ProcSet correct = fp.correct();
  const ProcSet stable = fd.query(correct.min(), from);
  for (Time t = from; t <= horizon; ++t) {
    for (Pid p : correct.members()) {
      const ProcSet got = fd.query(p, t);
      if (got != stable) {
        return {false, "history not stable: H(p" + std::to_string(p + 1) +
                           "," + std::to_string(t) + ") = " + got.toString() +
                           " vs " + stable.toString()};
      }
    }
  }
  const std::string why = stableViolation(spec, n_plus_1, stable, correct);
  if (!why.empty()) {
    return {false, "stable set " + stable.toString() + " " + why};
  }
  return {};
}

AxiomReport checkStrongAccuracy(const FailureDetector& fd,
                                const FailurePattern& fp, Time horizon) {
  for (Time t = 0; t <= horizon; ++t) {
    for (Pid p = 0; p < fp.nProcs(); ++p) {
      const ProcSet s = fd.query(p, t);
      if (!s.minus(fp.crashedBy(t)).empty()) {
        return {false, "P suspected a live process at t=" + std::to_string(t) +
                           ": " + s.toString()};
      }
    }
  }
  return {};
}

}  // namespace wfd::fd
