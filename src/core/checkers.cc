#include "core/checkers.h"

#include <algorithm>
#include <array>

#include "fd/axioms.h"

// Every checker reads the run's events in place and keeps its per-process
// state in fixed arrays: a passing run is checked without touching the
// heap (tests/alloc_test.cc), and only a violation builds a string.

namespace wfd::core {

namespace {

// Shared stabilization harvest: final published value per correct
// process, equality across them, and the last change time.
EmulationReport harvestPublished(const RunResult& rr) {
  EmulationReport rep;
  const auto& fp = rr.world->pattern();
  const ProcSet correct = fp.correct();
  const int n_plus_1 = fp.nProcs();
  const Time now = rr.world->now();

  // The last kPublish value per process at or before now (⊥ if none), as
  // Trace::publishedAt reads it, and the last change at a correct process.
  const RegVal bottom;
  std::array<const RegVal*, kMaxProcs> finals;
  finals.fill(&bottom);
  for (const sim::Event& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kPublish) continue;
    if (correct.contains(e.pid)) rep.last_change = e.time;
    if (e.time <= now && e.pid >= 0 && e.pid < n_plus_1) {
      finals[static_cast<std::size_t>(e.pid)] = &e.value;
    }
  }

  const Pid w = correct.min();
  const RegVal& fv = *finals[static_cast<std::size_t>(w)];
  rep.stabilized = !fv.isBottom();
  for (const Pid p : correct) {
    const RegVal& pv = *finals[static_cast<std::size_t>(p)];
    if (pv != fv) {
      rep.stabilized = false;
      rep.violation = "correct processes disagree: p" + std::to_string(p + 1) +
                      " has " + pv.toString() + ", p" +
                      std::to_string(w + 1) + " has " + fv.toString();
    }
  }
  if (rep.stabilized && fv.isSet()) rep.stable_value = fv.asSet();
  return rep;
}

// The harvested stable value against the target family's range and
// stable-value rules.
EmulationReport judgeEmulated(const RunResult& rr, const fd::AxiomSpec& spec) {
  EmulationReport rep = harvestPublished(rr);
  if (!rep.stabilized) return rep;
  const auto& fp = rr.world->pattern();
  std::string why = fd::rangeViolation(spec, fp.nProcs(), rep.stable_value);
  if (why.empty()) {
    why = fd::stableViolation(spec, fp.nProcs(), rep.stable_value,
                              fp.correct());
  }
  rep.legal = why.empty();
  if (!rep.legal) {
    rep.violation =
        "emulated output " + rep.stable_value.toString() + " " + why;
  }
  return rep;
}

}  // namespace

AgreementReport checkKSetAgreement(const RunResult& rr, int k,
                                   const std::vector<Value>& proposals) {
  AgreementReport rep;
  const auto& fp = rr.world->pattern();

  // Termination: every correct process decided.
  rep.termination = true;
  for (const Pid p : fp.correct()) {
    if (!rr.decisions.contains(p)) {
      rep.termination = false;
      rep.violation = "correct p" + std::to_string(p + 1) + " never decided";
    }
  }

  // Validity + decide-once from the raw decide events.
  rep.validity = true;
  rep.decide_once = true;
  ProcSet decided;
  for (const sim::Event& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kDecide) continue;
    if (decided.contains(e.pid)) {
      rep.decide_once = false;
      rep.violation = "p" + std::to_string(e.pid + 1) + " decided twice";
    }
    decided.insert(e.pid);
    if (std::find(proposals.begin(), proposals.end(), e.value.asInt()) ==
        proposals.end()) {
      rep.validity = false;
      rep.violation = "decided value " + e.value.toString() + " not proposed";
    }
  }

  rep.distinct = rr.distinctDecisions();
  rep.agreement = rep.distinct <= k;
  if (!rep.agreement) {
    rep.violation = std::to_string(rep.distinct) + " distinct decisions > k=" +
                    std::to_string(k);
  }
  return rep;
}

EmulationReport checkEmulatedUpsilonF(const RunResult& rr, int f) {
  return judgeEmulated(rr, {fd::AxiomSpec::Family::kUpsilonF, f});
}

EmulationReport checkEmulatedOmega(const RunResult& rr) {
  return judgeEmulated(rr, {fd::AxiomSpec::Family::kOmegaK, 1});
}

}  // namespace wfd::core
