#include "core/checkers.h"

#include <map>
#include <set>

#include "fd/axioms.h"

namespace wfd::core {

namespace {

// Shared stabilization harvest: final published value per correct
// process, equality across them, and the last change time.
EmulationReport harvestPublished(const RunResult& rr) {
  EmulationReport rep;
  const auto& fp = rr.world->pattern();
  const ProcSet correct = fp.correct();
  const int n_plus_1 = fp.nProcs();
  const auto finals = rr.trace().publishedAt(rr.world->now(), n_plus_1);

  const Pid w = correct.min();
  const RegVal& fv = finals[static_cast<std::size_t>(w)];
  rep.stabilized = !fv.isBottom();
  for (Pid p : correct.members()) {
    if (finals[static_cast<std::size_t>(p)] != fv) {
      rep.stabilized = false;
      rep.violation = "correct processes disagree: p" + std::to_string(p + 1) +
                      " has " + finals[static_cast<std::size_t>(p)].toString() +
                      ", p" + std::to_string(w + 1) + " has " + fv.toString();
    }
  }
  for (const auto& e : rr.trace().ofKind(sim::EventKind::kPublish)) {
    if (correct.contains(e.pid)) rep.last_change = e.time;
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
  for (Pid p : fp.correct().members()) {
    if (!rr.decisions.contains(p)) {
      rep.termination = false;
      rep.violation = "correct p" + std::to_string(p + 1) + " never decided";
    }
  }

  // Validity + decide-once from the raw decide events.
  const std::set<Value> allowed(proposals.begin(), proposals.end());
  rep.validity = true;
  rep.decide_once = true;
  std::map<Pid, int> decide_count;
  for (const auto& e : rr.trace().ofKind(sim::EventKind::kDecide)) {
    if (++decide_count[e.pid] > 1) {
      rep.decide_once = false;
      rep.violation = "p" + std::to_string(e.pid + 1) + " decided twice";
    }
    if (!allowed.contains(e.value.asInt())) {
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
