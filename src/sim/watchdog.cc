#include "sim/watchdog.h"

#include <set>
#include <string>

namespace wfd::sim {

const char* runVerdictName(RunVerdict v) {
  switch (v) {
    case RunVerdict::kOk: return "ok";
    case RunVerdict::kSafetyViolation: return "safety_violation";
    case RunVerdict::kAxiomViolation: return "axiom_violation";
    case RunVerdict::kBudgetExhausted: return "budget_exhausted";
    case RunVerdict::kLivelock: return "livelock";
  }
  return "?";
}

namespace {

// The watchdog's per-step checks: an incremental scan of the trace for
// online safety (distinct decided values, per-process decision counts)
// and for progress (any new event), around the inner observer's
// beforeStep and filter hooks.
class Watch final : public StepObserver {
 public:
  Watch(const WatchdogConfig& wd, StepObserver* inner, RunReport& rep)
      : wd_(wd), inner_(inner), rep_(rep) {}

  void beforeStep(World& world, const Scheduler& sched) override {
    if (inner_ != nullptr) inner_->beforeStep(world, sched);
  }

  [[nodiscard]] ProcSet filter(const ProcSet& runnable, const World& world,
                               const Scheduler& sched) const override {
    return inner_ != nullptr ? inner_->filter(runnable, world, sched)
                             : runnable;
  }

  bool afterStep(World& world, const Scheduler& /*sched*/) override {
    ++rep_.steps;  // counted here, so an audit throw leaves the step out
    const auto& evs = world.trace().events();
    const bool progressed = evs.size() > scanned_;
    for (; scanned_ < evs.size(); ++scanned_) {
      const Event& e = evs[scanned_];
      if (e.kind != EventKind::kDecide || wd_.safety_k <= 0) continue;
      if (decided_.contains(e.pid)) {
        return flag(RunVerdict::kSafetyViolation,
                    "process p" + std::to_string(e.pid + 1) + " decided twice");
      }
      decided_.insert(e.pid);
      distinct_.insert(e.value.asInt());
      if (static_cast<int>(distinct_.size()) > wd_.safety_k) {
        return flag(RunVerdict::kSafetyViolation,
                    std::to_string(distinct_.size()) +
                        " distinct decisions exceed the k=" +
                        std::to_string(wd_.safety_k) + " agreement bound");
      }
    }
    if (progressed) {
      last_progress_ = rep_.steps;
    } else if (wd_.livelock_window > 0 &&
               rep_.steps - last_progress_ >= wd_.livelock_window) {
      return flag(RunVerdict::kLivelock,
                  "no new trace event in " +
                      std::to_string(wd_.livelock_window) +
                      " steps with live processes still running");
    }
    return false;
  }

 private:
  bool flag(RunVerdict v, std::string detail) {
    rep_.verdict = v;
    rep_.detail = std::move(detail);
    return true;
  }

  const WatchdogConfig& wd_;
  StepObserver* inner_;
  std::set<Value> distinct_;
  ProcSet decided_;
  std::size_t scanned_ = 0;
  Time last_progress_ = 0;
  RunReport& rep_;
};

}  // namespace

RunReport driveToVerdict(Run& run, SchedulePolicy& policy,
                         const WatchdogConfig& wd, StepObserver* inner) {
  RunReport rep;
  World& world = run.world();
  Scheduler& sched = run.scheduler();
  Watch watch(wd, inner, rep);
  try {
    sched.run(policy, wd.step_budget, &watch);
    if (rep.verdict == RunVerdict::kOk && rep.steps >= wd.step_budget &&
        !sched.allCorrectDone()) {
      rep.verdict = RunVerdict::kBudgetExhausted;
      rep.detail = "step budget " + std::to_string(wd.step_budget) +
                   " exhausted before all correct processes finished";
    }
  } catch (const StepAuditError& e) {
    rep.verdict = RunVerdict::kAxiomViolation;
    rep.detail = e.what();
  }

  // Close the audit window now, unconditionally: the end-of-run FD-axiom
  // conditions may raise StepAuditError in kThrow mode, and running them
  // here (finalizeFdAxioms is idempotent) keeps run.finish() from ever
  // throwing. They demote an otherwise clean run; a run that already has
  // a verdict keeps it.
  try {
    world.endAuditObservation();
  } catch (const StepAuditError& e) {
    // An illegal FD history must never hide behind a budget or livelock
    // cutoff (negative controls demand 100% detection); only an already
    // established safety violation outranks it.
    if (rep.verdict != RunVerdict::kSafetyViolation) {
      rep.verdict = RunVerdict::kAxiomViolation;
      rep.detail = e.what();
    }
  }
  // Collect-mode audits (explicitly requested by the config) report their
  // findings as the same verdict, after the fact.
  if (rep.verdict == RunVerdict::kOk) {
    if (const StepAuditor* a = world.auditor();
        a != nullptr && !a->clean()) {
      rep.verdict = RunVerdict::kAxiomViolation;
      rep.detail = a->violations().front().toString();
    }
  }
  return rep;
}

RunReport driveWatched(Run& run, SchedulePolicy& policy,
                       const WatchdogConfig& wd, StepObserver* inner) {
  RunReport rep = driveToVerdict(run, policy, wd, inner);
  rep.result = run.finish(rep.steps);
  return rep;
}

}  // namespace wfd::sim
