#include "sim/step_audit.h"

#include <utility>

#include "fd/axioms.h"
#include "sim/world.h"

namespace wfd::sim {

const char* auditRuleName(AuditRule rule) {
  switch (rule) {
    case AuditRule::kMultiOp: return "multi-op";
    case AuditRule::kUnroutedAccess: return "unrouted-access";
    case AuditRule::kKindMismatch: return "kind-mismatch";
    case AuditRule::kPortOverflow: return "port-overflow";
    case AuditRule::kCrashedStep: return "crashed-step";
    case AuditRule::kFdNonMonotone: return "fd-non-monotone";
    case AuditRule::kFdIllegalOutput: return "fd-illegal-output";
    case AuditRule::kStaleScan: return "stale-scan";
  }
  return "?";
}

std::string opToString(const Op& op) {
  if (const auto* r = std::get_if<OpRead>(&op)) {
    return "read obj#" + std::to_string(r->obj);
  }
  if (const auto* w = std::get_if<OpWrite>(&op)) {
    return "write obj#" + std::to_string(w->obj) + " := " + w->val.toString();
  }
  if (const auto* u = std::get_if<OpSnapUpdate>(&op)) {
    return "snap-update obj#" + std::to_string(u->obj) + "[" +
           std::to_string(u->slot) + "] := " + u->val.toString();
  }
  if (const auto* s = std::get_if<OpSnapScan>(&op)) {
    return "snap-scan obj#" + std::to_string(s->obj);
  }
  if (std::holds_alternative<OpFdQuery>(op)) return "fd-query";
  if (std::holds_alternative<OpNoop>(op)) return "noop";
  if (const auto* c = std::get_if<OpConsPropose>(&op)) {
    return "cons-propose obj#" + std::to_string(c->obj) + " := " +
           c->val.toString();
  }
  return "?";
}

std::string AuditViolation::toString() const {
  std::string s = "step-audit violation [";
  s += auditRuleName(rule);
  s += "] p" + std::to_string(pid + 1) + " t=" + std::to_string(time) +
       " step#" + std::to_string(step_index) + ": " + message;
  if (!trail.empty()) {
    s += "\n  op trail (oldest first):";
    for (const auto& e : trail) s += "\n    " + e;
  }
  return s;
}

StepAuditError::StepAuditError(AuditViolation v)
    : std::runtime_error(v.toString()), violation(std::move(v)) {}

StepAuditor::StepAuditor(const World* world, AuditMode mode)
    : world_(world),
      mode_(mode),
      last_fd_query_(static_cast<std::size_t>(world->nProcs()), Time{-1}) {}

void StepAuditor::noteTrail(bool exec, Pid p, const Op& op) {
  TrailRecord& r = trail_[trail_next_];
  r.t = world_->now();
  r.p = p;
  r.exec = exec;
  r.op = op;
  trail_next_ = (trail_next_ + 1) % kTrailCap;
  if (trail_size_ < kTrailCap) ++trail_size_;
}

std::vector<std::string> StepAuditor::renderTrail() const {
  std::vector<std::string> out;
  out.reserve(trail_size_);
  const std::size_t start =
      (trail_next_ + kTrailCap - trail_size_) % kTrailCap;
  for (std::size_t i = 0; i < trail_size_; ++i) {
    const TrailRecord& r = trail_[(start + i) % kTrailCap];
    out.push_back("t=" + std::to_string(r.t) + " p" +
                  std::to_string(r.p + 1) + (r.exec ? " exec " : " req  ") +
                  opToString(r.op));
  }
  return out;
}

void StepAuditor::flag(AuditRule rule, Pid pid, std::string message) {
  AuditViolation v;
  v.rule = rule;
  v.pid = pid;
  v.time = world_->now();
  v.step_index = steps_audited_;
  v.message = std::move(message);
  v.trail = renderTrail();
  violations_.push_back(v);
  if (mode_ == AuditMode::kThrow) throw StepAuditError(std::move(v));
}

bool StepAuditor::sawRule(AuditRule rule) const {
  for (const auto& v : violations_) {
    if (v.rule == rule) return true;
  }
  return false;
}

void StepAuditor::onStepBegin(Pid p) {
  if (in_step_) {
    flag(AuditRule::kMultiOp, p,
         "step opened for p" + std::to_string(p + 1) + " while p" +
             std::to_string(step_pid_ + 1) + "'s step is still open");
  }
  in_step_ = true;
  step_pid_ = p;
  execs_this_step_ = 0;
  if (world_->pattern().crashTime(p) <= world_->now()) {
    flag(AuditRule::kCrashedStep, p,
         "process crashed at t=" +
             std::to_string(world_->pattern().crashTime(p)) +
             " but was scheduled at t=" + std::to_string(world_->now()) +
             " (model: a crashed process takes no further steps)");
  }
}

void StepAuditor::onStepEnd(Pid p) {
  if (!in_step_ || step_pid_ != p) {
    flag(AuditRule::kUnroutedAccess, p, "step closed that was never opened");
  }
  in_step_ = false;
  step_pid_ = -1;
  ++steps_audited_;
}

void StepAuditor::checkOpAgainstTable(Pid p, const Op& op) {
  const ObjectTable& tab = world_->objectsConst();
  const auto requireKind = [&](ObjId id, ObjectTable::Kind want,
                               const char* want_name) {
    if (!tab.knows(id)) {
      flag(AuditRule::kKindMismatch, p,
           opToString(op) + " targets an object id never issued by the "
                            "object table");
      return false;
    }
    if (tab.kindOf(id) != want) {
      flag(AuditRule::kKindMismatch, p,
           opToString(op) + " applied to a non-" + want_name +
               " object (object kinds are fixed at creation)");
      return false;
    }
    return true;
  };

  if (const auto* r = std::get_if<OpRead>(&op)) {
    requireKind(r->obj, ObjectTable::Kind::kRegister, "register");
  } else if (const auto* w = std::get_if<OpWrite>(&op)) {
    requireKind(w->obj, ObjectTable::Kind::kRegister, "register");
  } else if (const auto* u = std::get_if<OpSnapUpdate>(&op)) {
    if (requireKind(u->obj, ObjectTable::Kind::kSnapshot, "snapshot") &&
        (u->slot < 0 || u->slot >= tab.slotCount(u->obj))) {
      flag(AuditRule::kKindMismatch, p,
           opToString(op) + " slot out of range [0, " +
               std::to_string(tab.slotCount(u->obj)) + ")");
    }
  } else if (const auto* s = std::get_if<OpSnapScan>(&op)) {
    requireKind(s->obj, ObjectTable::Kind::kSnapshot, "snapshot");
  } else if (const auto* c = std::get_if<OpConsPropose>(&op)) {
    if (requireKind(c->obj, ObjectTable::Kind::kConsensus, "consensus") &&
        !tab.hasProposed(c->obj, p) &&
        tab.proposerCount(c->obj) >= tab.portLimit(c->obj)) {
      flag(AuditRule::kPortOverflow, p,
           opToString(op) + ": an m-process consensus object accepts at "
                            "most m = " +
               std::to_string(tab.portLimit(c->obj)) +
               " distinct proposers; p" + std::to_string(p + 1) +
               " would be proposer #" +
               std::to_string(tab.proposerCount(c->obj) + 1));
    }
  } else if (std::holds_alternative<OpFdQuery>(op)) {
    const Time t = world_->now();
    Time& last = last_fd_query_[static_cast<std::size_t>(p)];
    if (t <= last) {
      flag(AuditRule::kFdNonMonotone, p,
           "FD queried at t=" + std::to_string(t) +
               " after a query at t=" + std::to_string(last) +
               " (histories are functions of (p, t); query times must "
               "strictly increase per process)");
    }
    last = t;
  }
}

void StepAuditor::onExecuteBegin(Pid p, const Op& op) {
  ++ops_audited_;
  noteTrail(/*exec=*/true, p, op);
  if (!in_step_ || p != step_pid_) {
    flag(AuditRule::kUnroutedAccess, p,
         opToString(op) + " executed outside p" + std::to_string(p + 1) +
             "'s scheduled atomic step");
  } else {
    ++execs_this_step_;
    if (execs_this_step_ > 1) {
      flag(AuditRule::kMultiOp, p,
           opToString(op) + " is operation #" +
               std::to_string(execs_this_step_) +
               " within one atomic step (model: at most one shared-object "
               "operation or FD query per step)");
    }
  }
  checkOpAgainstTable(p, op);
  in_execute_ = true;
  exec_obj_ = footprintOf(op).obj;
}

void StepAuditor::onExecuteEnd(Pid) {
  in_execute_ = false;
  exec_obj_ = -1;
}

void StepAuditor::onOpRequested(Pid p, const Op& op, bool already_pending) {
  noteTrail(/*exec=*/false, p, op);
  if (already_pending) {
    flag(AuditRule::kMultiOp, p,
         opToString(op) + " requested while an earlier operation of p" +
             std::to_string(p + 1) + " is still pending execution");
  }
}

void StepAuditor::onFdAnswer(Pid p, const ProcSet& answer) {
  const fd::FailureDetector* det = world_->fd();
  if (det == nullptr) return;
  const fd::AxiomSpec spec = det->axioms();
  if (spec.family == fd::AxiomSpec::Family::kNone) return;
  const Time t = world_->now();

  // The range rule holds for EVERY answer, stabilized or not.
  const std::string why = fd::rangeViolation(spec, world_->nProcs(), answer);
  if (!why.empty()) {
    flag(AuditRule::kFdIllegalOutput, p,
         det->name() + " answered " + answer.toString() + " (size " +
             std::to_string(answer.size()) + "); " + why);
    return;
  }

  // Stability: our detector implementations promise the uniform contract
  // "query(p, t) is the stable value for every p once t >=
  // stabilizationTime()", which is sufficient for membership in D(F). Any
  // post-stabilization answer differing from the first one seen — at the
  // same or another process — breaks that claim mid-run.
  if (t >= det->stabilizationTime()) {
    if (!post_stab_seen_) {
      post_stab_seen_ = true;
      post_stab_value_ = answer;
    } else if (answer != post_stab_value_) {
      flag(AuditRule::kFdIllegalOutput, p,
           det->name() + " answered " + answer.toString() + " at t=" +
               std::to_string(t) + " after stabilization (claimed t_stab=" +
               std::to_string(det->stabilizationTime()) +
               ") but previously answered " + post_stab_value_.toString() +
               " (outputs must be permanently identical at all correct "
               "processes once stabilized)");
    }
  }
}

void StepAuditor::finalizeFdAxioms() {
  if (fd_finalized_) return;
  fd_finalized_ = true;
  const fd::FailureDetector* det = world_->fd();
  if (det == nullptr || !post_stab_seen_) return;
  // The stable-value rule is a property of the FINAL failure pattern
  // (chaos may inject crashes mid-run), so it can only close out here.
  const std::string why =
      fd::stableViolation(det->axioms(), world_->nProcs(), post_stab_value_,
                          world_->pattern().correct());
  if (!why.empty()) {
    flag(AuditRule::kFdIllegalOutput, -1,
         det->name() + " stabilized on " + post_stab_value_.toString() +
             " which " + why);
  }
}

void StepAuditor::onScanResult(Pid p, ObjId obj, const SlotArray& view,
                               const SlotArray& requested) {
  // Legal linearization points for an atomic scan: anywhere between
  // invocation and response. The served view must therefore match the
  // memory at SOME instant in that window; the chaos injector only ever
  // serves the two endpoints, so checking both is exact for it — and any
  // older view is a real-time-order violation whenever updates intervened.
  if (view == world_->objectsConst().peekSlots(obj)) return;  // response time
  if (view == requested) return;                              // request time
  flag(AuditRule::kStaleScan, p,
       "scan of obj#" + std::to_string(obj) +
           " returned a view that is neither the current memory nor the "
           "memory at the scan's invocation — not linearizable (the view "
           "predates an update that completed before the scan began)");
}

void StepAuditor::onObjectAccess(ObjId id, ObjectAccess access) {
  static const char* const kNames[] = {"read", "write", "scan", "update",
                                       "propose"};
  const char* what = kNames[static_cast<int>(access)];
  if (!in_execute_) {
    flag(AuditRule::kUnroutedAccess, step_pid_,
         std::string(what) + " of obj#" + std::to_string(id) +
             " bypassed the atomic-step machinery (all shared access must "
             "go through World::execute)");
  } else if (id != exec_obj_) {
    flag(AuditRule::kUnroutedAccess, step_pid_,
         std::string(what) + " of obj#" + std::to_string(id) +
             " does not match the declared operation's target obj#" +
             std::to_string(exec_obj_));
  }
}

std::string StepAuditor::report() const {
  std::string s = "step audit: " + std::to_string(steps_audited_) +
                  " steps, " + std::to_string(ops_audited_) + " ops, " +
                  std::to_string(violations_.size()) + " violation(s)";
  for (const auto& v : violations_) s += "\n" + v.toString();
  return s;
}

}  // namespace wfd::sim
