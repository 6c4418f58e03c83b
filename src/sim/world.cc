#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wfd::sim {

OpResult World::execute(Pid p, const Op& op) {
  // Audit before dispatch: kThrow mode must report kind/port violations
  // before the object table's own asserts would halt the process.
  if (audit_) audit_->onExecuteBegin(p, op);
  last_footprint_ = footprintOf(op);
  trace_.mixOp(now_, p, opSignature(op));
  OpResult res;
  if (const auto* r = std::get_if<OpRead>(&op)) {
    res.scalar = objects_.read(r->obj);
  } else if (const auto* w = std::get_if<OpWrite>(&op)) {
    objects_.write(w->obj, w->val);
  } else if (const auto* u = std::get_if<OpSnapUpdate>(&op)) {
    objects_.update(u->obj, u->slot, u->val);
  } else if (const auto* s = std::get_if<OpSnapScan>(&op)) {
    res.snapshot = objects_.scan(s->obj);
    const auto pi = static_cast<std::size_t>(p);
    if (!served_.empty() && served_[pi].obj == s->obj) {
      ServedScan served = std::exchange(served_[pi], {});
      res.snapshot = std::move(served.serve);
      // Judge the served view online, before the algorithm sees it —
      // mirrors onFdAnswer for FD outputs.
      if (audit_) {
        audit_->onScanResult(p, s->obj, res.snapshot, served.requested);
      }
    }
  } else if (std::holds_alternative<OpFdQuery>(op)) {
    if (fd_ == nullptr) {
      throw SimAbort("p" + std::to_string(p + 1) + " queried its failure "
                     "detector at t=" + std::to_string(now_) +
                     " but the run has none installed");
    }
    const ProcSet answer = fd_->query(p, now_);
    // Validate the answer online BEFORE it reaches the algorithm: in
    // kThrow mode an axiom-violating output never enters the run.
    if (audit_) audit_->onFdAnswer(p, answer);
    res.scalar = RegVal(answer);
  } else if (const auto* c = std::get_if<OpConsPropose>(&op)) {
    res.scalar = objects_.propose(c->obj, p, c->val);
  } else {
    assert(std::holds_alternative<OpNoop>(op));
  }
  last_result_sig_ = resultSignature(res);
  trace_.mixResult(last_result_sig_);
  if (audit_) audit_->onExecuteEnd(p);
  return res;
}

void World::crossCrashTime() {
  crashed_ = fp_->crashedBy(now_);
  next_crash_ = kNeverCrashes;
  for (const Pid p : crashed_.complement(n_plus_1_)) {
    next_crash_ = std::min(next_crash_, fp_->crashTime(p));
  }
}

void World::auditLiveness() const {
  if (crashed_ != fp_->crashedBy(now_) || correct_ != fp_->correct()) {
    throw SimAbort("world audit: F(now) or correct(F) diverged from the "
                   "failure pattern at t=" + std::to_string(now_));
  }
}

void World::injectCrash(Pid p) {
  // Snapshots share the old pattern: install a mutated copy.
  auto next = std::make_shared<FailurePattern>(*fp_);
  next->injectCrash(p, now_);
  fp_ = std::move(next);
  crashed_.insert(p);
  correct_.erase(p);
  if (audit_) auditLiveness();
  // Injection is part of the run's (chaos) configuration: record it so
  // replays of the same seeds hash identically and diagnosable traces
  // show where the adversary struck.
  trace_.record(now_, p, EventKind::kNote, "chaos.crash", RegVal());
}

void World::serveScan(Pid p, ObjId obj, SlotArray serve, SlotArray requested) {
  if (served_.empty()) served_.resize(static_cast<std::size_t>(n_plus_1_));
  served_[static_cast<std::size_t>(p)] = {obj, std::move(serve),
                                          std::move(requested)};
}

void World::enableAudit(AuditMode mode) {
  audit_ = std::make_unique<StepAuditor>(this, mode);
  objects_.setAuditor(audit_.get());
}

void World::snapshot(Snapshot& s) const {
  s.now = now_;
  s.crashed = crashed_;
  s.correct = correct_;
  s.next_crash = next_crash_;
  s.fp = fp_;
  s.published = published_;
  objects_.snapshot(s.objects);
  trace_.snapshot(s.trace);
}

void World::restore(const Snapshot& s) {
  // A default-constructed Snapshot was never taken from a world.
  if (!s.fp) {
    throw SimAbort("World::restore: snapshot was never taken");
  }
  now_ = s.now;
  crashed_ = s.crashed;
  correct_ = s.correct;
  next_crash_ = s.next_crash;
  fp_ = s.fp;
  published_ = s.published;
  objects_.restore(s.objects);
  trace_.restore(s.trace);
  // An attached auditor accumulates per-run state (last FD answers,
  // step/execute pairing) that is meaningless after time moves backwards;
  // re-attach a fresh one of the same mode. Audits never alter behavior,
  // so restored and never-checkpointed runs stay trace-identical.
  if (audit_) {
    enableAudit(audit_->mode());
    auditLiveness();
  }
}

void World::setPublished(Pid p, RegVal v) {
  published_.set(static_cast<std::size_t>(p), v);
  trace_.record(now_, p, EventKind::kPublish, "", std::move(v));
}

}  // namespace wfd::sim
