// World: the shared state of one simulated run.
//
// Owns the object table, the failure detector history, the failure
// pattern, the global step clock and the trace. The scheduler executes
// atomic operations against the world; algorithm coroutines reach it only
// through the per-process Env facade.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fd/failure_detector.h"
#include "sim/failure_pattern.h"
#include "sim/object_table.h"
#include "sim/ops.h"
#include "sim/step_audit.h"
#include "sim/trace.h"

namespace wfd::sim {

// A mis-configured or impossible simulator operation (an algorithm
// querying an FD when none is installed, a proposal vector of the wrong
// arity, ...). Thrown instead of assert/abort so that a perturbed run
// always terminates with a diagnosable error the chaos watchdog — or any
// caller — can catch and report (sim/watchdog.h).
class SimAbort : public std::runtime_error {
 public:
  explicit SimAbort(const std::string& what) : std::runtime_error(what) {}
};

// Which atomic-snapshot implementation Env::snapshot handles use.
enum class SnapshotFlavor {
  kNative,  // one atomic step per update/scan (snapshot as a base object)
  kAfek,    // Afek et al. wait-free construction from registers
};

class World {
 public:
  World(int n_plus_1, FailurePattern fp, fd::FdPtr fd,
        SnapshotFlavor flavor = SnapshotFlavor::kNative)
      : n_plus_1_(n_plus_1),
        fp_(std::make_shared<const FailurePattern>(std::move(fp))),
        fd_(std::move(fd)),
        flavor_(flavor),
        correct_(fp_->correct()) {
    crossCrashTime();
  }

  [[nodiscard]] int nProcs() const { return n_plus_1_; }
  // A reference that injectCrash leaves dangling: re-read it after.
  [[nodiscard]] const FailurePattern& pattern() const { return *fp_; }
  [[nodiscard]] const fd::FailureDetector* fd() const { return fd_.get(); }
  [[nodiscard]] SnapshotFlavor snapshotFlavor() const { return flavor_; }

  [[nodiscard]] Time now() const { return now_; }
  void advanceClock() {
    if (++now_ >= next_crash_) crossCrashTime();
  }

  // F(now) and correct(F): the one home of run condition (1), read by the
  // scheduler on every step. Written only where they change: the clock
  // reaching a crash time, injectCrash, and restore.
  [[nodiscard]] ProcSet crashed() const { return crashed_; }
  [[nodiscard]] ProcSet correct() const { return correct_; }

  // Chaos crash injection (sim/chaos.h): crash p at the current time, so
  // p takes no further steps — exactly run condition (1). Outside the
  // chaos engine this is off-limits (tools/model_lint.py bans it): a
  // run's failure pattern is otherwise part of its immutable
  // configuration.
  void injectCrash(Pid p);

  // Chaos stale-snapshot injection (sim/chaos.h): p's next scan of `obj`
  // returns `serve` instead of the live memory, and the auditor judges it
  // against the live memory and `requested`, the view at the scan's
  // invocation (StepAuditor::onScanResult). Also chaos-only (model_lint).
  void serveScan(Pid p, ObjId obj, SlotArray serve, SlotArray requested);

  ObjectTable& objects() { return objects_; }
  [[nodiscard]] const ObjectTable& objectsConst() const { return objects_; }
  Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // Execute one atomic step's operation on behalf of process p.
  OpResult execute(Pid p, const Op& op);

  // Footprint of the most recently executed operation (sim/explore.h).
  // Maintained unconditionally — one trivially-copyable store per step.
  [[nodiscard]] const OpFootprint& lastFootprint() const {
    return last_footprint_;
  }
  // resultSignature() of the most recently executed operation's result,
  // as mixed into the trace; the scheduler's result log reuses it.
  [[nodiscard]] std::uint64_t lastResultSignature() const {
    return last_result_sig_;
  }

  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  // A Snapshot captures every mutable field of the world: clock, failure
  // pattern (chaos may have mutated it) with F(now) and correct(F), object
  // table, trace, published FD-output emulations. It copies none of their
  // contents: tuple payloads and snapshot cells (ObjectTable::Snapshot),
  // the published outputs (a SlotArray), the immutable pattern
  // (injectCrash installs a new one) and the trace's event vector
  // (copy-on-write, see Trace) are shared, and restore() shares them back.
  // The FD itself is NOT captured: histories are stateless functions of
  // (seed, p, t), per common/rng.h.
  class Snapshot {
   public:
    Snapshot() = default;
    // Drop every reference this snapshot holds (pattern, published
    // outputs, objects, events), keeping its vectors' capacity for the
    // next fill. Restoring a released snapshot throws, as for one never
    // taken.
    void release() {
      fp.reset();
      published = SlotArray();
      objects.release();
      trace.release();
    }

   private:
    friend class World;
    Time now = 0;
    ProcSet crashed, correct;
    Time next_crash = kNeverCrashes;
    std::shared_ptr<const FailurePattern> fp;  // null: never taken
    SlotArray published;
    ObjectTable::Snapshot objects;
    Trace::Snapshot trace;
  };
  // Overwrites `s` in place, reusing its capacity.
  void snapshot(Snapshot& s) const;
  // Restoring does not touch the attached auditor's mode, but replaces the
  // auditor instance: stale per-run audit state must not outlive a rewind.
  // Throws SimAbort, leaving the world untouched, on a default-constructed
  // Snapshot.
  void restore(const Snapshot& s);

  // ---- Model-conformance auditing (sim/step_audit.h) ----
  // Opt-in: attaches a StepAuditor that observes every step, executed
  // operation, and object-table access of this world. The auditor never
  // alters behavior; audited and unaudited runs produce identical traces.
  void enableAudit(AuditMode mode);
  [[nodiscard]] StepAuditor* auditor() const { return audit_.get(); }
  // Called when the run ends (Run::finish): post-run inspection of the
  // object table by tests/checkers is not shared-memory traffic and must
  // not be audited. The auditor itself stays for report inspection. Also
  // closes out the end-of-run FD-axiom conditions (idempotent), which in
  // kThrow mode may raise StepAuditError.
  void endAuditObservation() {
    objects_.setAuditor(nullptr);
    if (audit_) audit_->finalizeFdAxioms();
  }

  // Emulated-FD outputs (the paper's distributed variable D-output_i).
  // Readable by scheduling policies (adversaries) and checkers at zero
  // simulated cost; written via Env::publish.
  [[nodiscard]] const RegVal& published(Pid p) const {
    return published_.at(static_cast<std::size_t>(p));
  }
  void setPublished(Pid p, RegVal v);

 private:
  // A scan view chaos decided to serve (serveScan); obj -1: none.
  struct ServedScan {
    ObjId obj = -1;
    SlotArray serve, requested;
  };

  // F(now) from the pattern, and the next crash time after now.
  void crossCrashTime();
  // Audit: crashed_/correct_ against the pattern, after a partial write.
  void auditLiveness() const;

  int n_plus_1_;
  std::shared_ptr<const FailurePattern> fp_;
  fd::FdPtr fd_;
  SnapshotFlavor flavor_;
  Time now_ = 0;
  ProcSet crashed_;
  ProcSet correct_;
  Time next_crash_ = kNeverCrashes;  // min crash time outside crashed_
  OpFootprint last_footprint_;
  std::uint64_t last_result_sig_ = 0;
  ObjectTable objects_;
  Trace trace_;
  std::unique_ptr<StepAuditor> audit_;
  std::vector<ServedScan> served_;  // per pid; empty until chaos serves one
  SlotArray published_ = SlotArray(static_cast<std::size_t>(n_plus_1_));
};

}  // namespace wfd::sim
