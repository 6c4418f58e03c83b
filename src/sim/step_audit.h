// StepAuditor: mechanical enforcement of the paper's step model.
//
// Every claim in EXPERIMENTS.md rests on the simulator realizing the
// model of docs/MODEL.md faithfully: one atomic shared-object operation
// or FD query per scheduler resume (paper Sect. 3.3), all shared access
// routed through the object table, object kinds and consensus port
// limits respected, no steps by crashed processes (run condition (1)),
// and FD queries at monotone times (histories are functions of (p, t),
// run condition (2)). The auditor is an opt-in observer attached to a
// World that checks each of these invariants at every resume and, on
// violation, produces a structured diagnostic — pid, step index, rule,
// and the tail of the recent operation trace — instead of letting a
// model violation silently corrupt an experiment's conclusion.
//
// Two modes: kCollect records violations for post-run inspection (used
// by tests that probe several rules in one run); kThrow raises
// StepAuditError at the first violation, before the offending operation
// executes — which is what lets the auditor report kind/port violations
// that the object table itself would otherwise halt on via assert.
//
// The auditor never mutates the world, the trace, or the schedule:
// audited and unaudited runs of the same configuration produce
// bit-identical traces (tests/step_audit_test.cc asserts trace-hash
// equality with the auditor on and off). See docs/ANALYSIS.md for the
// rule-by-rule mapping to MODEL.md and paper Sect. 3.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/object_table.h"
#include "sim/ops.h"

namespace wfd::sim {

class World;

enum class AuditMode {
  kCollect,  // record violations; execution continues
  kThrow,    // throw StepAuditError before the violating operation runs
};

enum class AuditRule {
  kMultiOp,         // >1 shared-object op / FD query in one atomic step
  kUnroutedAccess,  // shared access outside the step machinery
  kKindMismatch,    // operation applied to an object of the wrong kind
  kPortOverflow,    // consensus object saw more proposers than its ports
  kCrashedStep,     // a step scheduled for a process in F(now)
  kFdNonMonotone,   // FD queried at a non-increasing time for a process
  kFdIllegalOutput, // a query answer broke the detector's own axiom claim
  kStaleScan,       // a scan returned a view that is neither current nor
                    // the view at the scan's own invocation (chaos
                    // stale-snapshot injection gone illegal)
};

[[nodiscard]] const char* auditRuleName(AuditRule rule);

// Render one atomic operation for diagnostics ("write obj#3 := 7").
[[nodiscard]] std::string opToString(const Op& op);

struct AuditViolation {
  AuditRule rule = AuditRule::kMultiOp;
  Pid pid = -1;
  Time time = 0;        // world clock at detection
  Time step_index = 0;  // atomic steps audited before detection
  std::string message;
  std::vector<std::string> trail;  // recent op records, oldest first

  [[nodiscard]] std::string toString() const;
};

class StepAuditError : public std::runtime_error {
 public:
  explicit StepAuditError(AuditViolation v);
  const AuditViolation violation;
};

class StepAuditor final {
 public:
  StepAuditor(const World* world, AuditMode mode);

  // ---- Hooks (scheduler / world / coroutine leaf; see ANALYSIS.md) ----
  void onStepBegin(Pid p);                // Scheduler::execute entry
  void onStepEnd(Pid p);                  // Scheduler::resume exit
  void onExecuteBegin(Pid p, const Op& op);  // World::execute, pre-dispatch
  void onExecuteEnd(Pid p);                  // World::execute, post-dispatch
  // OpAwait::await_suspend via reportOpRequest (sim/coro.h): the
  // automaton asked for its next atomic operation.
  void onOpRequested(Pid p, const Op& op, bool already_pending);
  // ObjectTable: a step-costing primitive was touched.
  void onObjectAccess(ObjId id, ObjectAccess access);
  // World::execute, after an FD query was answered but BEFORE the answer
  // reaches the algorithm: validate it online against the detector's
  // AxiomSpec (fd/axioms.h's range rule per answer; constancy after
  // stabilizationTime(); the stable-value rule in finalizeFdAxioms).
  // In kThrow mode an illegal answer never enters the run.
  void onFdAnswer(Pid p, const ProcSet& answer);
  // World::execute, after a scan served a view chosen by chaos
  // (World::serveScan) and before it reaches the algorithm: a legal view
  // is the CURRENT memory or `requested`, the memory at the scan's own
  // invocation (any older view would order the scan before an update
  // that preceded its invocation — not linearizable). Scans chaos did not
  // serve are not judged, so normal runs pay nothing.
  void onScanResult(Pid p, ObjId obj, const SlotArray& view,
                    const SlotArray& requested);
  // End-of-run axiom conditions that need the final failure pattern
  // (Upsilon: stable value != correct(F); Omega^k: stable leaders contain
  // a correct process). Idempotent; called by World::endAuditObservation.
  void finalizeFdAxioms();

  // ---- Results ----
  [[nodiscard]] AuditMode mode() const { return mode_; }
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool sawRule(AuditRule rule) const;
  [[nodiscard]] Time stepsAudited() const { return steps_audited_; }
  [[nodiscard]] std::string report() const;

 private:
  // One remembered op event; kept unformatted so the hot path never
  // touches strings — rendering happens only when a violation fires.
  struct TrailRecord {
    Time t = 0;
    Pid p = -1;
    bool exec = false;  // true: World::execute; false: op requested
    Op op;
  };

  void flag(AuditRule rule, Pid pid, std::string message);
  void noteTrail(bool exec, Pid p, const Op& op);
  [[nodiscard]] std::vector<std::string> renderTrail() const;
  void checkOpAgainstTable(Pid p, const Op& op);

  static constexpr std::size_t kTrailCap = 16;

  const World* world_;
  AuditMode mode_;

  bool in_step_ = false;
  Pid step_pid_ = -1;
  int execs_this_step_ = 0;  // World::execute calls within the open step

  bool in_execute_ = false;
  ObjId exec_obj_ = -1;  // object the declared op targets (-1: none)

  std::vector<Time> last_fd_query_;  // per pid; -1 = never queried

  // Online FD-axiom state: first post-stabilization answer seen (every
  // later post-stab answer must equal it), and whether the end-of-run
  // conditions already ran.
  bool post_stab_seen_ = false;
  ProcSet post_stab_value_;
  bool fd_finalized_ = false;

  Time steps_audited_ = 0;
  Time ops_audited_ = 0;
  std::array<TrailRecord, kTrailCap> trail_{};  // ring, next_ is the head
  std::size_t trail_next_ = 0;
  std::size_t trail_size_ = 0;
  std::vector<AuditViolation> violations_;
};

}  // namespace wfd::sim
