#include "sim/runner.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wfd::sim {

namespace {

// Audit mode for a run whose config left `audit` unset: the WFD_AUDIT
// environment variable turns auditing on process-wide, which is how the
// whole tier-1 suite and every bench harness get re-run under the
// auditor without per-call-site changes. Read ONCE per process (a
// thread-safe magic static): getenv is not guaranteed safe against
// concurrent environment access, and batch workers construct Runs
// concurrently (sim/batch.h) — besides, a 10k-cell sweep has no business
// re-reading an unchanging variable per Run.
std::optional<AuditMode> envAuditMode() {
  static const std::optional<AuditMode> cached = []() -> std::optional<AuditMode> {
    const char* e = std::getenv("WFD_AUDIT");
    if (e == nullptr) return std::nullopt;
    if (std::strcmp(e, "collect") == 0) return AuditMode::kCollect;
    if (std::strcmp(e, "throw") == 0) return AuditMode::kThrow;
    return std::nullopt;
  }();
  return cached;
}

}  // namespace

int RunResult::distinctDecisions() const {
  // Count each value at its first entry; quadratic in at most kMaxProcs
  // entries, and allocation-free.
  int distinct = 0;
  for (auto it = decisions.begin(); it != decisions.end(); ++it) {
    const Value v = it->second;
    if (std::none_of(decisions.begin(), it,
                     [v](const Decisions::value_type& d) {
                       return d.second == v;
                     })) {
      ++distinct;
    }
  }
  return distinct;
}

Run::Run(const RunConfig& cfg, const AlgoFn& algo,
         const std::vector<Value>& proposals)
    : algo_(algo), proposals_(proposals) {
  // Structured errors rather than assert/abort: a chaos-perturbed or
  // mis-assembled configuration must terminate diagnosably (watchdog.h).
  if (static_cast<int>(proposals.size()) != cfg.n_plus_1) {
    throw SimAbort("run configured for n+1=" + std::to_string(cfg.n_plus_1) +
                   " processes but given " + std::to_string(proposals.size()) +
                   " proposals");
  }
  FailurePattern fp =
      cfg.fp.has_value() ? *cfg.fp : FailurePattern::failureFree(cfg.n_plus_1);
  if (fp.nProcs() != cfg.n_plus_1) {
    throw SimAbort("failure pattern covers " + std::to_string(fp.nProcs()) +
                   " processes but the run has n+1=" +
                   std::to_string(cfg.n_plus_1));
  }
  world_ = std::make_unique<World>(cfg.n_plus_1, std::move(fp), cfg.fd,
                                   cfg.flavor);
  const std::optional<AuditMode> audit = resolvedAuditMode(cfg.audit);
  if (audit.has_value()) world_->enableAudit(*audit);
  sched_.emplace(world_.get(), cfg.seed ^ 0x5EED);
  envs_.reserve(static_cast<std::size_t>(cfg.n_plus_1));
  for (Pid p = 0; p < cfg.n_plus_1; ++p) {
    envs_.emplace_back(world_.get(), p);
    sched_->add(p, algo(envs_.back(), proposals[static_cast<std::size_t>(p)]));
  }
}

std::uint64_t Run::restore(const RunCheckpoint& ck) {
  // Order matters. (1) World first: the replayed coroutines re-run their
  // zero-cost naming calls, which must resolve against the checkpointed
  // object table (ObjIds are assigned in first-reference order, which can
  // differ between branches). (2) Trace muted around the local replay:
  // replayed free actions (propose/decide/note/publish) re-fire with the
  // restored clock, not their original timestamps. Re-published values are
  // harmless — a process's published variable is single-writer, so the
  // replay's last write equals the checkpointed value. Frames the
  // scheduler keeps (Scheduler::restore) are not replayed at all.
  world_->restore(ck.world);
  world_->trace().setMuted(true);
  struct UnmuteGuard {
    Trace* t;
    ~UnmuteGuard() { t->setMuted(false); }
  } guard{&world_->trace()};
  return sched_->restore(ck.sched, [this](Pid p) {
    return algo_(envs_[static_cast<std::size_t>(p)],
                 proposals_[static_cast<std::size_t>(p)]);
  });
}

RunResult Run::finish(Time steps_taken) {
  RunResult res;
  res.steps = steps_taken;
  res.all_correct_done = sched_->allCorrectDone();
  // Close the audit window first: the end-of-run FD-axiom conditions run
  // inside endAuditObservation, so the collect-mode line below counts
  // them (in kThrow mode they raise StepAuditError instead).
  world_->endAuditObservation();
  // Collect-mode audits surface their findings even if nobody inspects
  // the result: a silent model violation is exactly what the auditor
  // exists to prevent. One line per run — the count and the first
  // message; the full report stays on rr.audit()->report(). (kThrow
  // already surfaced them as StepAuditError.)
  if (const StepAuditor* a = world_->auditor();
      a != nullptr && a->mode() == AuditMode::kCollect && !a->clean()) {
    std::fprintf(stderr, "step audit: %zu violation(s), first: %s\n",
                 a->violations().size(),
                 a->violations().front().message.c_str());
  }
  res.decisions.reserve(static_cast<std::size_t>(world_->nProcs()));
  for (const auto& e : world_->trace().events()) {
    if (e.kind == EventKind::kDecide) res.decisions[e.pid] = e.value.asInt();
  }
  // Destroy coroutine frames (which reference envs_ and world_) before the
  // world is handed out.
  sched_.reset();
  envs_.clear();
  res.world = std::move(world_);
  return res;
}

std::optional<AuditMode> resolvedAuditMode(
    const std::optional<AuditMode>& audit) {
  return audit.has_value() ? audit : envAuditMode();
}

std::unique_ptr<SchedulePolicy> makePolicy(PolicyKind kind) {
  if (kind == PolicyKind::kRoundRobin) {
    return std::make_unique<RoundRobinPolicy>();
  }
  return std::make_unique<RandomPolicy>();
}

RunResult runTask(const RunConfig& cfg, const AlgoFn& algo,
                  const std::vector<Value>& proposals) {
  Run run(cfg, algo, proposals);
  // makePolicy's choice, on the stack.
  RandomPolicy random;
  RoundRobinPolicy round_robin;
  SchedulePolicy& policy = cfg.policy == PolicyKind::kRoundRobin
                               ? static_cast<SchedulePolicy&>(round_robin)
                               : random;
  return run.finish(run.scheduler().run(policy, cfg.max_steps));
}

}  // namespace wfd::sim
