#include "sim/scheduler.h"

#include <cassert>

namespace wfd::sim {

ProcCtx*& currentProc() {
  thread_local ProcCtx* cur = nullptr;
  return cur;
}

// The policies below run once per simulated step, so they must not touch
// the heap: rank-based selection via ProcSet::nth / nextAbove replaces the
// old members() vectors. Each rewrite draws from the RNG exactly as the
// vector version did (same call count, same bounds), so every schedule —
// and therefore every golden trace hash — is bit-identical.

Pid RandomPolicy::next(const ProcSet& runnable, const World&, Rng& rng) {
  const auto size = static_cast<std::uint64_t>(runnable.size());
  return runnable.nth(static_cast<int>(rng.below(size)));
}

Pid RoundRobinPolicy::next(const ProcSet& runnable, const World&, Rng&) {
  // Smallest pid strictly greater than last_, wrapping around.
  const Pid above = runnable.nextAbove(last_);
  last_ = above >= 0 ? above : runnable.min();
  return last_;
}

Pid EventuallySynchronousPolicy::next(const ProcSet& runnable,
                                      const World& world, Rng& rng) {
  if (world.now() >= gst_) return rr_.next(runnable, world, rng);
  // Chaotic phase: starve a rotating victim; run the rest at random.
  const auto size = static_cast<std::size_t>(runnable.size());
  if (size == 1) return runnable.min();
  const auto victim_idx = static_cast<std::size_t>(
      (world.now() / starve_stretch_) % static_cast<Time>(size));
  std::size_t pick = rng.below(size - 1);
  if (pick >= victim_idx) ++pick;
  return runnable.nth(static_cast<int>(pick));
}

ScriptedPolicy::ScriptedPolicy(std::vector<Pid> script,
                               std::unique_ptr<SchedulePolicy> fallback)
    : script_(std::move(script)), fallback_(std::move(fallback)) {
  assert(fallback_ != nullptr);
}

Pid ScriptedPolicy::next(const ProcSet& runnable, const World& world,
                         Rng& rng) {
  while (pos_ < script_.size()) {
    const Pid p = script_[pos_++];
    if (runnable.contains(p)) return p;
  }
  return fallback_->next(runnable, world, rng);
}

void Scheduler::add(Pid p, Coro<Unit> coro) {
  if (static_cast<std::size_t>(p) >= slots_.size()) {
    slots_.resize(static_cast<std::size_t>(p) + 1);
  }
  auto slot = std::make_unique<Slot>();
  slot->ctx.pid = p;
  slot->coro = std::move(coro);
  slots_[static_cast<std::size_t>(p)] = std::move(slot);
  undone_.insert(p);
}

void reportOpRequest(const ProcCtx& c, const Op& op) {
  c.world->auditor()->onOpRequested(c.pid, op, c.pending.has_value());
}

void Scheduler::runUntilBlockedOrDone(Slot& slot) {
  // Reset the current-process pointer even if an audit error is thrown
  // mid-step (kThrow mode), so a caught StepAuditError leaves the
  // scheduler reusable for inspection.
  struct CurrentProcGuard {
    ~CurrentProcGuard() { currentProc() = nullptr; }
  } guard;
  currentProc() = &slot.ctx;
  // Flat resume loop: child starts and completions update resume_point
  // without nesting resume() calls.
  while (!slot.ctx.pending.has_value() && slot.ctx.resume_point) {
    const std::coroutine_handle<> h = slot.ctx.resume_point;
    h.resume();
  }
}

void Scheduler::executeSlot(Slot& slot, Pid p) {
  // Audit hooks come first: in kThrow mode the auditor must get to
  // report a crashed-process step before the asserts below halt us.
  if (StepAuditor* const audit = world_->auditor()) {
    slot.ctx.world = world_;
    audit->onStepBegin(p);
  }
  assert(!slot.ctx.done);
  assert(!world_->crashed().contains(p));

  if (!slot.started) {
    // Fold the prologue (initial local computation up to the first
    // operation request) into the first step, so that every step executes
    // exactly one atomic operation — one candidate-loop iteration per
    // scheduled step, matching the paper's step granularity.
    slot.ctx.resume_point = slot.coro.handle();
    slot.started = true;
    runUntilBlockedOrDone(slot);
  }
  if (slot.ctx.pending.has_value()) {
    slot.ctx.result = world_->execute(p, *slot.ctx.pending);
  }
}

void Scheduler::resumeSlot(Slot& slot, Pid p) {
  if (slot.ctx.pending.has_value()) {
    if (log_results_) {
      // Copy before the resume below moves the result into the awaiter;
      // a scan's cells are shared, not copied.
      ResultLog& head = result_log_[static_cast<std::size_t>(p)];
      const std::size_t len = head ? head->len + 1 : 1;
      const std::uint64_t digest = mixDigest(
          head ? head->digest : 0, world_->lastResultSignature());
      head = ResultLog::make(slot.ctx.result, std::move(head), len, digest);
    }
    slot.ctx.pending.reset();
    runUntilBlockedOrDone(slot);
  }

  ++slot.ctx.steps;
  world_->advanceClock();
  if (StepAuditor* const audit = world_->auditor()) audit->onStepEnd(p);

  if (slot.coro.done()) {
    slot.ctx.done = true;
    undone_.erase(p);
    slot.coro.rethrowIfFailed();
  }
}

void Scheduler::step(Pid p) {
  Slot& slot = slotOf(p);
  executeSlot(slot, p);
  resumeSlot(slot, p);
}

void Scheduler::execute(Pid p) { executeSlot(slotOf(p), p); }

void Scheduler::resume(Pid p) { resumeSlot(slotOf(p), p); }

// ---- Checkpoint/restore ---------------------------------------------------

Scheduler::ResultNode::~ResultNode() {
  // The default destructor would release `prev`, whose destructor releases
  // its `prev`, ... one stack frame per logged result. Walk the nodes this
  // one solely owns instead; a node still shared ends the walk (its other
  // owner frees it later, the same way). A LocalPtr stores its node
  // non-const, so detaching `prev` of a node being freed is well-defined.
  ResultLog p = std::move(prev);
  while (p && p.use_count() == 1) {
    ResultLog next = std::move(const_cast<ResultLog&>(p->prev));
    p = std::move(next);
  }
}

void Scheduler::enableResultLog() {
  if (log_results_) return;
  if (world_->now() != 0) {
    throw SimAbort(
        "Scheduler::enableResultLog must be called before the first step: "
        "a checkpoint needs the complete per-process result streams");
  }
  log_results_ = true;
  result_log_.assign(slots_.size(), nullptr);
}

void Scheduler::checkpoint(Checkpoint& ck) const {
  if (!log_results_) {
    throw SimAbort(
        "Scheduler::checkpoint requires enableResultLog() from step one");
  }
  ck.rng = rng_;
  ck.procs.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ProcCheckpoint& pc = ck.procs[i];
    if (!slots_[i]) {
      pc = ProcCheckpoint{};
      continue;
    }
    const Slot& slot = *slots_[i];
    pc.started = slot.started;
    pc.done = slot.ctx.done;
    pc.steps = slot.ctx.steps;
    pc.results = result_log_[i];
  }
}

void Scheduler::restoreSlot(Pid p, Coro<Unit> coro, const ProcCheckpoint& pc) {
  std::unique_ptr<Slot>& owned = slots_[static_cast<std::size_t>(p)];
  if (!owned) owned = std::make_unique<Slot>();
  Slot* const slot = owned.get();
  // Reset to a fresh slot's state. Assigning the coroutine frees the old
  // frame first; clearing the context drops the references its parked op
  // and result held.
  slot->coro = std::move(coro);
  slot->ctx = ProcCtx{};
  slot->ctx.pid = p;
  slot->started = pc.started;
  if (pc.started) {
    // The log links newest-first; replay needs program order.
    std::vector<const OpResult*>& results = replay_;
    results.resize(pc.results ? pc.results->len : 0);
    std::size_t i = results.size();
    for (const ResultNode* n = pc.results.get(); n != nullptr;
         n = n->prev.get()) {
      results[--i] = &n->result;
    }
    // Local replay: drive the fresh frame with the recorded result stream
    // until it has consumed every checkpointed result and parked at its
    // next operation request (or returned). The step's resume loop, minus
    // the world: results come from the log, not execute().
    slot->ctx.resume_point = slot->coro.handle();
    std::size_t fed = 0;
    for (;;) {
      runUntilBlockedOrDone(*slot);
      if (!slot->ctx.pending.has_value()) break;  // automaton returned
      if (fed == results.size()) break;           // parked at the next op
      slot->ctx.result = *results[fed++];
      slot->ctx.pending.reset();
    }
    if (fed != results.size() || slot->coro.done() != pc.done) {
      // A deterministic automaton replays exactly; divergence means local
      // nondeterminism (unseeded randomness, address-dependent branching).
      throw SimAbort("checkpoint restore: p" + std::to_string(p + 1) +
                     " diverged during local replay — process automata "
                     "must be deterministic functions of their inputs");
    }
  }
  slot->ctx.steps = pc.steps;
  slot->ctx.done = pc.done;
}

std::uint64_t Scheduler::restore(
    const Checkpoint& ck, const std::function<Coro<Unit>(Pid)>& make_coro) {
  if (!log_results_) {
    throw SimAbort("Scheduler::restore requires enableResultLog()");
  }
  if (ck.procs.size() != slots_.size()) {
    throw SimAbort("Scheduler::restore: checkpoint of a " +
                   std::to_string(ck.procs.size()) + "-process run into a " +
                   std::to_string(slots_.size()) + "-process run");
  }
  std::uint64_t rebuilt = 0;
  undone_ = ProcSet{};
  for (std::size_t i = 0; i < ck.procs.size(); ++i) {
    const Pid p = static_cast<Pid>(i);
    const ProcCheckpoint& pc = ck.procs[i];
    Slot* const live = slots_[i].get();
    // Pointer identity of the log heads is exact: a live node is never
    // freed while a head refers to it, so equal heads are the same
    // stream, and the frame is a function of the results it consumed
    // (every ObjId it holds was resolved in that shared history).
    const bool unchanged = live != nullptr && result_log_[i] == pc.results &&
                           live->started == pc.started &&
                           live->ctx.done == pc.done &&
                           live->ctx.steps == pc.steps;
    if (!unchanged) {
      restoreSlot(p, make_coro(p), pc);
      result_log_[i] = pc.results;
      if (pc.results) rebuilt += pc.results->len;
    }
    if (!pc.done) undone_.insert(p);
  }
  rng_ = ck.rng;
  return rebuilt;
}

Time Scheduler::run(SchedulePolicy& policy, Time max_steps,
                    StepObserver* observer) {
  Time taken = 0;
  for (;;) {
    if (allCorrectDone()) break;
    if (taken >= max_steps) break;
    // beforeStep may crash a process: read the runnable set after it.
    if (observer != nullptr) observer->beforeStep(*world_, *this);
    const ProcSet runnable = this->runnable();
    if (runnable.empty()) break;  // every live process finished
    const Pid p =
        observer == nullptr
            ? policy.next(runnable, *world_, rng_)
            : policy.next(observer->filter(runnable, *world_, *this),
                          *world_, rng_);
    assert(runnable.contains(p) && "policy chose a non-runnable process");
    step(p);
    ++taken;
    if (observer != nullptr && observer->afterStep(*world_, *this)) break;
  }
  return taken;
}

}  // namespace wfd::sim
