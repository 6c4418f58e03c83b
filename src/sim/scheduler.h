// Scheduler: turns process coroutines + a scheduling policy + a failure
// pattern into a run (paper Sect. 3.3).
//
// One call to step(p) is one atomic step of p: the scheduler executes p's
// pending shared-object/FD operation against the world (execute), then
// resumes p's coroutine until it requests its next operation or returns
// (resume). The policy chooses which runnable process steps next;
// adversarial policies (used for the Theorem 1/5 separations) may inspect
// the whole world, which is exactly the power the paper's adversary has.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "common/local_ptr.h"
#include "common/rng.h"
#include "sim/coro.h"
#include "sim/env.h"
#include "sim/world.h"

namespace wfd::sim {

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  // Choose one process among `runnable` (never empty).
  virtual Pid next(const ProcSet& runnable, const World& world, Rng& rng) = 0;
};

// Uniformly random among runnable processes: fair with probability 1.
class RandomPolicy : public SchedulePolicy {
 public:
  Pid next(const ProcSet& runnable, const World&, Rng& rng) override;
};

// Cyclic order; the canonical fair schedule.
class RoundRobinPolicy : public SchedulePolicy {
 public:
  Pid next(const ProcSet& runnable, const World&, Rng& rng) override;

 private:
  Pid last_ = -1;
};

// Fixed prefix of pids (entries not runnable are skipped), then a fallback
// policy. Used to steer runs into the proofs' constructed prefixes.
class ScriptedPolicy : public SchedulePolicy {
 public:
  ScriptedPolicy(std::vector<Pid> script,
                 std::unique_ptr<SchedulePolicy> fallback);
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override;

 private:
  std::vector<Pid> script_;
  std::size_t pos_ = 0;
  std::unique_ptr<SchedulePolicy> fallback_;
};

// Partial synchrony (Dwork–Lynch–Stockmeyer, cited as [10] in the paper):
// before an unknown global stabilization time the schedule is chaotic —
// a rotating victim is starved for long stretches — and from GST on it is
// round-robin, so relative speeds are bounded. The paper's introduction
// motivates failure detectors as an abstraction of exactly this kind of
// timing assumption; core/omega_impl.h implements Omega on top of it.
class EventuallySynchronousPolicy : public SchedulePolicy {
 public:
  explicit EventuallySynchronousPolicy(Time gst, Time starve_stretch = 97)
      : gst_(gst), starve_stretch_(starve_stretch) {}
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override;

 private:
  Time gst_;
  Time starve_stretch_;
  RoundRobinPolicy rr_;
};

// Arbitrary adversary from a function.
class FnPolicy : public SchedulePolicy {
 public:
  using Fn = std::function<Pid(const ProcSet&, const World&, Rng&)>;
  explicit FnPolicy(Fn fn) : fn_(std::move(fn)) {}
  Pid next(const ProcSet& runnable, const World& world, Rng& rng) override {
    return fn_(runnable, world, rng);
  }

 private:
  Fn fn_;
};

class Scheduler;

// Hooks into Scheduler::run, whose iteration is: correct-done check,
// budget check, beforeStep, empty-runnable check, filter, policy pick,
// step, afterStep. The chaos engine (sim/chaos.h) uses the first two; the
// watchdog (sim/watchdog.h) the third.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  // May inject crashes: run() reads the runnable set after it.
  virtual void beforeStep(World& /*world*/, const Scheduler& /*sched*/) {}
  // The set the policy picks from: a nonempty subset of `runnable`.
  [[nodiscard]] virtual ProcSet filter(const ProcSet& runnable,
                                       const World& /*world*/,
                                       const Scheduler& /*sched*/) const {
    return runnable;
  }
  // After every completed step; true stops the run.
  virtual bool afterStep(World& /*world*/, const Scheduler& /*sched*/) {
    return false;
  }
};

class Scheduler {
 public:
  Scheduler(World* world, std::uint64_t seed) : world_(world), rng_(seed) {}

  // Register process p's automaton. Must be called once per pid before run.
  void add(Pid p, Coro<Unit> coro);

  // Processes allowed to take a step now: not finished, not in F(now).
  // The world keeps F(now) and correct(F) (World::crashed, ::correct);
  // the scheduler keeps the unfinished set, so both reads are two masks.
  [[nodiscard]] ProcSet runnable() const {
    return undone_.minus(world_->crashed());
  }

  [[nodiscard]] bool allCorrectDone() const {
    return undone_.intersect(world_->correct()).empty();
  }

  // One atomic step of p. p must be runnable. step(p) is execute(p) then
  // resume(p).
  void step(Pid p);

  // The two halves of a step, for the explorer, which reads the
  // successor's state between them (sim/explore.cc).
  //
  // execute(p) opens the step (the auditor's onStepBegin) and runs p's
  // parked ctx(p).pending operation on the world. A process that has not
  // started has no pending operation: execute first runs its prologue up
  // to the first request, which moves its frame. Otherwise execute leaves
  // the scheduler as it was, with the result parked in ctx(p).result, so
  // World::restore to a snapshot taken before it undoes the step.
  void execute(Pid p);
  // resume(p) completes the step execute(p) opened, which must be the last
  // one executed: logs the result, resumes p's frame until its next
  // request (or return), advances the clock, closes the audit bracket and
  // retires p if it is done.
  void resume(Pid p);

  // Run under `policy` until all correct processes finished, max_steps
  // elapsed, or `observer` stopped it. Returns steps taken; run(p, a) then
  // run(p, b) is run(p, a + b). step()'s errors propagate.
  Time run(SchedulePolicy& policy, Time max_steps,
           StepObserver* observer = nullptr);

  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  //
  // Coroutine frames cannot be copied, so a checkpoint stores, per
  // process, the stream of operation RESULTS it has consumed. restore()
  // rebuilds a frame by re-running the (deterministic) automaton against
  // that stream — a purely local replay that never touches the world: no
  // World::execute, no clock advance, no trace traffic.
  //
  // The streams are persistent append-only lists (ResultNode below): a
  // checkpoint shares them by pointer, so taking one costs O(processes),
  // and two logs with the same head pointer are the same stream. Nodes
  // count their holders with a plain integer (common/local_ptr.h): a
  // result log, like the run it belongs to, stays on one thread.

  // One consumed result. `prev` is the result before it, so a head pointer
  // names the whole stream; nodes are immutable once linked.
  struct ResultNode;
  using ResultLog = LocalPtr<const ResultNode>;
  struct ResultNode {
    OpResult result;
    ResultLog prev;
    std::size_t len = 0;         // results in the stream ending here
    std::uint64_t digest = 0;    // resultDigest() after this result
    ResultNode(const OpResult& r, ResultLog p, std::size_t l,
               std::uint64_t d)
        : result(r), prev(std::move(p)), len(l), digest(d) {}
    ResultNode(const ResultNode&) = delete;
    ResultNode& operator=(const ResultNode&) = delete;
    ~ResultNode();  // unlinks iteratively: logs can be long
  };

  // Capture per-process result streams from here on. Must be called
  // before the first step; costs one node (an OpResult copy) per step.
  void enableResultLog();

  // Stable digest of the results process p has consumed so far, in
  // program order. A component of the explorer's state-memoization key:
  // together with ctx(p).steps it pins down p's local automaton state.
  [[nodiscard]] std::uint64_t resultDigest(Pid p) const {
    assert(p >= 0 && static_cast<std::size_t>(p) < result_log_.size());
    const ResultLog& head = result_log_[static_cast<std::size_t>(p)];
    return head ? head->digest : 0;
  }

  struct ProcCheckpoint {
    bool started = false;
    bool done = false;
    Time steps = 0;
    ResultLog results;  // consumed results, shared with the live log
  };
  struct Checkpoint {
    Rng rng{0};
    std::vector<ProcCheckpoint> procs;
    // Drop every log head, keeping `procs`' capacity for the next fill.
    void release() {
      for (ProcCheckpoint& pc : procs) pc.results.reset();
    }
  };

  // Requires enableResultLog() to have been active since step one. O(n):
  // one pointer copy per process. Overwrites `ck` in place, reusing its
  // capacity.
  void checkpoint(Checkpoint& ck) const;

  // Bring every process slot to its state in `ck`. A live slot whose log
  // head is the checkpoint's pointer, with equal steps/started/done, is
  // KEPT: a frame is a function of the results it consumed, so it already
  // is the frame a rebuild would produce (a slot executed but not resumed
  // since `ck` is kept too). Every other slot is rebuilt by local replay,
  // with `make_coro` supplying its fresh coroutine (Run binds its
  // algorithm + proposal). Returns the number of results fed
  // into rebuilt frames. Throws SimAbort on a checkpoint of a differently
  // shaped run. CONTRACT: the caller restores the World to the matching
  // snapshot BEFORE calling this (replayed naming must resolve against
  // the checkpointed object table) and mutes the trace around it
  // (replayed free actions re-fire).
  std::uint64_t restore(const Checkpoint& ck,
                        const std::function<Coro<Unit>(Pid)>& make_coro);

  [[nodiscard]] const ProcCtx& ctx(Pid p) const {
    // Cold inspection path (checkers, tests); bounds-checked on purpose.
    return slots_.at(static_cast<std::size_t>(p))->ctx;  // model-lint-allow: cold inspection accessor
  }

  // The run's policy RNG (seeded from RunConfig::seed), for drivers that
  // pick steps by hand.
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  struct Slot {
    ProcCtx ctx;
    Coro<Unit> coro;
    bool started = false;
  };

  Slot& slotOf(Pid p) {
    assert(static_cast<std::size_t>(p) < slots_.size() &&
           slots_[static_cast<std::size_t>(p)]);
    return *slots_[static_cast<std::size_t>(p)];
  }

  // The bodies of execute(p) and resume(p), forced inline so step(p)
  // costs one call and one slot lookup.
  [[gnu::always_inline]] inline void executeSlot(Slot& slot, Pid p);
  [[gnu::always_inline]] inline void resumeSlot(Slot& slot, Pid p);

  // Run the slot's frame until it requests its next atomic operation or
  // its top-level coroutine completes.
  static void runUntilBlockedOrDone(Slot& slot);

  // Rebuild one slot from its checkpoint via local replay (see restore).
  // The slot is reused when it exists.
  void restoreSlot(Pid p, Coro<Unit> coro, const ProcCheckpoint& pc);

  World* world_;
  Rng rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  ProcSet undone_;  // registered processes whose coroutine has not returned

  // Checkpoint support: per-process consumed-result log heads.
  bool log_results_ = false;
  std::vector<ResultLog> result_log_;

  // restoreSlot's program-order view of a log, kept to reuse its
  // capacity.
  std::vector<const OpResult*> replay_;
};

}  // namespace wfd::sim
