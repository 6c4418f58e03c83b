// Chaos: composable, seed-deterministic fault injection for runs.
//
// The paper's results are adversarial: k-set agreement stays safe for
// ANY failure pattern in E_f, ANY history in D(F), ANY schedule. The
// normal test suite samples friendly corners of that space; the chaos
// engine samples hostile ones — crashes placed at critical steps, FD
// histories pushed to the edge of (and, for negative controls, past) the
// axioms, schedules that starve processes for long bounded stretches —
// while the run watchdog (sim/watchdog.h) turns every outcome into a
// structured RunReport instead of an assert or a hang.
//
// Injector legality contract (docs/CHAOS.md):
//  * Crash injection edits the run's failure pattern F to a later pattern
//    F' with MORE crashes. It is legal iff F' stays in the environment
//    the run's claims quantify over AND the run's FD history is still in
//    D(F'). The engine enforces the F' side itself (crash budget
//    `max_faulty`, at least one process left correct, `protected_pids`
//    untouchable); the D(F') side is the configuration's job — e.g. an
//    Upsilon run pins stable_set = Pi and pre-seeds one crash so that
//    stable_set != correct(F') survives any extra crash, and an Omega^k
//    run protects its stable leaders.
//  * FD glitches wrap the detector. Legal glitches (glitchIsLegal)
//    replace pre-stabilization output with fresh in-range noise or
//    postpone stabilization — histories still inside the detector's
//    axiom family, so safety MUST survive them. Illegal glitches are
//    negative controls: they break range, constancy, or the end-of-run
//    conditions, and the online axiom checker (sim/step_audit.h) MUST
//    flag them (verdict kAxiomViolation).
//  * Schedule bias (starvation windows, shared-memory op delay) only
//    filters the runnable set for bounded intervals and never empties
//    it, so every chaos schedule is still a schedule of the model and
//    fairness holds eventually. Safety never depends on fairness.
//
// Everything is a pure function of the configured seeds: replaying a
// ChaosConfig + RunConfig reproduces the run bit-for-bit (trace hash
// equality), which is what makes a chaos counterexample debuggable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "fd/failure_detector.h"
#include "sim/runner.h"
#include "sim/watchdog.h"

namespace wfd::sim {

// ---- FD glitch injection -------------------------------------------------

enum class GlitchKind {
  kNone,
  // Legal: the wrapped history stays inside the inner detector's axiom
  // family. Safety must survive these.
  kScrambleNoise,        // re-randomize pre-stabilization output (in range)
  kDelayStabilization,   // extend the noise phase by `delay` (reported
                         // honestly via stabilizationTime())
  // Illegal: negative controls for the online axiom checker.
  kEmptyAnswer,          // every answer {} — breaks non-emptiness/range
  kUndersizedAnswer,     // strictly below the family's minimum size
  kPostStabFlap,         // post-stabilization output flaps with t's parity
  kStabToCorrect,        // Upsilon control: stabilize on correct(F) exactly
  kStabExcludeCorrect,   // Omega^k control: stable set of faulty processes
};

[[nodiscard]] bool glitchIsLegal(GlitchKind k);
[[nodiscard]] const char* glitchName(GlitchKind k);

struct FdGlitch {
  GlitchKind kind = GlitchKind::kNone;
  Time delay = 0;          // kDelayStabilization: extra noise steps
  std::uint64_t seed = 0;  // reseeds scrambled noise
};

// ---- Crash injection -----------------------------------------------------

struct CrashInjection {
  enum class Strategy {
    kAtTime,    // crash `victim` when the clock reaches `at`
    kRandom,    // crash `count` seeded victims at seeded times in [0,horizon]
    kFdLeader,  // at `at`, crash the smallest live member of the FD's
                // current output — the process every k-converge round is
                // about to adopt as leader (the critical step)
    kOnDecide,  // crash a process at the step its decision lands, up to
                // `count` times (the classic "decide then die" adversary)
  };
  Strategy strategy = Strategy::kRandom;
  Pid victim = -1;          // kAtTime
  Time at = 0;              // kAtTime / kFdLeader trigger time
  Time horizon = 1000;      // kRandom: crash times drawn from [0, horizon]
  int count = 1;            // kRandom / kOnDecide
  std::uint64_t seed = 0;   // kRandom: victim/time stream
};

// ---- Object-level fault injection ---------------------------------------

// Stale-but-linearizable snapshot views (docs/CHAOS.md): each snapshot
// scan is, with probability permille/1000, served the view the object
// held when the scan was REQUESTED instead of when it executes — the
// oldest view an atomic scan may legally return (a scan linearizes
// anywhere between invocation and response, so the invocation-time
// memory is a legal linearization; concurrent updates simply order
// after it). Safety must survive this injector unconditionally.
//
// `illegal_past` is the negative control: serve the view captured at
// that process's PREVIOUS overridden scan of the same object — a view
// that can predate updates which completed before this scan even began.
// The step auditor's stale-scan rule (sim/step_audit.h) must flag it
// whenever the served view matches neither the request-time nor the
// response-time memory.
struct StaleSnapshot {
  int permille = 250;      // per-scan injection probability (0..1000)
  std::uint64_t seed = 0;  // independent fire stream
  bool illegal_past = false;
};

// ---- Schedule bias -------------------------------------------------------

// Starve `victims` for the bounded window [from, from + length).
struct StarvationWindow {
  ProcSet victims;
  Time from = 0;
  Time length = 0;
};

// Deprioritize processes whose pending operation touches shared memory
// (not FD queries, not local steps): in each period, seeded victims are
// held back for the first `hold` steps of the window. Models slow memory
// under contention; bounded by construction.
struct OpDelay {
  Time period = 64;
  Time hold = 16;
  std::uint64_t seed = 0;
};

// ---- Engine --------------------------------------------------------------

struct ChaosConfig {
  std::uint64_t seed = 1;
  // Crash budget: injected crashes keep |faulty(F')| <= max_faulty and
  // always leave at least one correct process. 0 disables all crash
  // injection regardless of `crashes`.
  int max_faulty = 0;
  ProcSet protected_pids;  // never crashed (FD-legality anchors)
  std::vector<CrashInjection> crashes;
  std::vector<StarvationWindow> starvation;
  std::optional<OpDelay> op_delay;
  std::optional<StaleSnapshot> stale_snapshot;
  FdGlitch glitch;

  [[nodiscard]] bool legal() const {
    // Crash/schedule injectors are always legal; stale snapshots are
    // legal unless running the illegal-past negative control.
    return glitchIsLegal(glitch.kind) &&
           !(stale_snapshot.has_value() && stale_snapshot->illegal_past);
  }
};

// Perturbs the one run it observes (Scheduler::run, driveWatched).
class ChaosEngine final : public StepObserver {
 public:
  explicit ChaosEngine(ChaosConfig cfg) : cfg_(std::move(cfg)) {}

  // `cfg` with its detector glitch-wrapped and auditing on: the online
  // axiom checker is the detection instrument. An unset cfg.audit becomes
  // kThrow (a verdict at the offending step); an explicit one (e.g.
  // kCollect) is respected and checked after the run.
  [[nodiscard]] RunConfig arm(RunConfig cfg) const;

  // Crash triggers and pending-scan decisions. The scheduler is consulted
  // (read only) for each process's pending operation, so a stale view can
  // be decided — and the request-time view captured — before the scan's
  // owning step runs; the world serves it (World::serveScan).
  void beforeStep(World& world, const Scheduler& sched) override;

  // Schedule-bias injectors: filter the runnable set. Falls back to the
  // unfiltered set rather than returning empty (schedules must make
  // progress; starvation is bias, not deadlock).
  [[nodiscard]] ProcSet filter(const ProcSet& runnable, const World& world,
                               const Scheduler& sched) const override;

  [[nodiscard]] int crashesInjected() const { return crashes_injected_; }
  [[nodiscard]] const ChaosConfig& config() const { return cfg_; }

 private:
  struct TimedCrash {
    Time at = 0;
    Pid victim = -1;
    bool fired = false;
  };
  struct LeaderCrash {
    Time at = 0;
    bool fired = false;
  };

  // `inner` wrapped with the configured glitch (identity for kNone). The
  // wrapper forwards the inner AxiomSpec, so the online checker judges
  // the glitched history against the inner detector's own claim.
  [[nodiscard]] fd::FdPtr wrapFd(fd::FdPtr inner, const FailurePattern& fp,
                                 int n_plus_1) const;
  [[nodiscard]] bool wantsStaleScans() const {
    return cfg_.stale_snapshot.has_value() &&
           cfg_.stale_snapshot->permille > 0;
  }

  void plan(World& world);  // lazy: needs n+1 from the world
  bool tryCrash(World& world, Pid victim);
  void captureScans(World& world, const Scheduler& sched);

  ChaosConfig cfg_;
  bool planned_ = false;
  std::vector<TimedCrash> timed_;
  std::vector<LeaderCrash> leader_;
  int on_decide_left_ = 0;
  std::size_t decide_scan_ = 0;  // trace events inspected for kOnDecide
  int crashes_injected_ = 0;

  // Stale-snapshot state. `scan_decided_` remembers which pending scan
  // (keyed by the owner's step count at request time) was already
  // decided, so one request is decided exactly once however many
  // beforeStep calls see it pending; `scan_prev_` holds the per-(pid, obj)
  // previously captured view for the illegal-past control.
  std::map<std::pair<Pid, ObjId>, Time> scan_decided_;
  std::map<std::pair<Pid, ObjId>, SlotArray> scan_prev_;
};

// Run `algo` under cfg's policy with chaos perturbations and the watchdog:
// arms cfg (ChaosEngine::arm), drives the schedule through the engine,
// and reports a structured verdict.
RunReport runChaosTask(const RunConfig& cfg, const ChaosConfig& chaos,
                       const WatchdogConfig& wd, const AlgoFn& algo,
                       const std::vector<Value>& proposals);

}  // namespace wfd::sim
