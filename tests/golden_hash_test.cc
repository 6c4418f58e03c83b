// Golden trace-hash regression: the safety net for hot-path work.
//
// The determinism contract for perf changes (docs/PERF.md) demands that a
// scheduler/ProcSet/RegVal optimization changes not one executed schedule:
// every trace hash, step count, and decision vector must stay bit-identical
// to the binary the hashes below were recorded from. This suite replays a
// fixed grid of family × seed cells — E1-shaped (Fig. 1 set agreement over
// random, round-robin, eventually-synchronous, scripted, and Afek-snapshot
// schedules), E3-shaped (Fig. 3 extraction), and E16-shaped (chaos-injected
// watched runs) — and compares against tests/golden_hashes.inc.
//
// The .inc file was recorded from pre-refactor main (PR 4) and is
// PERMANENT: it must only be regenerated when a change intentionally
// alters schedules (a new RNG, a policy semantics change), never to make
// a perf PR pass. Regenerate with:
//
//   ./build/tests/golden_hash_test --golden-record > tests/golden_hashes.inc
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"

namespace wfd::test {
namespace {

using core::extractUpsilonF;
using core::phiOmegaK;
using core::upsilonSetAgreement;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::GlitchKind;
using sim::OpDelay;
using sim::RunConfig;
using sim::RunReport;
using sim::RunResult;
using sim::WatchdogConfig;

struct GoldenCell {
  const char* family;
  std::uint64_t seed;
  std::uint64_t trace_hash;
  Time steps;
  std::uint64_t outputs_sig;  // decisions (+ chaos verdict) signature
};

const GoldenCell kGolden[] = {
#define GOLDEN(family, seed, hash, steps, outputs) \
  {family, seed, hash, steps, outputs},
#include "golden_hashes.inc"
#undef GOLDEN
};

const char* const kFamilies[] = {
    "fig1",   "fig1-rr", "fig1-afek", "fig1-esync",
    "fig1-scripted", "fig3",    "chaos",
};
constexpr std::uint64_t kSeeds[] = {1, 2, 7, 23};

// The mixing round of wfd::mixDigest (common/types.h), kept as an
// independent copy so the signature is stable across platforms and
// recorder runs, and a change to the library's round cannot move it.
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

struct CellOutcome {
  std::uint64_t trace_hash = 0;
  Time steps = 0;
  std::uint64_t outputs_sig = 0;
};

std::uint64_t decisionsSig(const sim::Decisions& decisions,
                           std::uint64_t h) {
  for (const auto& [p, v] : decisions) {
    h = mix(h, static_cast<std::uint64_t>(p) + 1);
    h = mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

CellOutcome outcomeOf(const RunResult& rr, Time steps, std::uint64_t extra) {
  CellOutcome out;
  out.trace_hash = rr.trace().hash64();
  out.steps = steps;
  out.outputs_sig = decisionsSig(rr.decisions, mix(0xCBF29CE484222325ULL, extra));
  return out;
}

// E1-shaped: Fig. 1 Upsilon set agreement, one pre-seeded crash.
RunConfig fig1Config(int n_plus_1, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
  cfg.fd = fd::makeUpsilon(*cfg.fp, 150, seed);
  cfg.seed = seed;
  return cfg;
}

sim::AlgoFn fig1Algo() {
  return [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
}

// Drive a Run under an explicit policy (pins the policy RNG-draw contract).
CellOutcome runUnder(RunConfig cfg, sim::SchedulePolicy& policy,
                     const std::vector<Value>& props) {
  sim::Run run(cfg, fig1Algo(), props);
  const Time taken = run.scheduler().run(policy, cfg.max_steps);
  const RunResult rr = run.finish(taken);
  return outcomeOf(rr, taken, 0);
}

// The eventually-synchronous and scripted families run under their own
// schedule; every other family under cfg.policy. A BatchCell takes
// cfg.policy only, so the pool replays neither of the two.
bool hasOwnPolicy(const std::string& family) {
  return family == "fig1-esync" || family == "fig1-scripted";
}

std::unique_ptr<sim::SchedulePolicy> familyPolicy(const std::string& family,
                                                  const RunConfig& cfg) {
  if (family == "fig1-esync") {
    return std::make_unique<sim::EventuallySynchronousPolicy>(
        /*gst=*/400, /*starve_stretch=*/97);
  }
  if (family == "fig1-scripted") {
    return std::make_unique<sim::ScriptedPolicy>(
        std::vector<Pid>{0, 0, 2, 3, 1, 2, 0, 3, 3, 1},
        std::make_unique<sim::RoundRobinPolicy>());
  }
  return sim::makePolicy(cfg.policy);
}

CellOutcome runCell(const std::string& family, std::uint64_t seed) {
  if (family == "fig1") {
    const RunConfig cfg = fig1Config(4, seed);
    const RunResult rr = sim::runTask(cfg, fig1Algo(), {10, 20, 30, 40});
    return outcomeOf(rr, rr.steps, 0);
  }
  if (family == "fig1-rr") {
    RunConfig cfg = fig1Config(4, seed);
    cfg.policy = sim::PolicyKind::kRoundRobin;
    const RunResult rr = sim::runTask(cfg, fig1Algo(), {10, 20, 30, 40});
    return outcomeOf(rr, rr.steps, 0);
  }
  if (family == "fig1-afek") {
    RunConfig cfg;
    cfg.n_plus_1 = 3;
    cfg.fp = FailurePattern::failureFree(3);
    cfg.fd = fd::makeUpsilon(*cfg.fp, 80, seed);
    cfg.seed = seed;
    cfg.flavor = sim::SnapshotFlavor::kAfek;
    const RunResult rr = sim::runTask(cfg, fig1Algo(), {1, 2, 3});
    return outcomeOf(rr, rr.steps, 0);
  }
  if (hasOwnPolicy(family)) {
    const RunConfig cfg = fig1Config(4, seed);
    return runUnder(cfg, *familyPolicy(family, cfg), {10, 20, 30, 40});
  }
  if (family == "fig3") {
    const int n_plus_1 = 4;
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 40, seed);
    cfg.fd = fd::makeOmega(*cfg.fp, 100, seed);
    cfg.seed = seed;
    cfg.max_steps = 60'000;
    const auto phi = phiOmegaK(n_plus_1);
    const RunResult rr = sim::runTask(
        cfg, [phi](Env& e, Value) { return extractUpsilonF(e, phi); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    return outcomeOf(rr, rr.steps, 0);
  }
  if (family == "chaos") {
    // E16-shaped: legal injector composition (random crashes, starvation,
    // op delay, in-axiom FD noise) under the watchdog. Exercises the
    // mid-run injectCrash path against the scheduler's runnable tracking.
    const int n_plus_1 = 4;
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 50}});
    cfg.fd = fd::makeUpsilon(*cfg.fp, ProcSet::full(n_plus_1), 300, seed);
    cfg.seed = seed;
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 2;
    // Short horizon / early window: the runs below finish in a few dozen
    // steps, and the injectors must actually fire inside that window for
    // this family to pin the mid-run crash + schedule-bias paths.
    chaos.crashes.push_back({CrashInjection::Strategy::kRandom,
                             /*victim=*/-1, /*at=*/0, /*horizon=*/12,
                             /*count=*/2, /*seed=*/seed * 7});
    chaos.starvation.push_back({ProcSet{0}, 5, 10});
    chaos.op_delay = OpDelay{8, 3, seed};
    chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed};
    const RunReport rep =
        runChaosTask(cfg, chaos, WatchdogConfig{3'000'000, 0, n_plus_1 - 1},
                     fig1Algo(), distinctProposals(n_plus_1));
    return outcomeOf(rep.result, rep.steps,
                     static_cast<std::uint64_t>(rep.verdict) + 1);
  }
  ADD_FAILURE() << "unknown golden family: " << family;
  return {};
}

// The same grid as BatchCells, so the work-stealing pool can replay it.
// Recipes mirror runCell exactly, except that esync/scripted cells carry
// no policy: familyPolicy supplies it where a test drives them itself.
sim::BatchCell batchCell(const std::string& family, std::uint64_t seed) {
  sim::BatchCell cell;
  cell.algo = fig1Algo();
  if (family == "fig1" || hasOwnPolicy(family)) {
    cell.cfg = fig1Config(4, seed);
    cell.proposals = {10, 20, 30, 40};
  } else if (family == "fig1-rr") {
    cell.cfg = fig1Config(4, seed);
    cell.cfg.policy = sim::PolicyKind::kRoundRobin;
    cell.proposals = {10, 20, 30, 40};
  } else if (family == "fig1-afek") {
    cell.cfg.n_plus_1 = 3;
    cell.cfg.fp = FailurePattern::failureFree(3);
    cell.cfg.fd = fd::makeUpsilon(*cell.cfg.fp, 80, seed);
    cell.cfg.seed = seed;
    cell.cfg.flavor = sim::SnapshotFlavor::kAfek;
    cell.proposals = {1, 2, 3};
  } else if (family == "fig3") {
    const int n_plus_1 = 4;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 40, seed);
    cell.cfg.fd = fd::makeOmega(*cell.cfg.fp, 100, seed);
    cell.cfg.seed = seed;
    cell.cfg.max_steps = 60'000;
    const auto phi = phiOmegaK(n_plus_1);
    cell.algo = [phi](Env& e, Value) { return extractUpsilonF(e, phi); };
    cell.proposals = std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0);
  } else if (family == "chaos") {
    const int n_plus_1 = 4;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp =
        FailurePattern::withCrashes(n_plus_1, {{n_plus_1 - 1, 50}});
    cell.cfg.fd =
        fd::makeUpsilon(*cell.cfg.fp, ProcSet::full(n_plus_1), 300, seed);
    cell.cfg.seed = seed;
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 2;
    chaos.crashes.push_back({CrashInjection::Strategy::kRandom,
                             /*victim=*/-1, /*at=*/0, /*horizon=*/12,
                             /*count=*/2, /*seed=*/seed * 7});
    chaos.starvation.push_back({ProcSet{0}, 5, 10});
    chaos.op_delay = OpDelay{8, 3, seed};
    chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed};
    cell.chaos = chaos;
    cell.watchdog = WatchdogConfig{3'000'000, 0, n_plus_1 - 1};
    cell.proposals = distinctProposals(n_plus_1);
  } else {
    ADD_FAILURE() << "unknown golden family: " << family;
  }
  return cell;
}

TEST(GoldenHashes, GridIsComplete) {
  // One recorded cell for every family × seed the recorder emits — a
  // truncated or stale .inc fails loudly instead of silently shrinking
  // the safety net.
  EXPECT_EQ(std::size(kGolden), std::size(kFamilies) * std::size(kSeeds));
}

TEST(GoldenHashes, EveryCellReplaysBitIdentically) {
  for (const GoldenCell& cell : kGolden) {
    const CellOutcome got = runCell(cell.family, cell.seed);
    EXPECT_EQ(got.trace_hash, cell.trace_hash)
        << cell.family << " seed=" << cell.seed << ": trace hash diverged";
    EXPECT_EQ(got.steps, cell.steps)
        << cell.family << " seed=" << cell.seed << ": step count diverged";
    EXPECT_EQ(got.outputs_sig, cell.outputs_sig)
        << cell.family << " seed=" << cell.seed
        << ": decisions/verdict diverged";
  }
}

TEST(GoldenHashes, BatchReplayUnderStealingMatchesTheGrid) {
  // The whole grid through the work-stealing pool at jobs=4: whatever
  // worker a cell lands on (or is stolen to), its trace hash, step count,
  // and outputs signature must equal the recorded serial values. This is
  // the golden safety net extended over sim/batch.h's scheduler. The two
  // families with their own policy stay with the serial grid above.
  std::vector<sim::BatchCell> cells;
  std::vector<const GoldenCell*> expect;
  for (const GoldenCell& g : kGolden) {
    if (hasOwnPolicy(g.family)) continue;
    cells.push_back(batchCell(g.family, g.seed));
    expect.push_back(&g);
  }
  const auto results =
      sim::BatchRunner(sim::BatchOptions{4, /*steal=*/true}).run(cells);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GoldenCell& g = *expect[i];
    const sim::CellResult& r = results[i];
    ASSERT_FALSE(r.error) << g.family << " seed=" << g.seed << ": "
                          << r.detail;
    const bool chaos = std::strcmp(g.family, "chaos") == 0;
    const std::uint64_t extra =
        chaos ? static_cast<std::uint64_t>(r.verdict) + 1 : 0;
    const std::uint64_t sig =
        decisionsSig(r.decisions, mix(0xCBF29CE484222325ULL, extra));
    EXPECT_EQ(r.trace_hash, g.trace_hash)
        << g.family << " seed=" << g.seed << ": batch trace hash diverged";
    EXPECT_EQ(r.steps, g.steps)
        << g.family << " seed=" << g.seed << ": batch step count diverged";
    EXPECT_EQ(sig, g.outputs_sig)
        << g.family << " seed=" << g.seed << ": batch outputs diverged";
  }
}

// ---- Checkpoint/restore bit-identity (sim/explore.h prefix sharing) ------
//
// The explorer's soundness rests on Run::restore being invisible: a run
// that is checkpointed, rewound, and re-driven must produce the same trace
// hash — bit for bit — as one that never checkpointed. Held here across
// the same 7 golden families, driven by a deterministic policy-free
// rotation so the comparison is independent of policy/RNG state (which a
// checkpoint deliberately does not capture for policies).

Pid rotNext(const ProcSet& runnable, Pid& last) {
  Pid p = runnable.nextAbove(last);
  if (p < 0) p = runnable.min();
  last = p;
  return p;
}

// Drive by rotation until all correct processes finish or `horizon` steps.
Time driveRotation(sim::Run& run, Pid& last, Time from, Time horizon) {
  Time steps = from;
  while (!run.scheduler().allCorrectDone() && steps < horizon) {
    const ProcSet r = run.scheduler().runnable();
    if (r.empty()) break;
    run.scheduler().step(rotNext(r, last));
    ++steps;
  }
  return steps;
}

TEST(GoldenHashes, RestoreThenContinueIsBitIdenticalAcrossFamilies) {
  // fig3 never finishes on its own (extraction runs to the step budget),
  // so every family is driven to a fixed horizon or completion.
  constexpr Time kHorizon = 1500;
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const sim::BatchCell cell = batchCell(family, /*seed=*/7);

    // A: the straight-line reference (checkpoint machinery on, unused).
    sim::Run a(cell.cfg, cell.algo, cell.proposals);
    a.enableCheckpoints();
    Pid la = -1;
    const Time sa = driveRotation(a, la, 0, kHorizon);
    const std::uint64_t ha = a.world().trace().hash64();
    ASSERT_GT(sa, 0);

    // B: checkpoint mid-run, run to the end, rewind, run to the end again.
    sim::Run b(cell.cfg, cell.algo, cell.proposals);
    b.enableCheckpoints();
    Pid lb = -1;
    const Time mid = sa / 2;
    ASSERT_EQ(driveRotation(b, lb, 0, mid), mid);
    const sim::RunCheckpoint ck = b.checkpoint();
    const Pid last_at_ck = lb;
    EXPECT_EQ(driveRotation(b, lb, mid, kHorizon), sa);
    EXPECT_EQ(b.world().trace().hash64(), ha)
        << "drive with checkpoint taken diverged from straight line";
    b.restore(ck);
    lb = last_at_ck;
    EXPECT_EQ(driveRotation(b, lb, mid, kHorizon), sa);
    EXPECT_EQ(b.world().trace().hash64(), ha)
        << "restore-then-continue diverged from straight line";

    // C: the same checkpoint restored onto a FRESH run of the same
    // configuration (the cross-run validity RunCheckpoint documents).
    sim::Run c(cell.cfg, cell.algo, cell.proposals);
    c.enableCheckpoints();
    c.restore(ck);
    Pid lc = last_at_ck;
    EXPECT_EQ(driveRotation(c, lc, mid, kHorizon), sa);
    EXPECT_EQ(c.world().trace().hash64(), ha)
        << "fresh-run restore diverged from straight line";
  }
}

// ---- Kept frames: restore rebuilds only the processes that moved ---------
//
// Scheduler::restore keeps a live frame whose result-log head is the
// checkpoint's own pointer. These pin the rule from both sides: a restore
// after steps of p1 alone replays p1's results and nothing else, and the
// kept frames continue bit-identically to a run that never checkpointed.

TEST(GoldenHashes, RestoreRebuildsOnlyTheProcessesThatStepped) {
  constexpr Time kHorizon = 1500;
  constexpr Pid kMover = 0;
  int exercised = 0;
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const sim::BatchCell cell = batchCell(family, /*seed=*/7);
    sim::Run a(cell.cfg, cell.algo, cell.proposals);
    a.enableCheckpoints();
    Pid la = -1;
    const Time sa = driveRotation(a, la, 0, kHorizon);
    const std::uint64_t ha = a.world().trace().hash64();

    sim::Run b(cell.cfg, cell.algo, cell.proposals);
    b.enableCheckpoints();
    Pid lb = -1;
    const Time mid = sa / 2;
    ASSERT_EQ(driveRotation(b, lb, 0, mid), mid);
    const sim::RunCheckpoint ck = b.checkpoint();
    const Pid last_at_ck = lb;
    int moved = 0;
    while (moved < 5 && b.scheduler().runnable().contains(kMover)) {
      b.scheduler().step(kMover);
      ++moved;
    }
    if (moved == 0) continue;  // the mover finished or crashed by mid
    ++exercised;
    // Every step of a started process consumed one result, so the one
    // rebuilt frame replays exactly the mover's steps up to the checkpoint.
    EXPECT_EQ(b.restore(ck),
              static_cast<std::uint64_t>(
                  ck.sched.procs[static_cast<std::size_t>(kMover)].steps));
    lb = last_at_ck;
    EXPECT_EQ(driveRotation(b, lb, mid, kHorizon), sa);
    EXPECT_EQ(b.world().trace().hash64(), ha)
        << "kept frames diverged from straight line";
    // Back to back, the second restore finds every frame in place.
    b.restore(ck);
    EXPECT_EQ(b.restore(ck), 0u);
  }
  EXPECT_GT(exercised, 0);
}

TEST(GoldenHashes, RestoreIntoAFreshRunRebuildsEveryProcess) {
  const sim::BatchCell cell = batchCell("fig1", /*seed=*/7);
  sim::Run b(cell.cfg, cell.algo, cell.proposals);
  b.enableCheckpoints();
  Pid lb = -1;
  ASSERT_EQ(driveRotation(b, lb, 0, 40), 40);
  const sim::RunCheckpoint ck = b.checkpoint();
  sim::Run c(cell.cfg, cell.algo, cell.proposals);
  c.enableCheckpoints();
  EXPECT_EQ(c.restore(ck), 40u);  // no live frame shares a log head
  for (Pid p = 0; p < cell.cfg.n_plus_1; ++p) {
    EXPECT_EQ(c.scheduler().ctx(p).steps, b.scheduler().ctx(p).steps);
  }
}

TEST(GoldenHashes, KeptFrameStepsUnderTheThrowingAuditor) {
  // World::restore replaces the auditor; a kept frame that still called
  // the old one's hook would touch freed memory (the asan-ubsan preset
  // reports it) instead of reporting to the live auditor.
  sim::BatchCell cell = batchCell("fig1", /*seed=*/7);
  cell.cfg.audit = sim::AuditMode::kThrow;
  constexpr Time kMid = 60;
  // Reference: rotation to kMid, one step of p0, rotation to the end.
  sim::Run a(cell.cfg, cell.algo, cell.proposals);
  a.enableCheckpoints();
  Pid la = -1;
  ASSERT_EQ(driveRotation(a, la, 0, kMid), kMid);
  a.scheduler().step(0);
  la = 0;
  const Time sa = driveRotation(a, la, kMid + 1, 1500);

  // The same schedule, with a detour through p1 undone by a restore that
  // keeps p0's frame.
  sim::Run b(cell.cfg, cell.algo, cell.proposals);
  b.enableCheckpoints();
  Pid lb = -1;
  ASSERT_EQ(driveRotation(b, lb, 0, kMid), kMid);
  const sim::RunCheckpoint ck = b.checkpoint();
  ASSERT_TRUE(b.scheduler().runnable().contains(1));
  b.scheduler().step(1);
  ASSERT_EQ(b.restore(ck),
            static_cast<std::uint64_t>(ck.sched.procs[1].steps));
  b.scheduler().step(0);
  lb = 0;
  EXPECT_EQ(driveRotation(b, lb, kMid + 1, 1500), sa);
  EXPECT_EQ(b.world().trace().hash64(), a.world().trace().hash64());
}

TEST(GoldenHashes, RestoreRefusesACheckpointOfAnotherShape) {
  const sim::BatchCell three = batchCell("fig1-afek", /*seed=*/7);
  sim::Run small(three.cfg, three.algo, three.proposals);
  small.enableCheckpoints();
  Pid l = -1;
  ASSERT_EQ(driveRotation(small, l, 0, 12), 12);
  const sim::RunCheckpoint ck = small.checkpoint();
  const sim::BatchCell four = batchCell("fig1", /*seed=*/7);
  sim::Run big(four.cfg, four.algo, four.proposals);
  big.enableCheckpoints();
  EXPECT_THROW(big.restore(ck), sim::SimAbort);
}

// ---- Recycled checkpoints: Run::checkpoint(RunCheckpoint&) ----------------
//
// The explorer keeps one RunCheckpoint per DFS depth, releases it when its
// node pops, and refills it at the next push. A refilled checkpoint must
// restore exactly as a freshly taken one, whatever branch it held before,
// and a released one must hold nothing that makes the live run copy.

// What a restore produced: its rebuilt count, the restored world, and
// where a rotation drive from there ends.
struct Restored {
  std::uint64_t rebuilt = 0;
  Time now = 0;
  std::uint64_t contents = 0;
  std::uint64_t trace_at_restore = 0;
  std::vector<Time> proc_steps;
  Time end_steps = 0;
  std::uint64_t end_hash = 0;
};

Restored restoreAndFinish(const sim::BatchCell& cell,
                          const sim::RunCheckpoint& ck, Pid last, Time from,
                          Time horizon) {
  sim::Run run(cell.cfg, cell.algo, cell.proposals);
  run.enableCheckpoints();
  Restored r;
  r.rebuilt = run.restore(ck);
  r.now = run.world().now();
  r.contents = run.world().objectsConst().xorContentsDigestFull();
  r.trace_at_restore = run.world().trace().hash64();
  for (Pid p = 0; p < cell.cfg.n_plus_1; ++p) {
    r.proc_steps.push_back(run.scheduler().ctx(p).steps);
  }
  r.end_steps = driveRotation(run, last, from, horizon);
  r.end_hash = run.world().trace().hash64();
  return r;
}

void expectSameRestore(const Restored& got, const Restored& want) {
  EXPECT_EQ(got.rebuilt, want.rebuilt);
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.contents, want.contents);
  EXPECT_EQ(got.trace_at_restore, want.trace_at_restore);
  EXPECT_EQ(got.proc_steps, want.proc_steps);
  EXPECT_EQ(got.end_steps, want.end_steps);
  EXPECT_EQ(got.end_hash, want.end_hash);
}

TEST(GoldenHashes, RefilledCheckpointRestoresLikeAFreshOneAcrossFamilies) {
  constexpr Time kHorizon = 1500;
  constexpr Pid kMover = 0;
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const sim::BatchCell cell = batchCell(family, /*seed=*/7);
    sim::Run a(cell.cfg, cell.algo, cell.proposals);
    a.enableCheckpoints();
    Pid la = -1;
    const Time sa = driveRotation(a, la, 0, kHorizon);
    const std::uint64_t ha = a.world().trace().hash64();
    const Time mid = sa / 2;

    // Another branch: a prefix of the rotation, then kMover alone for a
    // while, so the recycled checkpoints first hold a state off the
    // reference schedule (other objects, events and log heads).
    sim::Run other(cell.cfg, cell.algo, cell.proposals);
    other.enableCheckpoints();
    Pid lo = -1;
    driveRotation(other, lo, 0, mid / 2);
    for (int i = 0; i < 40 && other.scheduler().runnable().contains(kMover);
         ++i) {
      other.scheduler().step(kMover);
    }
    sim::RunCheckpoint released;  // refilled after a release, as on a pop
    sim::RunCheckpoint overwritten;  // refilled over the other branch
    other.checkpoint(released);
    other.checkpoint(overwritten);
    released.release();

    sim::Run b(cell.cfg, cell.algo, cell.proposals);
    b.enableCheckpoints();
    Pid lb = -1;
    ASSERT_EQ(driveRotation(b, lb, 0, mid), mid);
    const sim::RunCheckpoint fresh = b.checkpoint();
    b.checkpoint(released);
    b.checkpoint(overwritten);
    const Pid last_at_ck = lb;

    const Restored want =
        restoreAndFinish(cell, fresh, last_at_ck, mid, kHorizon);
    EXPECT_EQ(want.end_steps, sa);
    EXPECT_EQ(want.end_hash, ha);
    {
      SCOPED_TRACE("refilled after release");
      expectSameRestore(
          restoreAndFinish(cell, released, last_at_ck, mid, kHorizon), want);
    }
    {
      SCOPED_TRACE("refilled over another branch");
      expectSameRestore(
          restoreAndFinish(cell, overwritten, last_at_ck, mid, kHorizon),
          want);
    }
    // And onto the run that took it, after running past it.
    driveRotation(b, lb, mid, kHorizon);
    b.restore(released);
    lb = last_at_ck;
    EXPECT_EQ(driveRotation(b, lb, mid, kHorizon), sa);
    EXPECT_EQ(b.world().trace().hash64(), ha);
  }
}

// A checkpoint shares the live run's copy-on-write parts, so while it is
// held the live run's next snapshot update or trace record copies them
// (the holder keeps what it saw). After release() it holds no reference:
// the same writes copy nothing. A copy shows as a moved address: the
// cells' begin(), or the event vector's. Each step of cellWriter updates
// its cell (no scan, so no result-log node shares the cells) and records
// a note.
sim::Coro<sim::Unit> cellWriter(Env& env, Value v) {
  const ObjId s = env.snap(sim::ObjKey{"test.cells"}, env.nProcs());
  for (Value i = 1; i <= 8; ++i) {
    co_await env.snapUpdate(s, env.me(), RegVal(v + i));
    env.note("wrote", RegVal(v + i));
  }
  co_return sim::Unit{};
}

TEST(GoldenHashes, ReleasedCheckpointHoldsNoReference) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  sim::Run run(cfg, cellWriter, {10, 20});
  run.enableCheckpoints();
  sim::Scheduler& sched = run.scheduler();
  sim::World& w = run.world();
  sched.step(0);  // names the object, updates once
  const ObjId s = w.objects().snapId(sim::ObjKey{"test.cells"}, 2);

  sim::RunCheckpoint ck;
  run.checkpoint(ck);
  const RegVal* cells = w.objectsConst().peekSlots(s).begin();
  const std::vector<sim::Event>* events = &w.trace().events();
  sched.step(0);
  EXPECT_NE(w.objectsConst().peekSlots(s).begin(), cells)
      << "a held checkpoint must make the update copy the cells";
  EXPECT_NE(&w.trace().events(), events)
      << "a held checkpoint must make the record copy the events";

  run.checkpoint(ck);  // refill, then release as a popped node does
  ck.release();
  cells = w.objectsConst().peekSlots(s).begin();
  events = &w.trace().events();
  sched.step(0);
  EXPECT_EQ(w.objectsConst().peekSlots(s).begin(), cells)
      << "a released checkpoint still shares the cells";
  EXPECT_EQ(&w.trace().events(), events)
      << "a released checkpoint still shares the event vector";
  for (const sim::Scheduler::ProcCheckpoint& pc : ck.sched.procs) {
    EXPECT_EQ(pc.results, nullptr) << "a released log head is still held";
  }
  EXPECT_EQ(ck.sched.procs.size(), 2u);
  // Released is as good as never taken: restoring it is refused.
  EXPECT_THROW(run.restore(ck), sim::SimAbort);
}

// ---- Resumption: Scheduler::run called in pieces --------------------------
//
// run(policy, a) then run(policy, b) must equal run(policy, a + b): the
// loop keeps no state between calls, so a driver may cut a run into
// pieces without moving a single step. The chaos family resumes with its
// engine as the step observer.

struct Driven {
  Time steps = 0;
  std::uint64_t trace_hash = 0;
};

Driven driveInPieces(const std::string& family, const sim::BatchCell& cell,
                     const std::vector<Time>& pieces) {
  std::optional<sim::ChaosEngine> engine;
  if (cell.chaos.has_value()) engine.emplace(*cell.chaos);
  sim::Run run(engine.has_value() ? engine->arm(cell.cfg) : cell.cfg,
               cell.algo, cell.proposals);
  const auto policy = familyPolicy(family, cell.cfg);
  Driven out;
  for (const Time n : pieces) {
    out.steps += run.scheduler().run(
        *policy, n, engine.has_value() ? &*engine : nullptr);
  }
  out.trace_hash = run.world().trace().hash64();
  return out;
}

TEST(GoldenHashes, RunResumesAcrossCallsInEveryFamily) {
  constexpr Time kHorizon = 1500;
  for (const char* family : kFamilies) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(family) + " seed=" + std::to_string(seed));
      const sim::BatchCell cell = batchCell(family, seed);
      const Driven whole = driveInPieces(family, cell, {kHorizon});
      ASSERT_GT(whole.steps, 1);
      const Time a = whole.steps / 2;
      const Driven split = driveInPieces(family, cell, {a, kHorizon - a});
      EXPECT_EQ(split.steps, whole.steps);
      EXPECT_EQ(split.trace_hash, whole.trace_hash);
    }
  }
}

int goldenRecord() {
  std::printf(
      "// Golden per-cell (trace hash, step count, outputs signature)\n"
      "// recorded from pre-refactor main by golden_hash_test "
      "--golden-record.\n"
      "// DO NOT regenerate to make a perf change pass: bit-identical\n"
      "// replay against this file IS the determinism contract "
      "(docs/PERF.md).\n"
      "// clang-format off\n");
  for (const char* family : kFamilies) {
    for (const std::uint64_t seed : kSeeds) {
      const CellOutcome got = runCell(family, seed);
      std::printf("GOLDEN(\"%s\", %" PRIu64 ", 0x%016" PRIX64
                  "ull, %" PRId64 ", 0x%016" PRIX64 "ull)\n",
                  family, seed, got.trace_hash,
                  static_cast<std::int64_t>(got.steps), got.outputs_sig);
    }
  }
  std::printf("// clang-format on\n");
  return 0;
}

}  // namespace
}  // namespace wfd::test

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--golden-record") == 0) {
      return wfd::test::goldenRecord();
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
