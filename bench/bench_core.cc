// bench_core: the steps/s core benchmark that seeds the perf trajectory.
//
// Every experiment harness bottoms out in Scheduler::run's per-step loop,
// so its cost multiplies across millions of simulated steps per campaign.
// This bench measures that loop directly:
//
//   * spin-nN      pure-scheduler throughput at several n: every process
//                  loops OpNoop steps, so the measurement is scheduler +
//                  policy + execute overhead with no algorithm on top
//                  (RandomPolicy; spin-rr-n8 is the RoundRobin variant);
//   * fig1/2/3     the Fig. 1 / Fig. 2 / Fig. 3 workloads of E1–E3,
//                  repeated across a seed sweep — real algorithm mix:
//                  snapshots, FD queries, tuple-building registers;
//   * coro-child   spin with one child coroutine per step: each step
//                  awaits a fresh child that issues the op, so the row
//                  isolates the frame alloc/free of nested algorithm
//                  calls (an Afek snapshot op opens one per call);
//   * naming, naming-fresh, snap-update, snap-update-digest
//                  perf-ledger rows that isolate one ObjectTable layer
//                  each; their "steps" are table calls, not scheduler
//                  steps. `naming` resolves existing keys, `naming-fresh`
//                  creates every object into a fresh table.
//   * checkpoint, restore-kept
//                  ledger rows for the explorer's checkpoint layer: take
//                  and drop a RunCheckpoint of a mid-run Fig. 1 run, and
//                  restore one whose frames all stay; "steps" are calls;
//   * trace-mix    the trace digest of every step (opSignature,
//                  resultSignature, mixOp, mixResult) over a fixed Fig. 1
//                  op/result stream whose B-entry cells are tuples;
//                  "steps" are mixed ops;
//   * snap-scan, snap-scan-logged
//                  every step a snapshot scan of tuple cells, without and
//                  with the result log the explorer keeps;
//   * explore-dpor, explore-dag
//                  whole serial explorer searches (kDpor, kDag) of the
//                  n+1 = 3 one-shot k-converge family, repeated 5 and 12
//                  times; "steps" are the searches' executed steps, so
//                  allocs/step is the DFS bookkeeping per step plus the
//                  steps themselves;
//   * audit-off, audit-collect
//                  a register ping-pong (every step a write or a read:
//                  the highest op-per-step density, the step auditor's
//                  worst case) with RunConfig::audit unset and set to
//                  kCollect; their rate ratio is the auditor's cost.
//
// Every row is timed as the fastest of five repeats of the same work, and
// reports `allocs`, the global operator new calls one repeat makes (the
// fewest over the repeats), counted by the replacement operator new below.
// Output: a table plus (with --json) BENCH_core.json via JsonWriter, with
// build provenance stamped so before/after numbers across PRs are
// attributable. Determinism note: wall-clock here measures the HARNESS;
// the simulated runs themselves replay bit-identically regardless of how
// fast they execute (tests/golden_hash_test.cc pins that).
//
//   bench_core [--quick] [--json PATH]
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>
#include <optional>

#include "bench_util.h"

// Counting replacements of the global allocation functions, for this
// binary only (the library never replaces them). Per-thread, so counting
// costs no atomic; bench_core allocates on the main thread only.
namespace {

std::uint64_t& allocCount() {
  thread_local std::uint64_t n = 0;
  return n;
}

}  // namespace

void* operator new(std::size_t n) {
  ++allocCount();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() called next to an inlined
// `new` expression and warn (-Wmismatched-new-delete), although the
// replaced operator new above does allocate with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wfd::bench {
namespace {

using core::extractUpsilonF;
using core::phiOmegaK;
using core::upsilonFSetAgreement;
using core::upsilonSetAgreement;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;

struct Measurement {
  Time steps = 0;
  double seconds = 0;
  std::uint64_t allocs = 0;
  [[nodiscard]] double stepsPerSec() const {
    return seconds > 0 ? static_cast<double>(steps) / seconds : 0;
  }
};

// ---- Pure-scheduler spin: every step is an OpNoop ------------------------

sim::Coro<sim::Unit> spinner(Env& env, Value iters) {
  for (Value i = 0; i < iters; ++i) co_await env.yield();
  co_return sim::Unit{};
}

// `coro-child`: the spin loop with the op issued by a child coroutine, so
// every step creates and destroys one frame.
sim::Coro<sim::Unit> childOp(Env& env) {
  co_await env.yield();
  co_return sim::Unit{};
}

sim::Coro<sim::Unit> childSpinner(Env& env, Value iters) {
  for (Value i = 0; i < iters; ++i) co_await childOp(env);
  co_return sim::Unit{};
}

using SpinBody = sim::Coro<sim::Unit> (*)(Env&, Value);

Measurement spin(int n_plus_1, Time target_steps, sim::PolicyKind policy,
                 SpinBody body = spinner) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 42;
  cfg.policy = policy;
  cfg.max_steps = target_steps;
  const Value iters = static_cast<Value>(target_steps);  // budget-bounded
  Measurement m;
  const WallTimer t;
  const RunResult rr = sim::runTask(
      cfg, [iters, body](Env& e, Value) { return body(e, iters); },
      std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  m.seconds = t.seconds();
  m.steps = rr.steps;
  return m;
}

// ---- Fig. 1/2/3 workloads across a seed sweep ----------------------------

Measurement fig1Sweep(int runs) {
  Measurement m;
  const WallTimer t;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilon(fp, 150, seed);
    cfg.seed = seed;
    const RunResult rr = sim::runTask(
        cfg, [](Env& e, Value v) { return upsilonSetAgreement(e, v); },
        {10, 20, 30, 40});
    m.steps += rr.steps;
  }
  m.seconds = t.seconds();
  return m;
}

Measurement fig2Sweep(int runs) {
  Measurement m;
  const WallTimer t;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    const int n_plus_1 = 5;
    const int f = 2;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{4, 200}});
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilonF(fp, f, 180, seed);
    cfg.seed = seed;
    const RunResult rr = sim::runTask(
        cfg, [f](Env& e, Value v) { return upsilonFSetAgreement(e, f, v); },
        {10, 20, 30, 40, 50});
    m.steps += rr.steps;
  }
  m.seconds = t.seconds();
  return m;
}

Measurement fig3Sweep(int runs, Time budget) {
  Measurement m;
  const WallTimer t;
  const auto phi = phiOmegaK(4);
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 40, seed);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeOmega(fp, 100, seed);
    cfg.seed = seed;
    cfg.max_steps = budget;
    const RunResult rr = sim::runTask(
        cfg, [phi](Env& e, Value) { return extractUpsilonF(e, phi); },
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
    m.steps += rr.steps;
  }
  m.seconds = t.seconds();
  return m;
}

// ---- Perf-ledger rows: one ObjectTable layer each ------------------------

// The objects Fig. 1 names in its first `rounds` rounds (one instance,
// n+1 = 4): D, then per round the k-converge snapshots conv.A/B, the
// registers Dr and Stable, and the sub-converge snapshots sub.A/B per k.
struct Fig1Keys {
  std::vector<sim::ObjKey> regs;
  std::vector<sim::ObjKey> snaps;
};

Fig1Keys fig1Keys(int rounds, int n_plus_1) {
  Fig1Keys keys;
  keys.regs.emplace_back("fig1.D", 0);
  for (int r = 0; r < rounds; ++r) {
    keys.snaps.emplace_back("fig1.conv.A", 0, r);
    keys.snaps.emplace_back("fig1.conv.B", 0, r);
    keys.regs.emplace_back("fig1.Dr", 0, r);
    keys.regs.emplace_back("fig1.Stable", 0, r);
    for (int k = 0; k < n_plus_1 - 1; ++k) {
      keys.snaps.emplace_back("fig1.sub.A", 0, r, k);
      keys.snaps.emplace_back("fig1.sub.B", 0, r, k);
    }
  }
  return keys;
}

// `naming`: regId/snapId hits (every key already exists), cycling through
// the Fig. 1 key population. The name resolution each op pays before
// World::execute sees an ObjId.
Measurement namingRow(Time ops) {
  const int n_plus_1 = 4;
  const Fig1Keys keys = fig1Keys(32, n_plus_1);
  sim::ObjectTable tbl;
  for (const auto& k : keys.regs) tbl.regId(k);
  for (const auto& k : keys.snaps) tbl.snapId(k, n_plus_1);
  Measurement m;
  const WallTimer t;
  for (Time i = 0; i < ops; i += 2) {
    const auto r = static_cast<std::size_t>(i / 2);
    benchmark::DoNotOptimize(tbl.regId(keys.regs[r % keys.regs.size()]));
    benchmark::DoNotOptimize(
        tbl.snapId(keys.snaps[r % keys.snaps.size()], n_plus_1));
  }
  m.seconds = t.seconds();
  m.steps = ops;
  return m;
}

// `naming-fresh`: the Fig. 1 key population of 8 rounds (81 objects, about
// the 65 a service segment names) named into a fresh ObjectTable per pass,
// so every call creates its object and the index grows from empty: the
// path a service segment pays for its fresh inner World. Runs whole
// passes until `ops` calls are made.
Measurement namingFreshRow(Time ops) {
  const int n_plus_1 = 4;
  const Fig1Keys keys = fig1Keys(8, n_plus_1);
  const auto per_pass = static_cast<Time>(keys.regs.size() + keys.snaps.size());
  Measurement m;
  const WallTimer t;
  while (m.steps < ops) {
    sim::ObjectTable tbl;
    for (const auto& k : keys.regs) benchmark::DoNotOptimize(tbl.regId(k));
    for (const auto& k : keys.snaps) {
      benchmark::DoNotOptimize(tbl.snapId(k, n_plus_1));
    }
    m.steps += per_pass;
  }
  m.seconds = t.seconds();
  return m;
}

// `snap-update` / `snap-update-digest`: ObjectTable::update of a k-converge
// tuple cell into a 5-slot snapshot. Plain runs never read the state
// digest; the explorer reads xorContentsDigest() after every step, which
// `with_digest` adds.
Measurement snapUpdateRow(Time ops, bool with_digest) {
  const int slots = 5;
  sim::ObjectTable tbl;
  const sim::ObjId snap = tbl.snapId(sim::ObjKey{"fig1.conv.B", 0, 0}, slots);
  const RegVal uset = RegVal::tuple({RegVal(Value{10}), RegVal(Value{20})});
  std::vector<RegVal> cells;
  for (Value v = 0; v < slots; ++v) {
    cells.push_back(RegVal::tuple({RegVal(true), RegVal(v), uset}));
  }
  Measurement m;
  const WallTimer t;
  for (Time i = 0; i < ops; ++i) {
    const auto slot = static_cast<std::size_t>(i % slots);
    tbl.update(snap, static_cast<int>(slot), cells[slot]);
    if (with_digest) benchmark::DoNotOptimize(tbl.xorContentsDigest());
  }
  m.seconds = t.seconds();
  m.steps = ops;
  return m;
}

// `checkpoint` / `restore-kept`: a Fig. 1 run at n+1 = 3 stopped mid-run,
// the shape the explorer checkpoints at every DFS node. `checkpoint` takes
// and drops one RunCheckpoint per op. `restore-kept` restores a checkpoint
// of the live state, so every frame is kept and only the world is
// restored.
Measurement checkpointRow(Time ops, bool restore) {
  const int n_plus_1 = 3;
  const auto fp = FailurePattern::failureFree(n_plus_1);
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.fd = fd::makeUpsilon(fp, 150, 7);
  cfg.seed = 7;
  sim::Run run(cfg, [](Env& e, Value v) { return upsilonSetAgreement(e, v); },
               {10, 20, 30});
  run.enableCheckpoints();
  sim::RandomPolicy policy;
  (void)run.scheduler().run(policy, 60);
  const sim::RunCheckpoint ck = run.checkpoint();
  Measurement m;
  const WallTimer t;
  for (Time i = 0; i < ops; ++i) {
    if (restore) {
      benchmark::DoNotOptimize(run.restore(ck));
    } else {
      const sim::RunCheckpoint taken = run.checkpoint();
      benchmark::DoNotOptimize(&taken);
    }
  }
  m.seconds = t.seconds();
  m.steps = ops;
  return m;
}

// `snap-scan` / `snap-scan-logged`: every step scans one snapshot of
// k-converge tuple cells. The logged row keeps the result log on, as the
// explorer and the service crash sweep do, and starts a fresh run every
// kChunk steps so the log (one node per step) stays small.
RegVal scanCell(Value v) {
  return RegVal::tuple({RegVal(true), RegVal(v), RegVal::tuple({RegVal(v)})});
}

sim::Coro<sim::Unit> scanner(Env& env, Value iters) {
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"bench.scan"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), scanCell(env.me()));
  for (Value i = 1; i < iters; ++i) (void)co_await mem::snapshotScan(env, s);
  co_return sim::Unit{};
}

Measurement scanRow(int n_plus_1, Time target_steps, bool logged) {
  constexpr Time kChunk = 4096;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 42;
  const Value iters = static_cast<Value>(target_steps);  // budget-bounded
  const sim::AlgoFn algo = [iters](Env& e, Value) { return scanner(e, iters); };
  const std::vector<Value> props(static_cast<std::size_t>(n_plus_1), 0);
  Measurement m;
  const WallTimer t;
  while (m.steps < target_steps) {
    sim::Run run(cfg, algo, props);
    if (logged) run.enableCheckpoints();
    sim::RandomPolicy policy;
    m.steps += run.scheduler().run(
        policy, logged ? std::min(kChunk, target_steps - m.steps)
                       : target_steps);
  }
  m.seconds = t.seconds();
  return m;
}

// `trace-mix`: the run digest alone. Every executed step folds its op and
// result signatures into the trace (World::execute); this row replays one
// Fig. 1 round's op/result stream at n+1 = 4 through opSignature,
// resultSignature, Trace::mixOp and Trace::mixResult, with no scheduler,
// world or coroutine around them. Each process writes D, queries its
// detector, updates and scans the k-converge snapshots A (int cells) and
// B (tuple B-entries, as k-converge builds them), reads Dr and writes
// Stable. "steps" are mixed ops.
struct MixStep {
  Pid p = 0;
  sim::Op op;
  sim::OpResult res;
};

std::vector<MixStep> fig1MixStream(int n_plus_1) {
  const auto n = static_cast<std::size_t>(n_plus_1);
  const ObjId d = 0, conv_a = 1, conv_b = 2, dr = 3, stable = 4;
  SlotArray a(n);
  SlotArray b(n);
  std::vector<Value> uset;
  for (Pid p = 0; p < n_plus_1; ++p) {
    const Value v = 10 * (p + 1);
    uset.push_back(v);
    a.set(static_cast<std::size_t>(p), RegVal(v));
    b.set(static_cast<std::size_t>(p),
          RegVal::tuple({RegVal(p % 2 == 0), RegVal(v),
                         RegVal::tuple(std::span<const Value>(uset))}));
  }
  std::vector<MixStep> steps;
  for (Pid p = 0; p < n_plus_1; ++p) {
    const Value v = 10 * (p + 1);
    const auto i = static_cast<std::size_t>(p);
    const auto push = [&](sim::Op op, sim::OpResult res) {
      steps.push_back(MixStep{p, std::move(op), std::move(res)});
    };
    push(sim::OpWrite{d, RegVal(v)}, {});
    push(sim::OpFdQuery{}, {RegVal(ProcSet::full(n_plus_1)), {}});
    push(sim::OpSnapUpdate{conv_a, p, RegVal(v)}, {});
    push(sim::OpSnapScan{conv_a}, {RegVal(), a});
    push(sim::OpSnapUpdate{conv_b, p, b[i]}, {});
    push(sim::OpSnapScan{conv_b}, {RegVal(), b});
    push(sim::OpRead{dr}, {RegVal(v), {}});
    push(sim::OpWrite{stable, RegVal(true)}, {});
  }
  return steps;
}

Measurement traceMixRow(Time ops) {
  const std::vector<MixStep> stream = fig1MixStream(4);
  sim::Trace trace;
  Measurement m;
  const WallTimer t;
  for (Time i = 0; i < ops; ++i) {
    const MixStep& s = stream[static_cast<std::size_t>(i) % stream.size()];
    trace.mixOp(i, s.p, sim::opSignature(s.op));
    trace.mixResult(sim::resultSignature(s.res));
  }
  benchmark::DoNotOptimize(trace.opDigest());
  m.seconds = t.seconds();
  m.steps = static_cast<Time>(trace.opsMixed());
  return m;
}

// `explore-dpor` / `explore-dag`: the serial (jobs = 0) search over the
// one-shot 2-converge family (core::kConvergeTask) at n+1 = 3, the shape
// of bench_explore's dpor-n3 / dag-n3 rows without their property check,
// run `searches` times so that one repeat lasts long enough to time on a
// shared host.

Measurement exploreRow(sim::ExploreMode mode, int searches) {
  sim::ExploreConfig cfg;
  cfg.run.n_plus_1 = 3;
  cfg.mode = mode;
  Measurement m;
  const WallTimer t;
  for (int i = 0; i < searches; ++i) {
    const sim::ExploreResult r = sim::explore(
        cfg, [](Env& e, Value v) { return core::kConvergeTask(e, 2, v); },
        {100, 101, 102});
    m.steps += static_cast<Time>(r.steps_executed);
  }
  m.seconds = t.seconds();
  return m;
}

// `audit-off` / `audit-collect`: each process writes its own register and
// reads its neighbour's, alternately.
sim::Coro<sim::Unit> pingPong(Env& env, Value iters) {
  const ObjId mine = env.reg(sim::ObjKey{"pp", env.me()});
  const ObjId peer = env.reg(sim::ObjKey{"pp", (env.me() + 1) % env.nProcs()});
  for (Value i = 0; i < iters; ++i) {
    co_await env.write(mine, RegVal(i));
    co_await env.read(peer);
  }
  co_return sim::Unit{};
}

// Sets `dirty` when an audited run reports a violation: the ping-pong is
// legal, so any finding is an auditor bug.
Measurement pingPongRow(int n_plus_1, Time target_steps,
                        std::optional<sim::AuditMode> audit, bool& dirty) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.seed = 99;
  cfg.audit = audit;
  const Value iters = static_cast<Value>(target_steps / (2 * n_plus_1));
  Measurement m;
  const WallTimer t;
  const RunResult rr = sim::runTask(
      cfg, [iters](Env& e, Value) { return pingPong(e, iters); },
      std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  m.seconds = t.seconds();
  m.steps = rr.steps;
  if (audit.has_value() && (rr.audit() == nullptr || !rr.audit()->clean())) {
    dirty = true;
  }
  return m;
}

}  // namespace
}  // namespace wfd::bench

int main(int argc, char** argv) {
  using namespace wfd;
  using namespace wfd::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  // Core loop throughput is a single-thread property; --jobs only lands in
  // the JSON so trajectory entries stay comparable with the batch benches.
  // --quick shrinks the spin and ledger rows, but keeps every fig row at
  // >= ~20 ms a repeat: CI gates their rates against a committed --quick
  // baseline, and millisecond timings are mostly noise.
  const Time spin_budget = args.quick ? 200'000 : 2'000'000;
  const int fig12_runs = 2'000;
  const int fig3_runs = args.quick ? 5 : 20;
  const Time fig3_budget = 60'000;
  const Time ledger_ops = args.quick ? 200'000 : 2'000'000;
  // The naming rows run >= ~20 ms a repeat in both modes: a shorter row
  // read bimodally across invocations of one binary.
  const Time naming_ops = 2'000'000;
  const Time naming_fresh_ops = 1'000'000;

  banner("core step-loop throughput (steps/s)");
  Table table(
      {"workload", "n+1", "steps", "seconds", "Msteps/s", "allocs/step"});
  JsonWriter json("bench_core", args.jobs);
  json.note("mode", args.quick ? "quick" : "full");

  // Each row runs kRepeats times and keeps the fastest: the simulated work
  // is identical every time, so the spread is harness noise, and the
  // fastest run is the least disturbed. CI gates the fig rates on this.
  constexpr int kRepeats = 5;
  bool nondeterministic = false;
  const auto counted = [](const auto& run) {
    const std::uint64_t before = allocCount();
    Measurement m = run();
    m.allocs = allocCount() - before;
    return m;
  };
  const auto report = [&](const std::string& name, int n_plus_1,
                          const auto& run) {
    Measurement m = counted(run);
    std::uint64_t allocs = m.allocs;
    for (int i = 1; i < kRepeats; ++i) {
      const Measurement again = counted(run);
      if (again.steps != m.steps) nondeterministic = true;
      allocs = std::min(allocs, again.allocs);
      if (again.seconds < m.seconds) m = again;
    }
    const double per_step =
        m.steps > 0 ? static_cast<double>(allocs) / static_cast<double>(m.steps)
                    : 0;
    table.addRow({name, fmt(n_plus_1), fmt(m.steps), fmt(m.seconds),
                  fmt(m.stepsPerSec() / 1e6), fmt(per_step)});
    json.row(name, {{"n_plus_1", static_cast<double>(n_plus_1)},
                    {"steps", static_cast<double>(m.steps)},
                    {"seconds", m.seconds},
                    {"steps_per_s", m.stepsPerSec()},
                    {"allocs", static_cast<double>(allocs)},
                    {"allocs_per_step", per_step}});
    return m;
  };

  double spin8 = 0;
  for (const int n : {2, 4, 8, 16, 32, 64}) {
    const Measurement m = report("spin-n" + std::to_string(n), n, [&] {
      return spin(n, spin_budget, sim::PolicyKind::kRandom);
    });
    if (n == 8) spin8 = m.stepsPerSec();
  }
  const Measurement rr = report("spin-rr-n8", 8, [&] {
    return spin(8, spin_budget, sim::PolicyKind::kRoundRobin);
  });
  report("coro-child", 4, [&] {
    return spin(4, spin_budget, sim::PolicyKind::kRandom, childSpinner);
  });
  const Measurement f1 =
      report("fig1", 4, [&] { return fig1Sweep(fig12_runs); });
  const Measurement f2 =
      report("fig2", 5, [&] { return fig2Sweep(fig12_runs); });
  const Measurement f3 =
      report("fig3", 4, [&] { return fig3Sweep(fig3_runs, fig3_budget); });
  report("naming", 4, [&] { return namingRow(naming_ops); });
  report("naming-fresh", 4, [&] { return namingFreshRow(naming_fresh_ops); });
  report("snap-update", 5, [&] { return snapUpdateRow(ledger_ops, false); });
  report("snap-update-digest", 5,
         [&] { return snapUpdateRow(ledger_ops, true); });
  report("checkpoint", 3,
         [&] { return checkpointRow(ledger_ops / 10, false); });
  report("restore-kept", 3,
         [&] { return checkpointRow(ledger_ops / 10, true); });
  report("trace-mix", 4, [&] { return traceMixRow(ledger_ops); });
  report("snap-scan", 5, [&] { return scanRow(5, spin_budget, false); });
  report("snap-scan-logged", 16,
         [&] { return scanRow(16, spin_budget, true); });
  // One kDpor search takes ~6 ms and one kDag search ~3 ms: repeated,
  // each row runs >= ~20 ms a repeat in both modes.
  report("explore-dpor", 3,
         [&] { return exploreRow(sim::ExploreMode::kDpor, 5); });
  report("explore-dag", 3,
         [&] { return exploreRow(sim::ExploreMode::kDag, 12); });
  bool audit_dirty = false;
  const Measurement audit_off = report("audit-off", 4, [&] {
    return pingPongRow(4, spin_budget, std::nullopt, audit_dirty);
  });
  const Measurement audit_collect = report("audit-collect", 4, [&] {
    return pingPongRow(4, spin_budget, sim::AuditMode::kCollect, audit_dirty);
  });
  if (nondeterministic) {
    std::fprintf(stderr, "bench_core: a row's step count changed between "
                         "repeats of the same seeded work\n");
    return 1;
  }
  if (audit_dirty) {
    std::fprintf(stderr, "bench_core: the audited ping-pong reported a "
                         "violation\n");
    return 1;
  }

  table.print();
  std::printf("headline: spin-n8 %.2f Msteps/s, rr %.2f, fig1 %.2f, "
              "fig2 %.2f, fig3 %.2f\n",
              spin8 / 1e6, rr.stepsPerSec() / 1e6, f1.stepsPerSec() / 1e6,
              f2.stepsPerSec() / 1e6, f3.stepsPerSec() / 1e6);
  std::printf("step auditor (collect) overhead: %.0f%% (audit-off / "
              "audit-collect - 1)\n",
              (audit_off.stepsPerSec() / audit_collect.stepsPerSec() - 1.0) *
                  100.0);

  json.metric("spin_n8_steps_per_s", spin8);
  json.metric("spin_rr_n8_steps_per_s", rr.stepsPerSec());
  json.metric("fig1_steps_per_s", f1.stepsPerSec());
  json.metric("fig2_steps_per_s", f2.stepsPerSec());
  json.metric("fig3_steps_per_s", f3.stepsPerSec());
  if (!args.json_path.empty() && !json.write(args.json_path)) return 1;
  return 0;
}
