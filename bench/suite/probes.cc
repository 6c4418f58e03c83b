// Layer probes: unit costs of single src/ modules, timed from outside by
// calling each module's public functions in a loop. Every traced
// invocation runs all of them, so each per-layer time is measured on every
// workload; the workload's own counters say how much it uses each layer.
#include <algorithm>

#include "suite.h"

namespace wfd::bench::suite {
namespace {

using sim::Env;
using sim::FailurePattern;

// Fastest of three timed loops, in ns per call: the loops are short, and
// the fastest one is the least disturbed by whatever else runs.
template <class F>
double bestNs(int reps, F&& body) {
  double best = -1;
  for (int round = 0; round < 3; ++round) {
    const WallTimer t;
    for (int i = 0; i < reps; ++i) body(i);
    const double ns = t.seconds() * 1e9 / reps;
    if (best < 0 || ns < best) best = ns;
  }
  return best;
}

// Keeps probe results observable so the timed calls cannot be elided.
struct Sink {
  std::uint64_t v = 0;
  void add(std::uint64_t x) { v += x; }
};

void worldProbe(std::uint64_t seed, int n, int reps, Metrics& l, Sink& sink) {
  const auto fp = FailurePattern::failureFree(n);
  sim::World w(n, fp, fd::makeUpsilon(fp, 200, seed));
  sim::ObjectTable& ot = w.objects();  // model-lint-allow: probe of the table itself
  const sim::ObjId reg = ot.regId(sim::ObjKey{"probe.reg"});
  const sim::ObjId snap = ot.snapId(sim::ObjKey{"probe.snap"}, n);
  const sim::ObjId cons = ot.consId(sim::ObjKey{"probe.cons"}, n);
  // Tuple cells, as the Fig. 1/2 snapshots hold.
  const RegVal cell = RegVal::tuple(
      {RegVal(Value{7}), RegVal(Value{3}), RegVal(ProcSet::full(n))});
  for (Pid p = 0; p < n; ++p) ot.update(snap, p, cell);
  ot.write(reg, cell);

  const std::vector<std::pair<const char*, sim::Op>> ops = {
      {"read", sim::OpRead{reg}},
      {"write", sim::OpWrite{reg, cell}},
      {"update", sim::OpSnapUpdate{snap, 0, cell}},
      {"scan", sim::OpSnapScan{snap}},
      {"propose", sim::OpConsPropose{cons, cell}},
      {"fd_query", sim::OpFdQuery{}},
      {"noop", sim::OpNoop{}},
  };
  std::vector<std::pair<sim::Op, sim::OpResult>> mix;
  for (const auto& [name, op] : ops) {
    l[std::string("world.execute_ns.") + name] = bestNs(reps, [&](int i) {
      const sim::OpResult res = w.execute(i % n, op);
      w.advanceClock();
      sink.add(res.snapshot.size());
    });
    mix.emplace_back(op, w.execute(0, op));
  }

  l["object_table.read_ns"] =
      bestNs(reps, [&](int) { sink.add(ot.read(reg).isBottom() ? 1 : 0); });
  l["object_table.write_ns"] = bestNs(reps, [&](int) { ot.write(reg, cell); });
  l["object_table.update_ns"] =
      bestNs(reps, [&](int i) { ot.update(snap, i % n, cell); });
  l["object_table.scan_ns"] =
      bestNs(reps, [&](int) { sink.add(ot.scan(snap).size()); });
  l["object_table.propose_ns"] = bestNs(reps, [&](int i) {
    sink.add(ot.propose(cons, i % n, cell).isBottom() ? 1 : 0);
  });

  // What World::execute folds into the trace hash per op.
  sim::Trace trace;
  l["trace.mix_ns"] = bestNs(reps, [&](int i) {
    const auto& [op, res] = mix[static_cast<std::size_t>(i) % mix.size()];
    trace.mixOp(i, i % n, sim::opSignature(op));
    trace.mixResult(sim::resultSignature(res));
  });
  sink.add(trace.opDigest());
}

sim::net::NetConfig probeNetConfig(std::uint64_t seed) {
  sim::net::NetConfig cfg;
  cfg.env = {64, 4};
  cfg.faults = {1, 16, 250, 1, 48};
  cfg.seed = seed;
  return cfg;
}

void fdProbe(std::uint64_t seed, int reps, Metrics& l, Sink& sink) {
  const auto fp4 = FailurePattern::withCrashes(4, {{3, 60}});
  const auto fp5 = FailurePattern::withCrashes(5, {{4, 200}});
  sim::net::NetHistoryPtr history;
  double best_ms = -1;
  for (int i = 0; i < 3; ++i) {
    const WallTimer t;
    history = sim::net::simulateHeartbeats(fp4, probeNetConfig(seed));
    const double ms = t.seconds() * 1e3;
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
  }
  l["net.simulate_ms"] = best_ms;

  struct Family {
    const char* name;
    fd::FdPtr fd;
    int n;
  };
  const std::vector<Family> families = {
      {"upsilon", fd::makeUpsilon(fp4, 200, seed), 4},
      {"upsilon_f", fd::makeUpsilonF(fp5, 2, 180, seed), 5},
      {"omega", fd::makeOmega(fp4, 100, seed), 4},
      {"realized_upsilon", sim::net::makeRealizedUpsilon(history, 3), 4},
      {"realized_omega", sim::net::makeRealizedOmega(history), 4},
  };
  for (const Family& f : families) {
    // Half the queries before stabilization, half after.
    const Time span = 2 * std::max<Time>(f.fd->stabilizationTime(), 1);
    l[std::string("fd.query_ns.") + f.name] = bestNs(reps, [&](int i) {
      sink.add(static_cast<std::uint64_t>(
          f.fd->query(i % f.n, static_cast<Time>(i) % span).size()));
    });
  }
}

// bench_audit_overhead's register ping-pong: the highest op-per-step
// density the model allows, i.e. the step auditor's worst case.
sim::Coro<sim::Unit> pingPong(Env& env, int iters) {
  const ObjId mine = env.reg(sim::ObjKey{"pp", env.me()});
  const ObjId peer = env.reg(sim::ObjKey{"pp", (env.me() + 1) % env.nProcs()});
  for (int i = 0; i < iters; ++i) {
    co_await env.write(mine, RegVal(Value{i}));
    co_await env.read(peer);
  }
  co_return sim::Unit{};
}

// ns per step of runTask with RunConfig::audit unset (which still honors
// a WFD_AUDIT environment latch) or set to `mode`.
double auditedStepNs(int iters, std::optional<sim::AuditMode> mode) {
  const int n = 4;
  sim::RunConfig cfg;
  cfg.n_plus_1 = n;
  cfg.seed = 99;
  cfg.max_steps = 100'000'000;
  cfg.audit = mode;
  const sim::AlgoFn algo = [iters](Env& e, Value) { return pingPong(e, iters); };
  const std::vector<Value> props(n, 0);
  double best = -1;
  for (int r = 0; r < 3; ++r) {
    const WallTimer t;
    const sim::RunResult rr = sim::runTask(cfg, algo, props);
    const double ns = t.seconds() * 1e9 / static_cast<double>(rr.steps);
    if (best < 0 || ns < best) best = ns;
  }
  return best;
}

void auditProbe(bool quick, Metrics& l) {
  const int iters = quick ? 2'000 : 50'000;
  const double off = auditedStepNs(iters, std::nullopt);
  const double collect = auditedStepNs(iters, sim::AuditMode::kCollect);
  l["audit.step_ns.off"] = off;
  l["audit.step_ns.collect"] = collect;
  l["audit.overhead_ratio"] = collect / off;
}

// Checkpoint and restore at growing prefix lengths of a Fig. 3 extraction
// at n+1 = 3, an automaton that never finishes on its own. Restore
// rebuilds coroutine frames by replaying each process's results, so its
// cost grows with the prefix; a prefix-independent restore shows as flat
// runner.restore_us.* here.
void runnerProbe(std::uint64_t seed, bool quick, Metrics& l, Sink& sink) {
  const int n = 3;
  sim::RunConfig cfg;
  cfg.n_plus_1 = n;
  cfg.fp = FailurePattern::failureFree(n);
  cfg.fd = fd::makeOmega(*cfg.fp, 100, seed);
  cfg.seed = seed;
  const auto phi = core::phiOmegaK(n);
  const sim::AlgoFn algo = [phi](Env& e, Value) {
    return core::extractUpsilonF(e, phi);
  };
  const std::vector<Value> props(n, 0);
  sim::Run run(cfg, algo, props);
  run.enableCheckpoints();
  sim::Run other(cfg, algo, props);
  other.enableCheckpoints();
  sim::RandomPolicy policy;
  const int reps = quick ? 3 : 20;
  Time taken = 0;
  for (const Time len : {64, 512, 4096}) {
    taken += run.scheduler().run(policy, len - taken);
    const std::string suffix = std::to_string(len);
    sim::RunCheckpoint ck;
    l["runner.checkpoint_us." + suffix] = bestNs(reps, [&](int) {
      ck = run.checkpoint();
    }) / 1e3;
    l["runner.restore_us." + suffix] =
        bestNs(reps, [&](int) { other.restore(ck); }) / 1e3;
    sink.add(static_cast<std::uint64_t>(other.scheduler().ctx(0).steps));
  }
  l["runner.restore_ns_per_replayed_step"] =
      l["runner.restore_us.4096"] * 1e3 / 4096.0;
}

// The per-cell memo path BatchRunner takes: digest the cell, look it up.
void reportCacheProbe(std::uint64_t seed, int reps, Metrics& l, Sink& sink) {
  const CampaignInputs in = makeCampaignInputs(seed, /*quick=*/true);
  sim::FdCache fds;
  std::vector<sim::BatchCell> cells;
  for (const CellRecipe& r : in.cells) {
    if (r.kind == CellKind::kLight) cells.push_back(buildCell(in, r, fds));
  }
  sim::ReportCache cache;
  for (const auto& c : cells) {
    const auto key = sim::cellKey(c);
    if (key.has_value()) cache.insert(*key, sim::CellResult{});
  }
  l["report_cache.lookup_ns"] = bestNs(reps, [&](int i) {
    const auto& c = cells[static_cast<std::size_t>(i) % cells.size()];
    const auto key = sim::cellKey(c);
    if (key.has_value()) {
      sink.add(cache.lookup(*key, static_cast<std::size_t>(i)).has_value());
    }
  });
}

// Single campaign cells through runCell, serially: the unit each batch
// worker executes.
void cellProbe(std::uint64_t seed, bool quick, Metrics& l) {
  const CampaignInputs in = makeCampaignInputs(seed, /*quick=*/true);
  sim::FdCache fds;
  prefillFdCache(in, fds);
  const std::size_t per_kind = quick ? 2 : 16;
  for (const auto& [kind, name] :
       {std::pair{CellKind::kHeavy, "heavy"}, std::pair{CellKind::kLight, "light"},
        std::pair{CellKind::kNet, "net"}}) {
    std::vector<double> us;
    for (std::size_t i = 0; i < in.cells.size() && us.size() < per_kind; ++i) {
      if (in.cells[i].kind != kind) continue;
      const sim::BatchCell cell = buildCell(in, in.cells[i], fds);
      const WallTimer t;
      (void)sim::runCell(cell, i);
      us.push_back(t.seconds() * 1e6);
    }
    l[std::string("batch.cell_us.") + name] = medianOf(us);
  }
}

// Fig. 1/2/3 runs for workloads that do not drive them: latencies from
// plain runTask calls, the per-call split from the shadow loop.
void driveProbe(std::uint64_t seed, bool quick, Tracer& tracer, Metrics& l) {
  const SimPlan plan =
      quick ? SimPlan{100, 100, 1, 20'000} : SimPlan{5'000, 5'000, 4, 60'000};
  const std::vector<SimInput> inputs = makeSimInputs(seed, plan);
  std::vector<double> run_us;
  for (const SimInput& in : inputs) {
    const WallTimer t;
    const sim::RunResult rr = sim::runTask(in.cfg, simAlgo(in.fig), in.proposals);
    if (in.fig != 3) run_us.push_back(t.seconds() * 1e6);
  }
  setRunLatency(run_us, l);
  DriveStats stats;
  (void)shadowDrive(inputs, &tracer, stats);
  driveStatsToLayer(stats, l);
}

// Step time not spent in World::execute: resume of the coroutine frames,
// the step's own bookkeeping, and the clock. Weighted by the drive loop's
// own op mix.
void resumeEstimate(Metrics& l) {
  const std::pair<const char*, const char*> classes[] = {
      {"world.ops.read", "read"},       {"world.ops.write", "write"},
      {"world.ops.update", "update"},   {"world.ops.scan", "scan"},
      {"world.ops.propose", "propose"}, {"fd.queries", "fd_query"},
      {"world.ops.noop", "noop"}};
  double total = 0;
  double weighted = 0;
  for (const auto& [count, op] : classes) {
    total += l[count];
    weighted += l[count] * l[std::string("world.execute_ns.") + op];
  }
  l["coro.resume_ns_est"] =
      total > 0 ? l["scheduler.step_ns"] - weighted / total : 0.0;
}

}  // namespace

std::uint64_t runProbes(std::uint64_t seed, bool quick, int procs,
                        bool drive_probe, Tracer& tracer, Metrics& layer) {
  const SpanScope all(&tracer, "probes");
  Sink sink;
  const int reps = quick ? 20'000 : 200'000;
  {
    const SpanScope s(&tracer, "probe.world");
    worldProbe(seed, procs, reps, layer, sink);
  }
  {
    const SpanScope s(&tracer, "probe.fd");
    fdProbe(seed, reps, layer, sink);
  }
  {
    const SpanScope s(&tracer, "probe.audit");
    auditProbe(quick, layer);
  }
  {
    const SpanScope s(&tracer, "probe.runner");
    runnerProbe(seed, quick, layer, sink);
  }
  {
    const SpanScope s(&tracer, "probe.report_cache");
    reportCacheProbe(seed, reps / 10, layer, sink);
  }
  {
    const SpanScope s(&tracer, "probe.cells");
    cellProbe(seed, quick, layer);
  }
  if (drive_probe) {
    const SpanScope s(&tracer, "probe.drive");
    driveProbe(seed, quick, tracer, layer);
  }
  resumeEstimate(layer);
  return sink.v;
}

void setRunLatency(const std::vector<double>& run_us, Metrics& l) {
  l["runner.run_p50_us"] = percentile(run_us, 0.50);
  l["runner.run_p99_us"] = percentile(run_us, 0.99);
  l["runner.run_p999_us"] = percentile(run_us, 0.999);
}

}  // namespace wfd::bench::suite
