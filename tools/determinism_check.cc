// Determinism check (registered in ctest as tools.determinism_check).
//
// DESIGN.md §5 promises that a run is a pure function of (algorithm,
// config): identical seeds replay identical traces. This harness
// enforces that promise mechanically across representative workloads
// from every core algorithm family — Fig. 1 (Υ set agreement), Fig. 2
// (Υ^f f-resilient), Fig. 3 (extraction), the Theorem 1 adversary
// chase, and the BG simulation — by executing each configuration twice
// in fresh Runner instances and failing on any trace-hash divergence.
// Unseeded randomness, unordered-container iteration feeding the
// schedule, or uninitialized reads all surface here as a hash mismatch.
//
// Two additional properties ride along:
//   * non-interference: the step auditor (collect mode) must not change
//     the trace hash, and must report zero violations on every legal
//     algorithm;
//   * seed sensitivity: distinct seeds must produce distinct hashes on a
//     smoke workload (the hash actually covers the op stream);
//   * result sensitivity: the hash folds operation RESULTS (read values,
//     scan views, FD answers), so runs with identical op streams but
//     diverging responses cannot replay as hash-equal;
//   * batch equivalence: the same workloads submitted to the parallel
//     BatchRunner (sim/batch.h, `--jobs N` workers, default 4) must come
//     back in submission order with per-cell trace hashes bit-identical
//     to the serial jobs=1 pass — sharding across threads is invisible.
//     Both scheduler modes are held to it (--steal work stealing, the
//     default, and --no-steal static sharding), and --memo adds a
//     ReportCache double-pass: a warm cache hit must reproduce the
//     serial result byte for byte, field for field — then the same
//     double pass through the persistent store (sim/store.h), where a
//     fresh makeMemo handle over the cold pass's directory must answer
//     every key-eligible cell from disk.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "wfd.h"

namespace {

using namespace wfd;
using sim::AuditMode;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// Run the workload twice fresh, plus once audited; returns the hash.
std::uint64_t verifyReplay(const std::string& name, const sim::AlgoFn& algo,
                           RunConfig cfg, const std::vector<Value>& props) {
  cfg.audit.reset();
  const RunResult r1 = sim::runTask(cfg, algo, props);
  const RunResult r2 = sim::runTask(cfg, algo, props);
  const std::uint64_t h1 = r1.trace().hash64();
  check(h1 == r2.trace().hash64(), name + ": identical seed, identical hash");

  cfg.audit = AuditMode::kCollect;
  const RunResult ra = sim::runTask(cfg, algo, props);
  check(ra.trace().hash64() == h1,
        name + ": auditor on/off leaves the trace hash unchanged");
  check(ra.audit() != nullptr && ra.audit()->clean(),
        name + ": step auditor reports zero violations");
  return h1;
}

void fig1Workloads() {
  std::puts("Fig. 1 (Upsilon n-set-agreement):");
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilon(fp, 150, seed);
    cfg.seed = seed;
    verifyReplay(
        "fig1 seed=" + std::to_string(seed),
        [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); }, cfg,
        {10, 20, 30, 40});
  }
  // Afek register-built snapshots exercise the memory substrate.
  const int n_plus_1 = 3;
  const auto fp = FailurePattern::failureFree(n_plus_1);
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = fp;
  cfg.fd = fd::makeUpsilon(fp, 80, 5);
  cfg.seed = 5;
  cfg.flavor = sim::SnapshotFlavor::kAfek;
  verifyReplay(
      "fig1 afek-snapshots",
      [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); }, cfg,
      {1, 2, 3});
}

void fig2Workloads() {
  std::puts("Fig. 2 (Upsilon^f f-resilient f-set-agreement):");
  for (const std::uint64_t seed : {3u, 11u}) {
    const int n_plus_1 = 5;
    const int f = 2;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{4, 200}});
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilonF(fp, f, 180, seed);
    cfg.seed = seed;
    verifyReplay(
        "fig2 f=2 seed=" + std::to_string(seed),
        [f](Env& e, Value v) { return core::upsilonFSetAgreement(e, f, v); },
        cfg, {10, 20, 30, 40, 50});
  }
}

void fig3Workloads() {
  std::puts("Fig. 3 (stable D -> Upsilon^f extraction):");
  for (const std::uint64_t seed : {2u, 9u}) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 40, seed);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeOmega(fp, 100, seed);
    cfg.seed = seed;
    cfg.max_steps = 60'000;
    const auto phi = core::phiOmegaK(n_plus_1);
    verifyReplay(
        "fig3 from-omega seed=" + std::to_string(seed),
        [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); }, cfg,
        std::vector<Value>(static_cast<std::size_t>(n_plus_1), 0));
  }
}

void adversaryWorkloads() {
  std::puts("Theorem 1 adversary (solo chase):");
  const auto cand = [](Env& e, Value) {
    return core::candidateLowestHeartbeat(e);
  };
  for (const std::uint64_t seed : {1u, 4u}) {
    const auto s1 = core::soloChase(cand, 3, 20'000, 4096, seed);
    const auto s2 = core::soloChase(cand, 3, 20'000, 4096, seed);
    check(s1.run.trace().hash64() == s2.run.trace().hash64(),
          "chase seed=" + std::to_string(seed) +
              ": identical seed, identical hash");
    check(s1.switches == s2.switches,
          "chase seed=" + std::to_string(seed) + ": identical switch count");
  }
}

void bgWorkloads() {
  std::puts("BG simulation:");
  core::BgConfig bg;
  bg.simulators = 2;
  bg.simulated = 3;
  bg.inputs = {101, 102, 103};
  const auto quorum = core::minOfQuorumProgram(2);
  const auto ca = core::commitAdoptProgram();
  for (const std::uint64_t seed : {1u, 13u}) {
    for (const auto* name : {"min-of-quorum", "commit-adopt"}) {
      const auto& prog =
          std::string(name) == "min-of-quorum" ? quorum : ca;
      RunConfig cfg;
      cfg.n_plus_1 = bg.simulators;
      cfg.seed = seed;
      verifyReplay(
          std::string("bg ") + name + " seed=" + std::to_string(seed),
          [&bg, &prog](Env& e, Value) { return core::bgSimulator(e, bg, prog); },
          cfg, std::vector<Value>(static_cast<std::size_t>(bg.simulators), 0));
    }
  }
}

void seedSensitivity() {
  std::puts("Seed sensitivity (hash covers the op stream):");
  std::set<std::uint64_t> hashes;
  const int kSeeds = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::failureFree(n_plus_1);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilon(fp, 100, seed);
    cfg.seed = seed;
    const RunResult rr = sim::runTask(
        cfg, [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
        {10, 20, 30, 40});
    hashes.insert(rr.trace().hash64());
  }
  check(static_cast<int>(hashes.size()) == kSeeds,
        "distinct seeds give distinct hashes (" +
            std::to_string(hashes.size()) + "/" + std::to_string(kSeeds) +
            " unique)");
}

void resultSensitivity() {
  std::puts("Result sensitivity (hash covers op responses):");
  // Processes query the FD and discard the answer: the op stream is
  // independent of the detector's noise seed, so only the folded-in
  // query RESULTS can distinguish these runs.
  const auto fdBlind = [](Env& e, Value) -> sim::Coro<sim::Unit> {
    for (int i = 0; i < 8; ++i) (void)co_await e.queryFd();
    co_return sim::Unit{};
  };
  const auto runWithNoise = [&](std::uint64_t noise_seed) {
    const int n_plus_1 = 3;
    const auto fp = FailurePattern::failureFree(n_plus_1);
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.fp = fp;
    cfg.fd = fd::makeUpsilon(fp, /*stab_time=*/1'000'000, noise_seed);
    cfg.seed = 7;
    cfg.policy = sim::PolicyKind::kRoundRobin;
    return sim::runTask(cfg, fdBlind, {0, 0, 0});
  };
  const RunResult a = runWithNoise(1);
  const RunResult b = runWithNoise(2);
  check(a.steps == b.steps, "fd-blind: identical op streams");
  check(a.trace().hash64() != b.trace().hash64(),
        "fd-blind: diverging FD answers diverge the hash");
}

// Mixed cell list spanning the algorithm families; shared between the
// serial and parallel passes of batchWorkloads.
std::vector<sim::BatchCell> batchCells() {
  std::vector<sim::BatchCell> cells;
  // FdCache: the SAME detector instance serves concurrent cells below —
  // which is exactly the sharing the cache's thread-safety claim makes.
  sim::FdCache fds;
  for (const std::uint64_t seed : {1u, 7u, 23u, 40u}) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
    sim::BatchCell cell;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = fp;
    cell.cfg.fd = fds.upsilon(fp, 150, seed);
    cell.cfg.seed = seed;
    cell.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
    cell.proposals = {10, 20, 30, 40};
    cell.memo_family = "dc-fig1";
    cells.push_back(cell);
    // Same (pattern, stab, seed) key resubmitted: a guaranteed cache hit
    // whose run must still hash identically to the first submission.
    cells.push_back(cell);
  }
  for (const std::uint64_t seed : {3u, 11u}) {
    const int n_plus_1 = 5;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{4, 200}});
    sim::BatchCell cell;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = fp;
    cell.cfg.fd = fds.upsilonF(fp, 2, 180, seed);
    cell.cfg.seed = seed;
    cell.algo = [](Env& e, Value v) {
      return core::upsilonFSetAgreement(e, 2, v);
    };
    cell.proposals = {10, 20, 30, 40, 50};
    cell.memo_family = "dc-fig2";
    cells.push_back(std::move(cell));
  }
  const auto phi = core::phiOmegaK(4);
  for (const std::uint64_t seed : {2u, 9u}) {
    const auto fp = FailurePattern::random(4, 3, 40, seed);
    sim::BatchCell cell;
    cell.cfg.n_plus_1 = 4;
    cell.cfg.fp = fp;
    cell.cfg.fd = fds.omega(fp, 100, seed);
    cell.cfg.seed = seed;
    cell.cfg.max_steps = 60'000;
    cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
    cell.proposals = std::vector<Value>(4, 0);
    // Watched flavor: driveWatched must replay Scheduler::run exactly.
    cell.watchdog = sim::WatchdogConfig{60'000, 0, 0};
    cell.memo_family = "dc-fig3-watched";
    cells.push_back(std::move(cell));
  }
  return cells;
}

// Every observable field must match: a ReportCache hit or a differently
// scheduled worker must be indistinguishable from the serial run.
bool sameResult(const sim::CellResult& x, const sim::CellResult& y) {
  return x.index == y.index && x.verdict == y.verdict && x.detail == y.detail &&
         x.error == y.error && x.all_correct_done == y.all_correct_done &&
         x.steps == y.steps && x.distinct_decisions == y.distinct_decisions &&
         x.decisions == y.decisions && x.trace_hash == y.trace_hash &&
         x.check_ok == y.check_ok && x.check_detail == y.check_detail &&
         x.metrics == y.metrics;
}

bool allSame(const std::vector<sim::CellResult>& x,
             const std::vector<sim::CellResult>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!sameResult(x[i], y[i])) return false;
  }
  return true;
}

void batchWorkloads(int jobs, bool steal, bool memo) {
  std::printf("Batch engine (serial vs %d workers, %s%s):\n", jobs,
              steal ? "stealing" : "static shards", memo ? ", memo" : "");
  const auto cells = batchCells();
  const sim::BatchRunner serial(sim::BatchOptions{1});
  const sim::BatchRunner pool(sim::BatchOptions{jobs, steal});
  const auto a = serial.run(cells);
  const auto b = pool.run(cells);
  check(a.size() == cells.size() && b.size() == cells.size(),
        "batch returns one result per cell");
  bool order = true;
  bool hashes = true;
  bool verdicts = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    order = order && a[i].index == i && b[i].index == i;
    hashes = hashes && !a[i].error && !b[i].error &&
             a[i].trace_hash == b[i].trace_hash && a[i].steps == b[i].steps;
    verdicts = verdicts && a[i].verdict == b[i].verdict &&
               a[i].decisions == b[i].decisions;
  }
  check(order, "results preserve submission order at every pool size");
  check(hashes, "per-cell trace hashes bit-identical: jobs=1 vs jobs=" +
                    std::to_string(jobs));
  check(verdicts, "verdicts and decisions identical across pool sizes");
  // Resubmitted duplicate cells (FdCache hits) replay hash-identically.
  bool dup_ok = true;
  for (std::size_t i = 0; i + 1 < 8; i += 2) {
    dup_ok = dup_ok && b[i].trace_hash == b[i + 1].trace_hash;
  }
  check(dup_ok, "cache-served detector replays hash-identical runs");
  // The OTHER scheduler mode must be equally invisible: where a cell runs
  // never changes what it computes.
  const sim::BatchRunner other(sim::BatchOptions{jobs, !steal});
  check(allSame(a, other.run(cells)),
        std::string(!steal ? "stealing" : "static sharding") +
            " matches the serial pass field for field");

  if (memo) {
    // Cold pass populates the ReportCache, warm pass re-submits the same
    // batch: every result must be byte-identical to the serial pass, and
    // every key-eligible cell must be answered from the cache the second
    // time. (Under WFD_AUDIT the eligible count is zero by design: an
    // audited run always re-executes.)
    std::size_t cacheable = 0;
    for (const auto& cell : cells) {
      if (sim::cellKey(cell).has_value()) ++cacheable;
    }
    sim::ReportCache cache;
    const sim::BatchRunner memo_pool(sim::BatchOptions{jobs, steal, &cache});
    sim::BatchStats cold_stats;
    sim::BatchStats warm_stats;
    const auto cold = memo_pool.run(cells, &cold_stats);
    const auto warm = memo_pool.run(cells, &warm_stats);
    check(allSame(a, cold), "memo cold pass matches serial field for field");
    check(allSame(a, warm), "memo warm pass (cache hits) byte-identical");
    check(warm_stats.memo_hits == cacheable,
          "warm pass answered every eligible cell from the memo (" +
              std::to_string(warm_stats.memo_hits) + "/" +
              std::to_string(cacheable) + ")");

    // Persistent-store double pass: the cold pass fills an on-disk store
    // through one makeMemo handle; a fresh handle over the same directory
    // (the restart case) must answer every eligible cell from it. The
    // batch resubmits duplicates, so cold hits are possible — but only
    // from the in-memory LRU: the cold pass loads nothing from disk, and
    // the warm pass misses nothing.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("wfd_determinism_store_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const sim::StoreOptions store{dir.string(), "determinism-check"};
    std::size_t cold_disk_hits = 0;
    std::vector<sim::CellResult> stored;
    {
      const auto cold_memo = sim::makeMemo(0, store);
      stored = sim::BatchRunner(sim::BatchOptions{jobs, steal, cold_memo.get()})
                   .run(cells);
      cold_disk_hits = cold_memo->diskHits();
    }
    const auto warm_memo = sim::makeMemo(0, store);
    sim::BatchStats disk_stats;
    const auto reread =
        sim::BatchRunner(sim::BatchOptions{jobs, steal, warm_memo.get()})
            .run(cells, &disk_stats);
    check(allSame(a, stored),
          "persistent-store cold pass matches serial field for field");
    check(allSame(a, reread),
          "persistent-store warm pass (fresh handle) byte-identical");
    check(cold_disk_hits == 0, "cold pass loads 0 cells from disk");
    check(disk_stats.memo_hits == cacheable && warm_memo->diskMisses() == 0,
          "warm pass answered every eligible cell from the store (" +
              std::to_string(disk_stats.memo_hits) + "/" +
              std::to_string(cacheable) + ", " +
              std::to_string(warm_memo->diskHits()) +
              " loaded from disk, 0 disk misses)");
    std::filesystem::remove_all(dir);
  }
}

// ---- --explore: the parallel-frontier determinism contract ---------------
//
// sim/explore.h promises jobs=N ≡ jobs=1 bit-identically — verdict,
// outcome-signature set, counterexample, and every search counter — on
// every configuration. This section holds the frontier engine to it
// across the golden exploration families (k-converge at n = 2 and n = 3
// in both modes, an Upsilon-bearing workload under the refined
// FD-independence relation, and the seeded-bug family whose counterexample
// must come out identical). The frontier always steals, so --steal and
// --no-steal do not apply here. Every kDag family also runs on the
// classic engine with and without the memo: skipping memoized states must
// not change the verdict or the outcome-signature set. Runs EXCLUSIVELY
// under --explore (its own ctest entry).

sim::Coro<sim::Unit> exploreOneShot(Env& env, int k, Value v) {
  env.propose(v);
  const core::Pick p =
      co_await core::kConverge(env, sim::ObjKey{"x.conv"}, k, v);
  env.note(p.committed ? "commit" : "adopt", RegVal(p.value));
  env.decide(p.value);
  co_return sim::Unit{};
}

sim::Coro<sim::Unit> exploreBuggy(Env& env, Value v) {
  env.propose(v);
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.bug"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const SlotArray view = co_await mem::snapshotScan(env, s);
  env.note(mem::distinctValues(view).size() <= 1 ? "commit" : "adopt",
           RegVal(v));
  env.decide(v);
  co_return sim::Unit{};
}

sim::Coro<sim::Unit> exploreFdBearing(Env& env, Value v) {
  env.propose(v);
  const sim::OpResult a = co_await env.queryFd();
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.fd"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const sim::OpResult b = co_await env.queryFd();
  (void)co_await mem::snapshotScan(env, s);
  env.note("fd1", a.scalar);
  env.note("fd2", b.scalar);
  env.decide(v);
  co_return sim::Unit{};
}

std::string exploreConvergeViolation(const sim::ExploreOutcome& o, int k) {
  bool any_commit = false;
  std::set<Value> picked;
  for (const auto& e : o.events) {
    if (e.kind != sim::EventKind::kNote) continue;
    if (e.label != "commit" && e.label != "adopt") continue;
    picked.insert(e.value.asInt());
    any_commit = any_commit || (e.label == "commit");
  }
  if (any_commit && static_cast<int>(picked.size()) > k) {
    return "commit with " + std::to_string(picked.size()) +
           " > k distinct picks";
  }
  return "";
}

bool exploreIdentical(const sim::ExploreResult& a,
                      const sim::ExploreResult& b) {
  return a.verdict == b.verdict && a.violation == b.violation &&
         a.counterexample == b.counterexample &&
         a.schedules_explored == b.schedules_explored &&
         a.sleep_set_skips == b.sleep_set_skips &&
         a.states_memoized == b.states_memoized &&
         a.memo_hits == b.memo_hits && a.steps_executed == b.steps_executed &&
         a.steps_replayed == b.steps_replayed &&
         a.steps_rebuilt == b.steps_rebuilt && a.restores == b.restores &&
         a.max_depth_seen == b.max_depth_seen && a.complete == b.complete &&
         a.frontier_jobs == b.frontier_jobs &&
         a.frontier_depth == b.frontier_depth &&
         a.outcomeSigs() == b.outcomeSigs();
}

void exploreWorkloads(int jobs) {
  std::printf("Explore frontier (jobs=1 vs jobs=%d, every counter):\n", jobs);
  std::vector<Value> props2 = {100, 101};
  std::vector<Value> props3 = {100, 101, 102};

  struct Family {
    std::string name;
    sim::ExploreConfig cfg;
    sim::AlgoFn algo;
    std::vector<Value> props;
    bool expect_violation = false;
  };
  std::vector<Family> families;
  for (const auto mode : {sim::ExploreMode::kDpor, sim::ExploreMode::kDag}) {
    const char* mname = mode == sim::ExploreMode::kDpor ? "dpor" : "dag";
    for (const int n : {2, 3}) {
      Family f;
      f.name = std::string("converge-n") + std::to_string(n) + "-" + mname;
      f.cfg.run.n_plus_1 = n;
      f.cfg.mode = mode;
      const int k = n - 1;
      f.cfg.property = [k](const sim::ExploreOutcome& o) {
        return exploreConvergeViolation(o, k);
      };
      f.algo = [k](Env& e, Value v) { return exploreOneShot(e, k, v); };
      f.props = n == 2 ? props2 : props3;
      families.push_back(std::move(f));
    }
  }
  {
    // The Upsilon family: immediately-stable history, so the refined
    // FD-independence relation is live in both phases of the frontier.
    Family f;
    f.name = "fd-upsilon-n2-dpor";
    f.cfg.run.n_plus_1 = 2;
    f.cfg.run.fd = fd::makeUpsilon(FailurePattern::failureFree(2),
                                   /*stab_time=*/0, /*seed=*/7);
    f.cfg.mode = sim::ExploreMode::kDpor;
    f.cfg.property = [](const sim::ExploreOutcome&) { return std::string(); };
    f.algo = [](Env& e, Value v) { return exploreFdBearing(e, v); };
    f.props = props2;
    families.push_back(std::move(f));
  }
  {
    Family f;
    f.name = "seeded-bug-n2-dpor";
    f.cfg.run.n_plus_1 = 2;
    f.cfg.mode = sim::ExploreMode::kDpor;
    f.cfg.property = [](const sim::ExploreOutcome& o) {
      return exploreConvergeViolation(o, 1);
    };
    f.algo = [](Env& e, Value v) { return exploreBuggy(e, v); };
    f.props = props2;
    f.expect_violation = true;
    families.push_back(std::move(f));
  }

  for (auto& f : families) {
    f.cfg.jobs = 1;
    const sim::ExploreResult one = explore(f.cfg, f.algo, f.props);
    f.cfg.jobs = jobs;
    const sim::ExploreResult many = explore(f.cfg, f.algo, f.props);
    check(exploreIdentical(one, many),
          f.name + ": jobs=" + std::to_string(jobs) +
              " bit-identical to jobs=1");
    if (f.expect_violation) {
      check(one.verdict == sim::ExploreVerdict::kViolation &&
                one.counterexample == many.counterexample &&
                !one.counterexample.empty(),
            f.name + ": identical counterexample at every worker count");
    } else {
      check(one.verdict == sim::ExploreVerdict::kVerified && one.complete,
            f.name + ": family verified");
    }
    if (f.cfg.mode == sim::ExploreMode::kDag) {
      f.cfg.jobs = 0;
      const sim::ExploreResult memo = explore(f.cfg, f.algo, f.props);
      f.cfg.memoize = false;
      const sim::ExploreResult plain = explore(f.cfg, f.algo, f.props);
      f.cfg.memoize = true;
      check(memo.verdict == plain.verdict &&
                memo.outcomeSigs() == plain.outcomeSigs(),
            f.name + ": classic memoize=false matches the memoized run");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 4;
  bool steal = true;
  bool memo = false;
  bool explore_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--steal") == 0) {
      steal = true;
    } else if (std::strcmp(argv[i], "--no-steal") == 0) {
      steal = false;
    } else if (std::strcmp(argv[i], "--memo") == 0) {
      memo = true;
    } else if (std::strcmp(argv[i], "--no-memo") == 0) {
      memo = false;
    } else if (std::strcmp(argv[i], "--explore") == 0) {
      explore_only = true;
    }
  }
  if (explore_only) {
    std::puts("=== determinism check: parallel exploration frontier ===");
    exploreWorkloads(jobs < 1 ? 1 : jobs);
    if (g_failures > 0) {
      std::printf("\ndeterminism check FAILED: %d divergence(s)\n",
                  g_failures);
      return 1;
    }
    std::puts("\ndeterminism check passed: frontier bit-identical");
    return 0;
  }
  std::puts("=== determinism check: every workload runs twice per seed ===");
  fig1Workloads();
  fig2Workloads();
  fig3Workloads();
  adversaryWorkloads();
  bgWorkloads();
  seedSensitivity();
  resultSensitivity();
  batchWorkloads(jobs < 1 ? 1 : jobs, steal, memo);
  if (g_failures > 0) {
    std::printf("\ndeterminism check FAILED: %d divergence(s)\n", g_failures);
    return 1;
  }
  std::puts("\ndeterminism check passed: all replays hash-identical");
  return 0;
}
