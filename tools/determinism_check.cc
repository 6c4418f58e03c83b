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
// Five additional properties ride along:
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
//     every key-eligible cell from disk. "The same result" is
//     CellResult's operator==, every field;
//   * frontier equivalence (--explore, its own pass): the parallel
//     explorer at --jobs N must match jobs=1 by ExploreResult::sameSearch
//     on every golden exploration family.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
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
  // Each Fig. 1 detector is built once and shared by its cell and the
  // cell's resubmission: ONE instance serves concurrent cells, which is
  // the sharing the immutable FailureDetector contract allows.
  for (const std::uint64_t seed : {1u, 7u, 23u, 40u}) {
    const int n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
    sim::BatchCell cell;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = fp;
    cell.cfg.fd = fd::makeUpsilon(fp, 150, seed);
    cell.cfg.seed = seed;
    cell.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
    cell.proposals = {10, 20, 30, 40};
    cell.memo_family = "dc-fig1";
    cells.push_back(cell);
    // Resubmitted with the same detector instance: its run must hash
    // identically to the first submission.
    cells.push_back(cell);
  }
  for (const std::uint64_t seed : {3u, 11u}) {
    const int n_plus_1 = 5;
    const auto fp = FailurePattern::withCrashes(n_plus_1, {{4, 200}});
    sim::BatchCell cell;
    cell.cfg.n_plus_1 = n_plus_1;
    cell.cfg.fp = fp;
    cell.cfg.fd = fd::makeUpsilonF(fp, 2, 180, seed);
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
    cell.cfg.fd = fd::makeOmega(fp, 100, seed);
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
  // Resubmitted duplicate cells (one shared detector) replay identically.
  bool dup_ok = true;
  for (std::size_t i = 0; i + 1 < 8; i += 2) {
    dup_ok = dup_ok && b[i].trace_hash == b[i + 1].trace_hash;
  }
  check(dup_ok, "shared detector instance replays hash-identical runs");
  // The OTHER scheduler mode must be equally invisible: where a cell runs
  // never changes what it computes.
  const sim::BatchRunner other(sim::BatchOptions{jobs, !steal});
  check(a == other.run(cells),
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
    check(a == cold, "memo cold pass matches serial field for field");
    check(a == warm, "memo warm pass (cache hits) byte-identical");
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
    check(a == stored,
          "persistent-store cold pass matches serial field for field");
    check(a == reread,
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

void exploreWorkloads(int jobs) {
  std::printf("Explore frontier (jobs=1 vs jobs=%d, every counter):\n", jobs);

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
      f.props = test::distinctProposals(n);
      f.cfg.property = [k, props = f.props](const sim::ExploreOutcome& o) {
        return core::checkKConverge(o.events, k, props).violation;
      };
      f.algo = [k](Env& e, Value v) { return core::kConvergeTask(e, k, v); };
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
    f.props = test::distinctProposals(2);
    families.push_back(std::move(f));
  }
  {
    Family f;
    f.name = "seeded-bug-n2-dpor";
    f.cfg.run.n_plus_1 = 2;
    f.cfg.mode = sim::ExploreMode::kDpor;
    f.props = test::distinctProposals(2);
    f.cfg.property = [props = f.props](const sim::ExploreOutcome& o) {
      return core::checkKConverge(o.events, 1, props).violation;
    };
    f.algo = test::buggyOneShot;
    f.expect_violation = true;
    families.push_back(std::move(f));
  }

  for (auto& f : families) {
    f.cfg.jobs = 1;
    const sim::ExploreResult one = explore(f.cfg, f.algo, f.props);
    f.cfg.jobs = jobs;
    const sim::ExploreResult many = explore(f.cfg, f.algo, f.props);
    check(one.sameSearch(many),
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
