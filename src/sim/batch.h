// Parallel batch-run engine: shard independent (seed x config) cells
// across a fixed-size worker pool with deterministic aggregation.
//
// Every experiment in EXPERIMENTS.md is a loop over independent cells —
// one complete run recipe per (seed, configuration) pair — and a run is a
// pure function of its cell: the world, scheduler, coroutine frames, and
// trace are all owned by the Run, and the only objects a cell shares with
// anything else (the FdPtr history, the AlgoFn callable) are immutable
// and queried through const, stateless interfaces. That makes sharding
// safe by construction: each worker executes whole cells on its own
// Run/World/Scheduler stack, NO simulation state crosses threads, and the
// per-cell trace hash is bit-identical to what serial execution produces
// (certified by tests/batch_test.cc and tools/determinism_check).
//
// Determinism contract (docs/PARALLEL.md):
//   * results come back indexed by submission order, regardless of which
//     worker ran which cell or in what order they finished;
//   * cell execution routes through the exact serial code paths (runTask
//     for plain cells, runChaosTask/driveWatched for watched ones), so
//     jobs=N and jobs=1 produce the same verdicts, steps and trace hashes;
//   * a cell that throws (SimAbort, StepAuditError in throw mode, ...)
//     yields a structured error result; the other cells complete.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/chaos.h"
#include "sim/net/realized_fd.h"
#include "sim/runner.h"
#include "sim/service/service_config.h"
#include "sim/watchdog.h"

namespace wfd::sim {

struct CellResult;
class ReportCache;  // sim/report_cache.h: whole-run memo, keyed by cellKey

// Post-hook, run on the worker right after its cell completes, while the
// full RunReport (trace, world, decisions, auditor) is still alive. Use it
// to run checkers and record metrics without retaining thousands of worlds
// in memory. It MUST be a pure function of its arguments: it executes on a
// worker thread, so writing to anything captured by reference races.
using CellPost = std::function<void(const RunReport&, CellResult&)>;

// One cell: a complete, self-contained run recipe.
struct BatchCell {
  RunConfig cfg;
  AlgoFn algo;
  std::vector<Value> proposals;
  // When either is set the cell is driven through the watchdog — with the
  // chaos engine when `chaos` is present (exactly runChaosTask), plain
  // otherwise (replays Scheduler::run's schedule step for step). Unset:
  // the cell runs through runTask. Either way cfg.policy picks the
  // schedule; a cell has no per-cell policy hook.
  std::optional<ChaosConfig> chaos;
  std::optional<WatchdogConfig> watchdog;
  CellPost post;  // optional checker/metric hook
  // Service cell: when set, the cell is a whole replicated-service stream
  // (sim/service/service.h, runServiceCell) and every other recipe field
  // above is ignored — a ServiceConfig pins its execution completely.
  // memo_family still gates memoization; the config's digest() keys it.
  std::optional<service::ServiceConfig> service;
  // Memoization opt-in (sim/report_cache.h). The family names this cell's
  // OPAQUE callables — algo and post — which a 64-bit digest
  // cannot see: two cells may share a family only if they construct those
  // callables identically from the digested fields. Empty = never cached.
  std::string memo_family;
};

// Per-cell summary: everything the aggregating thread needs, without the
// World (batch memory stays bounded at jobs * one-run footprint).
struct CellResult {
  std::size_t index = 0;  // submission index; results[i].index == i
  RunVerdict verdict = RunVerdict::kOk;
  std::string detail;  // verdict detail, or the exception message on error
  bool error = false;  // the cell threw; no run data below is valid
  bool all_correct_done = false;
  Time steps = 0;
  int distinct_decisions = 0;
  Decisions decisions;
  std::uint64_t trace_hash = 0;
  // Post-hook outputs (checker verdicts, per-cell metrics).
  bool check_ok = true;
  std::string check_detail;
  std::map<std::string, double> metrics;

  [[nodiscard]] bool ok() const {
    return !error && verdict == RunVerdict::kOk && check_ok;
  }
};

struct BatchOptions {
  // Worker threads; <= 0 resolves to std::thread::hardware_concurrency.
  int jobs = 0;
  // Work stealing (the default): every worker starts with a contiguous
  // block of the submission order in its own deque and, once drained,
  // steals the back HALF of the most-loaded victim's remaining block (the
  // shared pool and policy of sim/steal_pool.h). false = static
  // sharding — each worker runs exactly its initial block, which is the
  // baseline the heavy-tail speedup in BENCH_batch.json is measured
  // against. Both modes produce bit-identical results (the schedule only
  // decides WHERE a cell runs, never WHAT it computes).
  bool steal = true;
  // Optional whole-run memo (sim/report_cache.h), shared across workers
  // and across batches. Only cells with a non-empty memo_family and a
  // digestible configuration participate; audited runs always bypass.
  // makeMemo (sim/store.h) builds one, optionally backed by the
  // persistent store so warm results survive the process.
  ReportCache* memo = nullptr;
};

// Scheduler observability for one batch execution: how cells moved across
// workers and what the memo did. Written by BatchRunner::run when the
// caller passes a stats out-param; per-worker vectors are indexed by
// worker id (size = the worker count actually spawned).
struct BatchStats {
  int jobs = 0;
  std::size_t cells = 0;
  std::size_t steal_ops = 0;      // successful steal-half operations
  std::size_t stolen_cells = 0;   // cells that changed workers
  std::size_t memo_hits = 0;      // cells answered from the ReportCache
  std::size_t memo_misses = 0;    // memo-eligible cells that ran fresh
  std::vector<std::size_t> executed;  // cells run per worker (hits included)
  // Simulation steps executed per worker: a deterministic load measure
  // (same cells -> same steps, whatever the thread timing). Its max over
  // workers is the schedule's step MAKESPAN — the wall time the schedule
  // would cost on >= jobs free cores — so steal-vs-static balance is
  // measurable even on oversubscribed or single-core hosts where
  // wall-clock can't show it. (A memo hit credits its stored step count,
  // so compare makespans on memo-free batches.)
  std::vector<long long> steps_run;
  std::vector<double> busy_s;  // wall seconds each worker was active
  double wall_s = 0;           // whole-batch wall time

  // Mean worker busy fraction of the batch wall time (1.0 = no idling).
  [[nodiscard]] double utilization() const;

  // Max per-worker simulation steps (0 when untracked): the critical
  // path of this schedule under perfect core availability.
  [[nodiscard]] long long stepMakespan() const;

  // Deterministic load balance: total steps / (workers * max per-worker
  // steps). 1.0 = perfectly even; hardware-independent, so a balance
  // gate holds on single-core CI hosts too.
  [[nodiscard]] double stepUtilization() const;
};

// <= 0 -> hardware_concurrency (>= 1).
[[nodiscard]] int resolveJobs(int jobs);

// Execute one cell exactly as the serial paths would. The building block
// the workers call; exposed so tests can certify jobs=1 equivalence.
[[nodiscard]] CellResult runCell(const BatchCell& cell, std::size_t index);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts = {});

  [[nodiscard]] int jobs() const { return opts_.jobs; }

  // Execute every cell; results in submission order. `stats`, when
  // non-null, receives the scheduler/memo counters for this execution.
  [[nodiscard]] std::vector<CellResult> run(const std::vector<BatchCell>& cells,
                                            BatchStats* stats = nullptr) const;

  // Generator form for sweeps too large to materialize: make(i) builds
  // cell i on the worker that executes it. `make` must be thread-safe and
  // a pure function of i (a shared FdCache inside it is fine: the cache
  // locks internally and detectors are immutable).
  using CellGen = std::function<BatchCell(std::size_t)>;
  [[nodiscard]] std::vector<CellResult> run(std::size_t count,
                                            const CellGen& make,
                                            BatchStats* stats = nullptr) const;

 private:
  BatchOptions opts_;
};

// ---- Heartbeat-execution cache -----------------------------------------
//
// A realized detector (sim/net/realized_fd.h) is cut from a whole simulated
// heartbeat execution, which costs hundreds of microseconds; a lens over a
// cached execution costs a few hundred nanoseconds. The cache holds one
// entry per (pattern, NetConfig): the execution and the lenses cut from it,
// so a campaign that certifies <>P, Omega and Upsilon against one substrate
// pays for one simulation, not three. Constructed histories (fd/upsilon.h,
// fd/omega.h) are not cached: a factory call is cheaper than a locked
// lookup. Everything served is immutable, so ONE instance can serve any
// number of concurrent runs; the cache is thread-safe and intended to be
// shared by a BatchRunner generator across workers.
class FdCache {
 public:
  // Plain factory calls, kept only because bench/suite calls them.
  fd::FdPtr upsilon(const FailurePattern& fp, Time stab, std::uint64_t seed);
  fd::FdPtr omega(const FailurePattern& fp, Time stab, std::uint64_t seed);

  fd::FdPtr netEventuallyPerfect(const FailurePattern& fp,
                                 const net::NetConfig& cfg);
  fd::FdPtr netOmega(const FailurePattern& fp, const net::NetConfig& cfg);
  fd::FdPtr netUpsilonF(const FailurePattern& fp, int f,
                        const net::NetConfig& cfg);
  // The shared execution itself; exposed for substrate tests.
  net::NetHistoryPtr netHistory(const FailurePattern& fp,
                                const net::NetConfig& cfg);

  // Every request above except upsilon/omega counts once: a miss when it
  // cached a new execution, a hit otherwise (a racing duplicate simulation
  // whose insert lost counts as a hit). size() = executions cached.
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t size() const;

 private:
  // Crash times and NetConfig::digest() pin an execution completely.
  using Key = std::pair<std::vector<Time>, std::uint64_t>;
  struct Entry {
    net::NetHistoryPtr history;
    // Lenses built on first request, keyed by (lens, f); f is 0 for the
    // lenses that ignore it.
    std::map<std::pair<net::RealizedLens, int>, fd::FdPtr> lenses;
  };

  // The entry for (fp, cfg), simulating it if absent. `lock` holds mu_ on
  // entry and on return; it is released while simulating.
  Entry& entry(std::unique_lock<std::mutex>& lock, const FailurePattern& fp,
               const net::NetConfig& cfg);
  fd::FdPtr lens(const FailurePattern& fp, const net::NetConfig& cfg,
                 net::RealizedLens kind, int f);

  mutable std::mutex mu_;
  std::map<Key, Entry> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace wfd::sim
