// Multi-process campaign fabric: shard a batch across forked worker
// processes with block-level work stealing and deterministic aggregation.
//
// Each worker is fork()ed from the coordinator (no exec: a BatchCell
// holds opaque callables, so workers inherit the cell GENERATOR and
// rebuild cells by index — only plain-data CellResults cross the wire,
// sim/fabric/wire.h). A worker runs an unmodified BatchRunner over each
// assigned block, so within a process the whole thread-level determinism
// contract of sim/batch.h applies verbatim; across processes the
// coordinator scatters results by submission index, which extends the
// contract to: procs=M x jobs=N is bit-identical to serial — same
// verdicts, same steps, same trace hashes, results in submission order
// (certified by tools/determinism_check --procs).
//
// Scheduling: the submission order is cut into contiguous blocks (~64
// per process by default), dealt as contiguous per-process ranges; a
// worker that drains its range steals the back half of the most-loaded
// peer's remaining blocks — the victim rule and back-half move of
// sim/steal_pool.h, shared with the thread-level pool inside each worker.
// Stealing moves whole untouched blocks between PROCESSES at assignment
// time — it never changes what a cell computes, only where it runs.
//
// Failure: a worker that dies mid-block (crash, kill, malformed frame)
// yields structured error results for that block only ("fabric worker
// died mid-block"); its untouched queued blocks migrate to surviving
// workers, and if every worker dies the coordinator finishes the queue
// in-process. The campaign completes either way.
//
// Caching: the fabric ignores BatchOptions::memo (a ReportCache is not
// shareable across fork boundaries once processes diverge). Instead each
// worker builds its own memo via makeMemo(batch) — when
// BatchOptions::cache_dir is set, all workers share one persistent
// content-addressed store (sim/fabric/store.h), which is how warm
// results cross both process and run boundaries.
#pragma once

#include <vector>

#include "sim/batch.h"

namespace wfd::sim::fabric {

struct FabricOptions {
  // Worker processes; <= 1 (after resolveProcs) runs the batch in-process
  // through a plain BatchRunner — same results, no forking.
  int procs = 0;
  // Per-worker-process batch options: thread count, thread stealing, and
  // the memo_capacity/cache_dir/cache_version consumed by makeMemo.
  // BatchOptions::memo is ignored (see header comment).
  BatchOptions batch;
  // Cells per assignment block; 0 = auto (about 64 blocks per process,
  // so a heavy-tailed cluster spreads instead of landing in one block).
  std::size_t block = 0;
  // Block stealing between processes. false = static per-process ranges,
  // the baseline BENCH_fabric.json measures balance against.
  bool steal = true;
};

// <= 0 -> 1. The fabric never auto-scales to core count: forking is an
// explicit opt-in (CI and the benches pass --procs deliberately).
[[nodiscard]] int resolveProcs(int procs);

// Execute every cell across the fabric; results in submission order.
// `stats`, when non-null, receives per-PROCESS aggregates in
// executed/steps_run/busy_s plus the fabric counters (procs, blocks,
// proc_steal_ops, disk_hits, ...). The generator `make` must satisfy the
// same purity contract as BatchRunner::run's — it additionally runs in
// forked children here, so it must not depend on mutable global state.
[[nodiscard]] std::vector<CellResult> runFabric(const FabricOptions& opts,
                                                std::size_t count,
                                                const BatchRunner::CellGen& make,
                                                BatchStats* stats = nullptr);

[[nodiscard]] std::vector<CellResult> runFabric(
    const FabricOptions& opts, const std::vector<BatchCell>& cells,
    BatchStats* stats = nullptr);

}  // namespace wfd::sim::fabric
