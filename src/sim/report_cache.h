// ReportCache: whole-run memoization keyed by a 64-bit cell digest.
//
// A run is a pure function of its cell (sim/batch.h), so two cells whose
// configurations digest identically produce identical CellResults — the
// sweep harnesses (bench_thm1_separation's easy direction, the Fig. 3
// extraction grid, warm chaos recertification) resubmit thousands of such
// duplicates across invocations. The cache layers NEXT TO FdCache: FdCache
// dedupes simulated heartbeat executions (inputs to runs), ReportCache
// dedupes the completed run summaries themselves.
//
// What makes a cell cacheable (cellKey returns a key):
//   * it names a memo_family — the family stands in for the opaque
//     callables (algo, post) the digest cannot inspect;
//   * its detector (if any) overrides FailureDetector::keyDigest — the
//     default kOpaqueFdDigest marks a history the digest cannot pin down;
//   * it will not run audited: resolvedAuditMode(cfg.audit) is empty. An
//     audited run exists to be re-executed and checked, never answered
//     from a cache. (Chaos cells force auditing INTERNALLY — that is part
//     of the deterministic recipe the key digests, so chaos campaigns
//     stay cacheable; only a caller-requested audit bypasses.)
//
// A hit is byte-identical to the fresh run it memoizes (certified by
// tests/report_cache_test.cc): lookup returns the stored CellResult with
// only the submission index rewritten. Thread-safe; bounded by LRU
// eviction. Collisions: the key folds every digested field through the
// Trace mix round — a 64-bit collision between two DISTINCT cells of the
// same family would serve one cell's result for the other, which at the
// cache's ~4k default capacity has probability ~2^-41 per pair; families
// with undigestable distinguishing state must use distinct family names.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/batch.h"

namespace wfd::sim {

// Digest of everything that determines a cell's outcome, or nullopt when
// the cell is uncacheable (empty memo_family, opaque detector, audited).
[[nodiscard]] std::optional<std::uint64_t> cellKey(const BatchCell& cell);

// Durable second level below the in-memory LRU, and the home of the
// explorer's certificates (sim/explore.h). The production implementation
// is PersistentStore (sim/store.h) — an append-only, checksummed,
// version-stamped segment file that outlives the process; the interface
// keeps report_cache free of any filesystem dependency. Payloads are
// opaque bytes whose format the caller owns: ReportCache writes
// encodeCellResult bytes (sim/codec.h), the explorer its certificate
// records. Contract: load() returns exactly the
// bytes save() stored for that key, or nullopt — NEVER a wrong or partial
// payload (corruption must degrade to a miss) — and both calls must be
// thread-safe. A payload its reader cannot decode is a miss too.
class ResultStore {
 public:
  virtual ~ResultStore() = default;
  [[nodiscard]] virtual std::optional<std::vector<std::uint8_t>> load(
      std::uint64_t key) = 0;
  virtual void save(std::uint64_t key,
                    const std::vector<std::uint8_t>& payload) = 0;
};

class ReportCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit ReportCache(std::size_t capacity = kDefaultCapacity,
                       std::unique_ptr<ResultStore> store = nullptr);

  // The stored result with `index` rewritten to the caller's submission
  // slot, or nullopt on miss. Refreshes LRU recency on hit.
  [[nodiscard]] std::optional<CellResult> lookup(std::uint64_t key,
                                                 std::size_t index);

  // Insert (or refresh) the completed result for `key`, evicting the
  // least-recently-used entry when the capacity bound is hit. Callers
  // only insert non-error results: an exception message is not a run
  // outcome and must be reproduced, not replayed.
  void insert(std::uint64_t key, const CellResult& result);

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t evictions() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Hits answered by the persistent store (a subset of hits()): an
  // in-memory miss that the ResultStore satisfied. disk_misses counts
  // eligible lookups that fell through both levels.
  [[nodiscard]] std::size_t diskHits() const;
  [[nodiscard]] std::size_t diskMisses() const;
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

 private:
  struct Entry {
    CellResult result;
    std::list<std::uint64_t>::iterator lru_it;  // position in lru_
  };

  // `persisted`: the result came from the store, so it is not re-appended.
  void insertLocked(std::uint64_t key, const CellResult& result,
                    bool persisted);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unique_ptr<ResultStore> store_;  // optional durable second level
  std::list<std::uint64_t> lru_;  // front = most recent, back = next victim
  std::unordered_map<std::uint64_t, Entry> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t disk_hits_ = 0;
  std::size_t disk_misses_ = 0;
};

}  // namespace wfd::sim
