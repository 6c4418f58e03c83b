// ReportCache (sim/report_cache.h): whole-run memoization, certified.
//
//   * a warm hit is byte-identical — EVERY CellResult field — to both the
//     cold fill and a memo-free run, across five golden workload families
//     (plain, round-robin, Afek-flavored, watched Fig. 3 extraction,
//     chaos);
//   * capacity is a hard bound: inserting 2x capacity evicts LRU entries
//     and never grows the map past the limit;
//   * audited runs bypass: an explicit AuditMode (and the WFD_AUDIT env
//     latch, via resolvedAuditMode) makes cellKey return nullopt, as do an
//     empty memo_family and a detector with an opaque keyDigest;
//   * the cache is shared safely across a jobs=4 worker pool (the TSan
//     tier-1 run watches the concurrent insert/lookup paths).
//
// Hit counts are asserted against the number of cells cellKey actually
// accepts, so the suite stays green under WFD_AUDIT=throw — where the env
// latch correctly turns every unset-audit cell uncacheable.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "test_util.h"

namespace wfd {
namespace {

using core::upsilonSetAgreement;
using sim::AuditMode;
using sim::BatchCell;
using sim::BatchOptions;
using sim::BatchRunner;
using sim::BatchStats;
using sim::CellResult;
using sim::ChaosConfig;
using sim::CrashInjection;
using sim::Env;
using sim::FailurePattern;
using sim::GlitchKind;
using sim::OpDelay;
using sim::ReportCache;
using sim::RunConfig;
using sim::WatchdogConfig;

sim::AlgoFn fig1Algo() {
  return [](Env& e, Value v) { return upsilonSetAgreement(e, v); };
}

RunConfig fig1Config(int n_plus_1, std::uint64_t seed) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.fp = FailurePattern::withCrashes(n_plus_1, {{1, 120}});
  cfg.fd = fd::makeUpsilon(*cfg.fp, 150, seed);
  cfg.seed = seed;
  return cfg;
}

// The golden families (tests/golden_hash_test.cc) a BatchCell can express,
// as memo-eligible cells: the eventually-synchronous and scripted ones
// need a policy other than cfg.policy, which a batch cell cannot take.
// The memo_family names the opaque callables each shape fixes.
BatchCell familyCell(const std::string& family, std::uint64_t seed) {
  BatchCell cell;
  cell.memo_family = "rc-" + family;
  if (family == "fig1") {
    cell.cfg = fig1Config(4, seed);
    cell.algo = fig1Algo();
    cell.proposals = {10, 20, 30, 40};
    return cell;
  }
  if (family == "fig1-rr") {
    cell.cfg = fig1Config(4, seed);
    cell.cfg.policy = sim::PolicyKind::kRoundRobin;
    cell.algo = fig1Algo();
    cell.proposals = {10, 20, 30, 40};
    return cell;
  }
  if (family == "fig1-afek") {
    cell.cfg.n_plus_1 = 3;
    cell.cfg.fp = FailurePattern::failureFree(3);
    cell.cfg.fd = fd::makeUpsilon(*cell.cfg.fp, 80, seed);
    cell.cfg.seed = seed;
    cell.cfg.flavor = sim::SnapshotFlavor::kAfek;
    cell.algo = fig1Algo();
    cell.proposals = {1, 2, 3};
    return cell;
  }
  if (family == "fig3-watched") {
    const auto phi = core::phiOmegaK(4);
    cell.cfg.n_plus_1 = 4;
    cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 60}});
    cell.cfg.fd = fd::makeOmega(*cell.cfg.fp, 120, seed);
    cell.cfg.seed = seed;
    cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
    cell.proposals = std::vector<Value>(4, 0);
    cell.watchdog = WatchdogConfig{/*step_budget=*/4'000, 0, 0};
    // A post hook, so the memo provably replays check/metric outputs too.
    cell.post = [](const sim::RunReport& rep, CellResult& out) {
      out.metrics["watched_steps"] = static_cast<double>(rep.steps);
      out.check_detail = "post ran";
    };
    return cell;
  }
  if (family == "chaos") {
    cell.cfg.n_plus_1 = 4;
    cell.cfg.fp = FailurePattern::withCrashes(4, {{3, 50}});
    cell.cfg.fd =
        fd::makeUpsilon(*cell.cfg.fp, ProcSet::full(4), /*stab=*/300, seed);
    cell.cfg.seed = seed;
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.max_faulty = 2;
    chaos.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                             /*horizon=*/12, /*count=*/2, seed * 7});
    chaos.starvation.push_back({ProcSet{0}, 5, 10});
    chaos.op_delay = OpDelay{8, 3, seed};
    chaos.glitch = {GlitchKind::kScrambleNoise, 0, seed};
    cell.chaos = chaos;
    cell.watchdog = WatchdogConfig{3'000'000, 0, 3};
    cell.algo = fig1Algo();
    cell.proposals = test::distinctProposals(4);
    return cell;
  }
  ADD_FAILURE() << "unknown family " << family;
  return cell;
}

const char* const kFamilies[] = {
    "fig1", "fig1-rr", "fig1-afek", "fig3-watched", "chaos",
};

std::vector<BatchCell> familyGrid() {
  std::vector<BatchCell> cells;
  for (const char* family : kFamilies) {
    for (const std::uint64_t seed : {3, 9}) {
      cells.push_back(familyCell(family, seed));
    }
  }
  return cells;
}

std::size_t cacheableCount(const std::vector<BatchCell>& cells) {
  std::size_t n = 0;
  for (const auto& c : cells) n += sim::cellKey(c).has_value() ? 1 : 0;
  return n;
}

TEST(ReportCache, WarmHitIsByteIdenticalAcrossAllGoldenFamilies) {
  const auto cells = familyGrid();
  const std::size_t cacheable = cacheableCount(cells);

  // Memo-free ground truth, then a cold fill, then a warm replay — all
  // three must agree on every field of every result.
  const auto truth = BatchRunner(BatchOptions{1}).run(cells);

  ReportCache cache;
  const BatchRunner memoed(BatchOptions{1, /*steal=*/true, &cache});
  BatchStats cold_stats;
  const auto cold = memoed.run(cells, &cold_stats);
  EXPECT_EQ(cold_stats.memo_hits, 0u);
  EXPECT_EQ(cold_stats.memo_misses, cacheable);

  BatchStats warm_stats;
  const auto warm = memoed.run(cells, &warm_stats);
  EXPECT_EQ(warm_stats.memo_hits, cacheable);
  EXPECT_EQ(warm_stats.memo_misses, 0u);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string what =
        std::string(cells[i].memo_family) + " cell " + std::to_string(i);
    EXPECT_TRUE(cold[i] == truth[i]) << "cold vs truth: " << what;
    EXPECT_TRUE(warm[i] == truth[i]) << "warm vs truth: " << what;
  }
  EXPECT_EQ(cache.hits(), warm_stats.memo_hits);
}

TEST(ReportCache, HitRewritesTheSubmissionIndex) {
  // The same recipe at two submission slots: the second is answered from
  // the memo (when cacheable) yet still carries ITS index.
  const BatchCell cell = familyCell("fig1", 5);
  ReportCache cache;
  BatchStats stats;
  const auto res = BatchRunner(BatchOptions{1, /*steal=*/true, &cache})
                       .run({cell, cell}, &stats);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].index, 0u);
  EXPECT_EQ(res[1].index, 1u);
  EXPECT_EQ(res[0].trace_hash, res[1].trace_hash);
  const std::size_t expected_hits = sim::cellKey(cell).has_value() ? 1u : 0u;
  EXPECT_EQ(stats.memo_hits, expected_hits);
}

TEST(ReportCache, CapacityIsAHardBoundWithLruEviction) {
  ReportCache cache(/*capacity=*/8);
  EXPECT_EQ(cache.capacity(), 8u);
  CellResult r;
  r.steps = 42;
  for (std::uint64_t key = 1; key <= 16; ++key) {
    r.trace_hash = key;
    cache.insert(key, r);
    EXPECT_LE(cache.size(), 8u);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 8u);
  // Oldest half evicted, newest half resident.
  EXPECT_FALSE(cache.lookup(1, 0).has_value());
  ASSERT_TRUE(cache.lookup(16, 0).has_value());

  // A lookup refreshes recency: key 9 survives the next insert, key 10
  // (now the least recently used) is the one evicted.
  ASSERT_TRUE(cache.lookup(9, 0).has_value());
  r.trace_hash = 17;
  cache.insert(17, r);
  EXPECT_TRUE(cache.lookup(9, 0).has_value());
  EXPECT_FALSE(cache.lookup(10, 0).has_value());
}

TEST(ReportCache, AuditedRunsBypassTheMemo) {
  // An explicit audit request makes the cell uncacheable before any run:
  // audited runs exist to be re-executed and checked, never replayed.
  BatchCell audited = familyCell("fig1", 7);
  audited.cfg.audit = AuditMode::kThrow;
  EXPECT_FALSE(sim::cellKey(audited).has_value());
  BatchCell collected = familyCell("fig1", 7);
  collected.cfg.audit = AuditMode::kCollect;
  EXPECT_FALSE(sim::cellKey(collected).has_value());

  ReportCache cache;
  BatchStats stats;
  const auto res = BatchRunner(BatchOptions{2, /*steal=*/true, &cache})
                       .run({audited, audited}, &stats);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_misses, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // Without the explicit request, cacheability is exactly what the env
  // latch says: cacheable when WFD_AUDIT leaves the run unaudited.
  const BatchCell unaudited = familyCell("fig1", 7);
  EXPECT_EQ(sim::cellKey(unaudited).has_value(),
            !sim::resolvedAuditMode(std::nullopt).has_value());
}

// A history the digest cannot pin down: keyDigest stays the default
// kOpaqueFdDigest, so cells using it are uncacheable by construction.
struct OpaqueFd final : fd::FailureDetector {
  ProcSet query(Pid, Time) const override { return ProcSet{0}; }
  std::string name() const override { return "opaque-scripted"; }
  Time stabilizationTime() const override { return 0; }
};

TEST(ReportCache, OpaqueDetectorsAndAnonymousCellsBypass) {
  BatchCell anonymous = familyCell("fig1", 11);
  anonymous.memo_family.clear();
  EXPECT_FALSE(sim::cellKey(anonymous).has_value());

  BatchCell opaque = familyCell("fig1", 11);
  opaque.cfg.fd = std::make_shared<const OpaqueFd>();
  EXPECT_FALSE(sim::cellKey(opaque).has_value());
  EXPECT_EQ(opaque.cfg.fd->keyDigest(), fd::kOpaqueFdDigest);
}

TEST(ReportCache, SharedAcrossAJobs4PoolWithoutRaces) {
  // Concurrent inserts on the cold pass, concurrent lookups on the warm
  // one — the tier-1 TSan run certifies the locking discipline here.
  const auto cells = familyGrid();
  const std::size_t cacheable = cacheableCount(cells);
  const auto truth = BatchRunner(BatchOptions{1}).run(cells);

  ReportCache cache;
  const BatchRunner pooled(BatchOptions{4, /*steal=*/true, &cache});
  BatchStats cold_stats;
  const auto cold = pooled.run(cells, &cold_stats);
  EXPECT_EQ(cold_stats.memo_misses, cacheable);
  BatchStats warm_stats;
  const auto warm = pooled.run(cells, &warm_stats);
  EXPECT_EQ(warm_stats.memo_hits, cacheable);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string what = "pooled cell " + std::to_string(i);
    EXPECT_TRUE(cold[i] == truth[i]) << "cold: " << what;
    EXPECT_TRUE(warm[i] == truth[i]) << "warm: " << what;
  }
}

}  // namespace
}  // namespace wfd
