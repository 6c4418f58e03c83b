// Parallel frontier + persistent certificates (sim/explore.h).
//
// The determinism contract under test: jobs=N ≡ jobs=1 BIT-IDENTICALLY —
// verdict, violation, counterexample, outcome-signature set and every
// search counter — because the job set, each job's result, and the merge
// are pure functions of the search tree, never of worker scheduling. On
// top of that: frontier-vs-classic outcome equality (counts differ by
// design: eager prefixes explore a superset of class representatives),
// steal-vs-static equality, and the certificate store's hit / resume /
// version-mismatch behavior over PersistentStore. Certificate
// records are typed bytes, so an in-memory store fake can also damage
// each record and check that the damage is a cold miss.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/codec.h"
#include "sim/store.h"
#include "test_util.h"

namespace wfd {
namespace {

using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreOutcome;
using sim::ExploreResult;
using sim::ExploreVerdict;
using sim::Unit;
using test::distinctProposals;

// The k-converge safety contract (core::checkKConverge): C-Validity, plus
// "any commit forces at most k distinct picks". Without a commit, n
// distinct adopts are legal — an unconditional decision-count bound is
// NOT a theorem of k-converge.
std::function<std::string(const ExploreOutcome&)> convergeProperty(int k,
                                                                    int n) {
  return [k, props = distinctProposals(n)](const ExploreOutcome& o) {
    return core::checkKConverge(o.events, k, props).violation;
  };
}

ExploreConfig convergeCfg(int n, int k, ExploreMode mode, int jobs) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = n;
  cfg.mode = mode;
  cfg.jobs = jobs;
  cfg.property = convergeProperty(k, n);
  return cfg;
}

ExploreResult exploreConverge(const ExploreConfig& cfg, int k, int n) {
  return explore(
      cfg, [k](Env& e, Value v) { return core::kConvergeTask(e, k, v); },
      distinctProposals(n));
}

// ---- The identity contract itself (ExploreResult::sameSearch) -----------

// One named edit of an ExploreResult.
struct Perturbation {
  const char* field;
  std::function<void(ExploreResult&)> apply;
};

ExploreResult sampleSearch() {
  ExploreResult r;
  r.verdict = ExploreVerdict::kViolation;
  r.violation = "C-Agreement";
  r.counterexample = {0, 0, 1, 1};
  r.schedules_explored = 7;
  r.max_depth_seen = 8;
  r.frontier_jobs = 3;
  r.frontier_depth = 2;
  r.worker_steps = {5, 6};
  sim::ExploreOutcome o;
  o.sig = 42;
  o.decisions = {{0, 100}};
  r.outcomes.emplace(o.sig, o);
  return r;
}

TEST(SameSearch, EveryCoveredFieldBreaksIt) {
  const std::vector<Perturbation> covered = {
      {"verdict",
       [](ExploreResult& r) { r.verdict = ExploreVerdict::kVerified; }},
      {"violation", [](ExploreResult& r) { r.violation += "!"; }},
      {"counterexample", [](ExploreResult& r) { r.counterexample.pop_back(); }},
      {"schedules_explored", [](ExploreResult& r) { ++r.schedules_explored; }},
      {"sleep_set_skips", [](ExploreResult& r) { ++r.sleep_set_skips; }},
      {"states_memoized", [](ExploreResult& r) { ++r.states_memoized; }},
      {"memo_hits", [](ExploreResult& r) { ++r.memo_hits; }},
      {"steps_executed", [](ExploreResult& r) { ++r.steps_executed; }},
      {"steps_replayed", [](ExploreResult& r) { ++r.steps_replayed; }},
      {"steps_rebuilt", [](ExploreResult& r) { ++r.steps_rebuilt; }},
      {"restores", [](ExploreResult& r) { ++r.restores; }},
      {"max_depth_seen", [](ExploreResult& r) { ++r.max_depth_seen; }},
      {"complete", [](ExploreResult& r) { r.complete = !r.complete; }},
      {"frontier_jobs", [](ExploreResult& r) { ++r.frontier_jobs; }},
      {"frontier_depth", [](ExploreResult& r) { ++r.frontier_depth; }},
      {"outcome sigs", [](ExploreResult& r) { r.outcomes[43].sig = 43; }},
  };
  const ExploreResult base = sampleSearch();
  ASSERT_TRUE(base.sameSearch(base));
  for (const Perturbation& p : covered) {
    ExploreResult other = base;
    p.apply(other);
    EXPECT_FALSE(base.sameSearch(other)) << p.field;
    EXPECT_FALSE(other.sameSearch(base)) << p.field;
  }
}

TEST(SameSearch, SchedulingAndStoreFieldsLeaveItTrue) {
  const std::vector<Perturbation> ignored = {
      {"jobs_used", [](ExploreResult& r) { r.jobs_used = 4; }},
      {"steal_ops", [](ExploreResult& r) { r.steal_ops = 9; }},
      {"worker_steps", [](ExploreResult& r) { r.worker_steps = {11}; }},
      {"from_cache", [](ExploreResult& r) { r.from_cache = true; }},
      {"cert_job_hits", [](ExploreResult& r) { r.cert_job_hits = 2; }},
      {"cert_saves", [](ExploreResult& r) { r.cert_saves = 3; }},
      // A certificate hit keeps the signatures, not the event bodies.
      {"outcome bodies",
       [](ExploreResult& r) { r.outcomes[42] = {{}, {}, 42}; }},
  };
  const ExploreResult base = sampleSearch();
  for (const Perturbation& p : ignored) {
    ExploreResult other = base;
    p.apply(other);
    EXPECT_TRUE(base.sameSearch(other)) << p.field;
  }
}

TEST(Frontier, JobsFourBitIdenticalToJobsOneBothModes) {
  for (const ExploreMode mode : {ExploreMode::kDpor, ExploreMode::kDag}) {
    const ExploreResult one =
        exploreConverge(convergeCfg(3, 2, mode, 1), 2, 3);
    const ExploreResult four =
        exploreConverge(convergeCfg(3, 2, mode, 4), 2, 3);
    EXPECT_TRUE(one.sameSearch(four));
    EXPECT_TRUE(one.verified()) << one.violation;
    EXPECT_GT(one.frontier_jobs, 1u);
  }
}

TEST(Frontier, MatchesClassicEngineOutcomeSet) {
  const ExploreResult classic =
      exploreConverge(convergeCfg(3, 2, ExploreMode::kDpor, 0), 2, 3);
  const ExploreResult frontier =
      exploreConverge(convergeCfg(3, 2, ExploreMode::kDpor, 4), 2, 3);
  EXPECT_EQ(classic.verdict, frontier.verdict);
  EXPECT_EQ(classic.outcomeSigs(), frontier.outcomeSigs());
  EXPECT_EQ(frontier.jobs_used, 4);
}

TEST(Frontier, ExplicitFrontierDepthHonored) {
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDag, 2);
  cfg.frontier_depth = 4;
  const ExploreResult res = exploreConverge(cfg, 2, 3);
  EXPECT_EQ(res.frontier_depth, 4);
  // kDag at depth 4 with 3 always-enabled processes: exactly 3^4 jobs.
  EXPECT_EQ(res.frontier_jobs, 81u);
  EXPECT_TRUE(res.verified()) << res.violation;
  const ExploreResult classic =
      exploreConverge(convergeCfg(3, 2, ExploreMode::kDag, 0), 2, 3);
  EXPECT_EQ(res.outcomeSigs(), classic.outcomeSigs());
}

TEST(Frontier, SeededBugSameCounterexampleAtAnyWorkerCount) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.mode = ExploreMode::kDpor;
  cfg.property = convergeProperty(1, 2);
  cfg.jobs = 1;
  const std::vector<Value> props = distinctProposals(2);
  const ExploreResult one = explore(cfg, test::buggyOneShot, props);
  cfg.jobs = 4;
  const ExploreResult four = explore(cfg, test::buggyOneShot, props);
  ASSERT_EQ(one.verdict, ExploreVerdict::kViolation);
  EXPECT_TRUE(one.sameSearch(four));
  ASSERT_FALSE(one.counterexample.empty());

  // The merged counterexample (prefix ++ job tail) must replay: the same
  // pid sequence through a scripted policy reproduces a commit alongside
  // a disagreeing pick.
  const sim::RunResult rr = test::runScheduled(cfg.run, test::buggyOneShot,
                                               props, four.counterexample);
  const core::ConvergeReport rep =
      core::checkKConverge(rr.trace().events(), 1, props);
  EXPECT_GT(rep.commits, 0);
  EXPECT_GT(rep.distinct, 1);
}

TEST(Frontier, PerJobBudgetCutIsWorkerCountInvariant) {
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDag, 1);
  cfg.memoize = false;     // un-memoized subtrees are big enough to cut
  cfg.max_schedules = 5;   // cuts inside jobs, deterministically per job
  const ExploreResult one = exploreConverge(cfg, 2, 3);
  cfg.jobs = 4;
  const ExploreResult four = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(one.complete);
  EXPECT_TRUE(one.sameSearch(four));
}

// FD-bearing mini-protocol (the tests/explore_test.cc shape): two queries
// bracketing a snapshot update, so the refined relation classifies real
// query×query and query×memory pairs inside the frontier engine.
Coro<Unit> fdWorkload(Env& env, Value v) {
  env.propose(v);
  const sim::OpResult a = co_await env.queryFd();
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.fd"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const sim::OpResult b = co_await env.queryFd();
  const SlotArray view = co_await mem::snapshotScan(env, s);
  env.note("fd1", a.scalar);
  env.note("fd2", b.scalar);
  env.note("seen",
           RegVal(static_cast<Value>(mem::distinctValues(view).size())));
  env.decide(v);
  co_return Unit{};
}

TEST(Frontier, FdWorkloadBitIdenticalUnderRefinedRelation) {
  // Upsilon with an immediately-stable history, so the refined FD
  // relation (and its sleep-set-carried epochs) is live inside the
  // frontier engine too.
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.run.fd = fd::makeUpsilon(sim::FailurePattern::failureFree(2),
                               /*stab_time=*/0, /*seed=*/7);
  cfg.mode = ExploreMode::kDpor;
  cfg.property = [](const ExploreOutcome&) { return std::string(); };
  const auto algo = [](Env& e, Value v) { return fdWorkload(e, v); };
  cfg.jobs = 1;
  const ExploreResult one = explore(cfg, algo, distinctProposals(2));
  cfg.jobs = 4;
  const ExploreResult four = explore(cfg, algo, distinctProposals(2));
  EXPECT_TRUE(one.sameSearch(four));
  EXPECT_TRUE(one.verified()) << one.violation;
  // And the frontier run agrees with the classic engine's outcome set.
  cfg.jobs = 0;
  const ExploreResult classic = explore(cfg, algo, distinctProposals(2));
  EXPECT_EQ(one.outcomeSigs(), classic.outcomeSigs());
}

// ---- Persistent certificates ---------------------------------------------

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "wfd_explore_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// The WFD_AUDIT latch makes every run audited, and audited runs are
// uncacheable BY DESIGN (AuditedAndOpaqueRunsBypassTheStore covers that
// path) — so the store-hit tests have nothing to observe under it.
#define SKIP_IF_AUDIT_LATCH()                                           \
  if (sim::resolvedAuditMode(std::nullopt).has_value()) {               \
    GTEST_SKIP() << "WFD_AUDIT latch active: runs are uncacheable";     \
  }

TEST(Certificates, WarmRunServedFromStoreByteEquivalently) {
  SKIP_IF_AUDIT_LATCH();
  const std::string dir = freshDir("warm");
  sim::PersistentStore store({dir, "vA"});
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDpor, 2);
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.converge";
  const ExploreResult cold = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_GT(cold.cert_saves, 0u);
  const ExploreResult warm = exploreConverge(cfg, 2, 3);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.sameSearch(cold));
  EXPECT_GT(warm.steps_rebuilt, 0u);
  // The step profile travels with the record, so the warm makespan is the
  // one the cold run earned.
  EXPECT_EQ(warm.worker_steps, cold.worker_steps);
  EXPECT_GT(warm.stepMakespan(), 0);
}

TEST(Certificates, MultiLineViolationSurvivesTheStore) {
  SKIP_IF_AUDIT_LATCH();
  const std::string dir = freshDir("multiline");
  sim::PersistentStore store({dir, "vA"});
  ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.mode = ExploreMode::kDpor;
  cfg.jobs = 2;
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.multiline";
  cfg.property = [agreement = convergeProperty(1, 2)](const ExploreOutcome& o) {
    const std::string v = agreement(o);
    return v.empty() ? v : v + "\nsecond line of the report";
  };
  const ExploreResult cold =
      explore(cfg, test::buggyOneShot, distinctProposals(2));
  ASSERT_EQ(cold.verdict, ExploreVerdict::kViolation);
  ASSERT_TRUE(cold.complete);
  ASSERT_NE(cold.violation.find('\n'), std::string::npos);
  const ExploreResult warm =
      explore(cfg, test::buggyOneShot, distinctProposals(2));
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.violation, cold.violation);
  EXPECT_EQ(warm.counterexample, cold.counterexample);
}

TEST(Certificates, DifferentConfigNeverWrongHits) {
  SKIP_IF_AUDIT_LATCH();
  const std::string dir = freshDir("cfg");
  sim::PersistentStore store({dir, "vA"});
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDpor, 2);
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.converge";
  const ExploreResult a = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(a.from_cache);
  // Same family, different mode: a distinct key — must search afresh.
  cfg.mode = ExploreMode::kDag;
  const ExploreResult b = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(b.from_cache);
  EXPECT_EQ(a.outcomeSigs(), b.outcomeSigs());
}

TEST(Certificates, VersionMismatchColdMisses) {
  SKIP_IF_AUDIT_LATCH();
  const std::string dir = freshDir("ver");
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDpor, 2);
  cfg.cert_family = "explore_frontier_test.converge";
  sim::PersistentStore a({dir, "vA"});
  cfg.certificates = &a;
  EXPECT_FALSE(exploreConverge(cfg, 2, 3).from_cache);
  // The store's version-in-filename rule: a new version addresses a
  // different segment, so the stale certificate cold-misses.
  sim::PersistentStore b({dir, "vB"});
  cfg.certificates = &b;
  EXPECT_FALSE(exploreConverge(cfg, 2, 3).from_cache);
  // And the original version still hits its own segment.
  cfg.certificates = &a;
  EXPECT_TRUE(exploreConverge(cfg, 2, 3).from_cache);
}

TEST(Certificates, InterruptedFrontierResumesFromPerJobRecords) {
  SKIP_IF_AUDIT_LATCH();
  const std::string dir = freshDir("resume");
  sim::PersistentStore store({dir, "vA"});
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDag, 2);
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.cut";
  cfg.memoize = false;
  cfg.max_schedules = 5;  // budget-cut: no whole-config record is saved
  const ExploreResult first = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(first.complete);
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.cert_saves, 0u);
  const ExploreResult again = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(again.from_cache);  // incomplete runs never whole-hit
  EXPECT_GT(again.cert_job_hits, 0u);
  EXPECT_TRUE(first.sameSearch(again));
}

using Bytes = std::vector<std::uint8_t>;

// In-memory byte ResultStore. Payloads are opaque to it, so a test can
// rewrite any stored record between runs; `saved` keeps save order.
struct MemStore : sim::ResultStore {
  std::optional<Bytes> load(std::uint64_t key) override {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = records.find(key);
    if (it == records.end()) return std::nullopt;
    return it->second;
  }
  void save(std::uint64_t key, const Bytes& payload) override {
    const std::lock_guard<std::mutex> lock(mu);
    if (records.emplace(key, payload).second) saved.push_back(key);
  }
  std::mutex mu;
  std::map<std::uint64_t, Bytes> records;
  std::vector<std::uint64_t> saved;
};

TEST(Certificates, DamagedRecordsColdMissAndStayBitIdentical) {
  SKIP_IF_AUDIT_LATCH();
  ExploreConfig cfg = convergeCfg(2, 1, ExploreMode::kDpor, 2);
  cfg.frontier_depth = 2;
  const ExploreResult fresh = exploreConverge(cfg, 1, 2);  // no store
  MemStore cold;
  cfg.certificates = &cold;
  cfg.cert_family = "explore_frontier_test.damaged";
  EXPECT_TRUE(fresh.sameSearch(exploreConverge(cfg, 1, 2)));
  ASSERT_TRUE(fresh.verified());
  const std::uint64_t jobs = fresh.frontier_jobs;
  ASSERT_GT(jobs, 1u);
  ASSERT_EQ(cold.saved.size(), jobs + 1);  // every job, then the config
  const std::uint64_t full_key = cold.saved.back();
  EXPECT_TRUE(exploreConverge(cfg, 1, 2).from_cache);  // intact: a hit

  sim::ByteWriter cell;
  sim::encodeCellResult(cell, sim::CellResult{});
  for (const std::uint64_t key : cold.saved) {
    const Bytes& good = cold.records.at(key);
    std::vector<Bytes> damaged;
    for (std::size_t len = 0; len < good.size(); ++len) {
      damaged.emplace_back(good.begin(), good.begin() + len);
    }
    damaged.push_back(good);
    damaged.back().push_back(0);  // one trailing byte
    damaged.push_back(good);
    damaged.back()[0] ^= 0xFF;  // flipped schema tag
    // A counterexample count no record could hold. It sits after the tag,
    // the two flag bytes and the empty violation's u64 length.
    damaged.push_back(good);
    for (std::size_t i = 14; i < 18; ++i) damaged.back()[i] = 0xFF;
    damaged.push_back(cell.bytes());  // a ReportCache payload
    for (const Bytes& bad : damaged) {
      // A damaged whole-config record stands alone. A damaged job record
      // sits among intact ones, with no whole-config record to serve the
      // call first.
      MemStore warm;
      if (key != full_key) {
        warm.records = cold.records;
        warm.records.erase(full_key);
      }
      warm.records[key] = bad;
      cfg.certificates = &warm;
      const ExploreResult r = exploreConverge(cfg, 1, 2);
      const std::string what = "key " + std::to_string(key) + ", " +
                               std::to_string(bad.size()) + " bytes";
      EXPECT_FALSE(r.from_cache) << what;
      EXPECT_EQ(r.cert_job_hits, key == full_key ? 0 : jobs - 1) << what;
      EXPECT_TRUE(fresh.sameSearch(r));
    }
  }
}

// Records of the previous schema (tag "WXC4") carry a states_memoized
// of 0 for kDag walks that stopped early, which the walk no longer
// reports. Whatever key such a record sits under, it cold-misses and the
// search runs again.
TEST(Certificates, PreviousSchemaRecordsColdMiss) {
  SKIP_IF_AUDIT_LATCH();
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDag, 2);
  const ExploreResult fresh = exploreConverge(cfg, 2, 3);  // no store
  MemStore store;
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.schema";
  EXPECT_TRUE(fresh.sameSearch(exploreConverge(cfg, 2, 3)));
  ASSERT_GT(store.records.size(), 1u);
  EXPECT_TRUE(exploreConverge(cfg, 2, 3).from_cache);  // intact: a hit
  for (auto& [key, bytes] : store.records) {
    // The u32 tag is little-endian: "WXC5" on disk, and "WXC4" before.
    ASSERT_GE(bytes.size(), 4u);
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "WXC5");
    bytes[3] = '4';
  }
  const ExploreResult r = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.cert_job_hits, 0u);
  EXPECT_TRUE(fresh.sameSearch(r));
}

TEST(Certificates, AuditedAndOpaqueRunsBypassTheStore) {
  const std::string dir = freshDir("bypass");
  sim::PersistentStore store({dir, "vA"});
  ExploreConfig cfg = convergeCfg(2, 1, ExploreMode::kDpor, 1);
  cfg.certificates = &store;
  cfg.cert_family = "explore_frontier_test.bypass";
  cfg.run.audit = sim::AuditMode::kThrow;
  const ExploreResult a = exploreConverge(cfg, 1, 2);
  const ExploreResult b = exploreConverge(cfg, 1, 2);
  EXPECT_FALSE(a.from_cache);
  EXPECT_FALSE(b.from_cache);  // audited runs are re-executed, never served
  EXPECT_EQ(a.cert_saves, 0u);
  // No family: uncacheable by the report-cache rules.
  ExploreConfig anon = convergeCfg(2, 1, ExploreMode::kDpor, 1);
  anon.certificates = &store;
  EXPECT_EQ(exploreConverge(anon, 1, 2).cert_saves, 0u);
}

}  // namespace
}  // namespace wfd
