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
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/codec.h"
#include "sim/store.h"
#include "test_util.h"

namespace wfd {
namespace {

using core::kConverge;
using core::Pick;
using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreOutcome;
using sim::ExploreResult;
using sim::ExploreVerdict;
using sim::Unit;

Coro<Unit> oneShot(Env& env, int k, Value v) {
  env.propose(v);
  const Pick p = co_await kConverge(env, sim::ObjKey{"x.conv"}, k, v);
  env.note(p.committed ? "commit" : "adopt", RegVal(p.value));
  env.decide(p.value);
  co_return Unit{};
}

// The seeded disagreement bug from tests/explore_test.cc: adopts its own
// value, so solo-first schedules violate 1-agreement.
Coro<Unit> buggyOneShot(Env& env, Value v) {
  env.propose(v);
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.bug"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const SlotArray view = co_await mem::snapshotScan(env, s);
  const std::vector<Value> u = mem::distinctValues(view);
  env.note(u.size() <= 1 ? "commit" : "adopt", RegVal(v));
  env.decide(v);
  co_return Unit{};
}

std::vector<Value> props(int n) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(100 + i);
  return v;
}

// The k-converge safety contract (same shape as tests/explore_test.cc):
// C-Validity, plus "any commit forces at most k distinct picks". Without
// a commit, n distinct adopts are legal — an unconditional decision-count
// bound is NOT a theorem of k-converge.
std::string convergeViolation(const ExploreOutcome& o, int k,
                              const std::vector<Value>& proposals) {
  bool any_commit = false;
  std::set<Value> picked;
  for (const auto& e : o.events) {
    if (e.kind != sim::EventKind::kNote) continue;
    if (e.label != "commit" && e.label != "adopt") continue;
    const Value v = e.value.asInt();
    bool valid = false;
    for (const Value q : proposals) valid = valid || (q == v);
    if (!valid) return "C-Validity: non-proposal " + std::to_string(v);
    picked.insert(v);
    any_commit = any_commit || (e.label == "commit");
  }
  if (any_commit && static_cast<int>(picked.size()) > k) {
    return "C-Agreement: a commit with " + std::to_string(picked.size()) +
           " > k distinct picks";
  }
  return "";
}

ExploreConfig convergeCfg(int n, int k, ExploreMode mode, int jobs) {
  ExploreConfig cfg;
  cfg.run.n_plus_1 = n;
  cfg.mode = mode;
  cfg.jobs = jobs;
  const std::vector<Value> pv = props(n);
  cfg.property = [k, pv](const ExploreOutcome& o) {
    return convergeViolation(o, k, pv);
  };
  return cfg;
}

ExploreResult exploreConverge(const ExploreConfig& cfg, int k, int n) {
  return explore(cfg, [k](Env& e, Value v) { return oneShot(e, k, v); },
                 props(n));
}

// Every field of the jobs=N ≡ jobs=1 contract.
void expectBitIdentical(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.counterexample, b.counterexample);
  EXPECT_EQ(a.schedules_explored, b.schedules_explored);
  EXPECT_EQ(a.sleep_set_skips, b.sleep_set_skips);
  EXPECT_EQ(a.states_memoized, b.states_memoized);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  EXPECT_EQ(a.steps_replayed, b.steps_replayed);
  EXPECT_EQ(a.steps_rebuilt, b.steps_rebuilt);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.max_depth_seen, b.max_depth_seen);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.frontier_jobs, b.frontier_jobs);
  EXPECT_EQ(a.frontier_depth, b.frontier_depth);
  EXPECT_EQ(a.outcomeSigs(), b.outcomeSigs());
}

TEST(Frontier, JobsFourBitIdenticalToJobsOneBothModes) {
  for (const ExploreMode mode : {ExploreMode::kDpor, ExploreMode::kDag}) {
    const ExploreResult one =
        exploreConverge(convergeCfg(3, 2, mode, 1), 2, 3);
    const ExploreResult four =
        exploreConverge(convergeCfg(3, 2, mode, 4), 2, 3);
    expectBitIdentical(one, four);
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
  const std::vector<Value> pv = props(2);
  cfg.property = [pv](const ExploreOutcome& o) {
    return convergeViolation(o, 1, pv);
  };
  const auto buggy = [](Env& e, Value v) { return buggyOneShot(e, v); };
  cfg.jobs = 1;
  const ExploreResult one = explore(cfg, buggy, props(2));
  cfg.jobs = 4;
  const ExploreResult four = explore(cfg, buggy, props(2));
  ASSERT_EQ(one.verdict, ExploreVerdict::kViolation);
  expectBitIdentical(one, four);
  ASSERT_FALSE(one.counterexample.empty());

  // The merged counterexample (prefix ++ job tail) must replay: the same
  // pid sequence through a scripted policy reproduces a commit alongside
  // a disagreeing pick.
  sim::RunConfig rcfg;
  rcfg.n_plus_1 = 2;
  sim::Run run(rcfg, buggy, props(2));
  sim::ScriptedPolicy policy(four.counterexample,
                             std::make_unique<sim::RoundRobinPolicy>());
  const Time taken = run.scheduler().run(policy, 10'000);
  const auto rr = run.finish(taken);
  bool commit = false;
  std::set<Value> picked;
  for (const auto& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kNote) continue;
    if (e.label != "commit" && e.label != "adopt") continue;
    commit = commit || (e.label == "commit");
    picked.insert(e.value.asInt());
  }
  EXPECT_TRUE(commit);
  EXPECT_GT(picked.size(), 1u);
}

TEST(Frontier, PerJobBudgetCutIsWorkerCountInvariant) {
  ExploreConfig cfg = convergeCfg(3, 2, ExploreMode::kDag, 1);
  cfg.memoize = false;     // un-memoized subtrees are big enough to cut
  cfg.max_schedules = 5;   // cuts inside jobs, deterministically per job
  const ExploreResult one = exploreConverge(cfg, 2, 3);
  cfg.jobs = 4;
  const ExploreResult four = exploreConverge(cfg, 2, 3);
  EXPECT_FALSE(one.complete);
  expectBitIdentical(one, four);
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
  const ExploreResult one = explore(cfg, algo, props(2));
  cfg.jobs = 4;
  const ExploreResult four = explore(cfg, algo, props(2));
  expectBitIdentical(one, four);
  EXPECT_TRUE(one.verified()) << one.violation;
  // And the frontier run agrees with the classic engine's outcome set.
  cfg.jobs = 0;
  const ExploreResult classic = explore(cfg, algo, props(2));
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
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.schedules_explored, cold.schedules_explored);
  EXPECT_EQ(warm.steps_executed, cold.steps_executed);
  EXPECT_EQ(warm.steps_replayed, cold.steps_replayed);
  EXPECT_EQ(warm.steps_rebuilt, cold.steps_rebuilt);
  EXPECT_GT(warm.steps_rebuilt, 0u);
  EXPECT_EQ(warm.outcomeSigs(), cold.outcomeSigs());
  EXPECT_EQ(warm.counterexample, cold.counterexample);
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
  const std::vector<Value> pv = props(2);
  cfg.property = [pv](const ExploreOutcome& o) {
    const std::string v = convergeViolation(o, 1, pv);
    return v.empty() ? v : v + "\nsecond line of the report";
  };
  const auto buggy = [](Env& e, Value v) { return buggyOneShot(e, v); };
  const ExploreResult cold = explore(cfg, buggy, props(2));
  ASSERT_EQ(cold.verdict, ExploreVerdict::kViolation);
  ASSERT_TRUE(cold.complete);
  ASSERT_NE(cold.violation.find('\n'), std::string::npos);
  const ExploreResult warm = explore(cfg, buggy, props(2));
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
  expectBitIdentical(first, again);
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
  expectBitIdentical(fresh, exploreConverge(cfg, 1, 2));
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
      expectBitIdentical(fresh, r);
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
  expectBitIdentical(fresh, exploreConverge(cfg, 2, 3));
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
  expectBitIdentical(fresh, r);
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
