// Linearizability: (a) the checker itself against hand-built histories
// with known verdicts; (b) real runs of both snapshot flavors and the
// MWMR construction, whose recorded histories must all linearize; (c) a
// deliberately non-atomic "single collect" scan whose histories the
// checker must reject — demonstrating both that the property is
// non-trivial and that the checker can see violations.
#include <gtest/gtest.h>

#include "memory/linearizability.h"
#include "memory/snapshot.h"
#include "test_util.h"

namespace wfd {
namespace {

using mem::isLinearizableRegister;
using mem::isLinearizableSnapshot;
using mem::OpRecord;
using sim::Coro;
using sim::Env;
using sim::RunConfig;
using sim::SnapshotFlavor;
using sim::Unit;

OpRecord write(Pid p, Time inv, Time res, Value v) {
  OpRecord r;
  r.pid = p;
  r.inv = inv;
  r.res = res;
  r.kind = OpRecord::Kind::kWrite;
  r.value = RegVal(v);
  return r;
}
OpRecord read(Pid p, Time inv, Time res, Value v) {
  OpRecord r = write(p, inv, res, v);
  r.kind = OpRecord::Kind::kRead;
  return r;
}
OpRecord readBottom(Pid p, Time inv, Time res) {
  OpRecord r;
  r.pid = p;
  r.inv = inv;
  r.res = res;
  r.kind = OpRecord::Kind::kRead;
  return r;
}

// ---- checker vs known verdicts ----

TEST(LinCheckerRegister, AcceptsSequentialHistory) {
  EXPECT_TRUE(isLinearizableRegister(
      {write(0, 0, 1, 7), read(1, 2, 3, 7), write(0, 4, 5, 9),
       read(1, 6, 7, 9)}));
}

TEST(LinCheckerRegister, AcceptsConcurrentOverlap) {
  // Read overlaps the write: both old and new value are acceptable.
  EXPECT_TRUE(isLinearizableRegister({write(0, 0, 10, 7), read(1, 5, 6, 7)}));
  EXPECT_TRUE(isLinearizableRegister({write(0, 0, 10, 7), readBottom(1, 5, 6)}));
}

TEST(LinCheckerRegister, RejectsStaleReadAfterCompletedWrite) {
  // The write finished before the read began; ⊥ is no longer possible.
  EXPECT_FALSE(
      isLinearizableRegister({write(0, 0, 1, 7), readBottom(1, 2, 3)}));
}

TEST(LinCheckerRegister, RejectsNewOldInversion) {
  // Two sequential reads observing new-then-old.
  EXPECT_FALSE(isLinearizableRegister(
      {write(0, 0, 1, 1), write(0, 2, 3, 2), read(1, 4, 5, 2),
       read(1, 6, 7, 1)}));
}

OpRecord update(Pid p, Time inv, Time res, int slot, Value v) {
  OpRecord r;
  r.pid = p;
  r.inv = inv;
  r.res = res;
  r.kind = OpRecord::Kind::kUpdate;
  r.slot = slot;
  r.value = RegVal(v);
  return r;
}
OpRecord scan(Pid p, Time inv, Time res, std::vector<Value> vals) {
  OpRecord r;
  r.pid = p;
  r.inv = inv;
  r.res = res;
  r.kind = OpRecord::Kind::kScan;
  for (Value v : vals) {
    r.view.push_back(v == kBottomValue ? RegVal() : RegVal(v));
  }
  return r;
}

TEST(LinCheckerSnapshot, AcceptsAtomicViews) {
  EXPECT_TRUE(isLinearizableSnapshot(
      {update(0, 0, 1, 0, 1), update(1, 2, 3, 1, 2),
       scan(2, 4, 5, {1, 2})},
      2));
}

TEST(LinCheckerSnapshot, RejectsTornView) {
  // slot0 was written strictly before slot1, so a view with slot1's new
  // value but slot0 still ⊥ is torn.
  EXPECT_FALSE(isLinearizableSnapshot(
      {update(0, 0, 1, 0, 1), update(0, 2, 3, 1, 2),
       scan(1, 4, 5, {kBottomValue, 2})},
      2));
}

// ---- real runs linearize ----

// Each process performs updates and scans on one snapshot object,
// wrapping every operation in invoke/response notes for offline
// extraction.
Coro<Unit> snapWorker(Env& env, SnapshotFlavor flavor, int rounds, Value base) {
  const auto h =
      mem::makeSnapshot(sim::ObjKey{"lin.snap"}, env.nProcs(), flavor);
  for (int r = 1; r <= rounds; ++r) {
    env.note("inv.update", RegVal(base + r));
    co_await mem::snapshotUpdate(env, h, env.me(), RegVal(base + r));
    env.note("res.update", RegVal(base + r));
    env.note("inv.scan");
    auto view = co_await mem::snapshotScan(env, h);
    env.note("res.scan", RegVal::tuple(std::vector<RegVal>(view.begin(), view.end())));
  }
  co_return Unit{};
}

std::vector<OpRecord> extractSnapshotHistory(const sim::RunResult& rr) {
  std::vector<OpRecord> out;
  std::map<Pid, std::pair<Time, RegVal>> open;  // pid -> (inv time, arg)
  for (const auto& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kNote) continue;
    if (e.label.rfind("inv.", 0) == 0) {
      open[e.pid] = {e.time, e.value};
    } else if (e.label == "res.update") {
      OpRecord r;
      r.pid = e.pid;
      r.inv = open[e.pid].first;
      r.res = e.time;
      r.kind = OpRecord::Kind::kUpdate;
      r.slot = e.pid;
      r.value = open[e.pid].second;
      out.push_back(std::move(r));
    } else if (e.label == "res.scan") {
      OpRecord r;
      r.pid = e.pid;
      r.inv = open[e.pid].first;
      r.res = e.time;
      r.kind = OpRecord::Kind::kScan;
      const auto& t = e.value.asTuple();
      r.view.assign(t.begin(), t.end());
      out.push_back(std::move(r));
    }
  }
  return out;
}

class SnapshotLinearizability
    : public ::testing::TestWithParam<SnapshotFlavor> {};

TEST_P(SnapshotLinearizability, RealRunsLinearize) {
  const int n_plus_1 = 3;
  const int rounds = 3;  // 18 ops: within the checker's budget
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.flavor = GetParam();
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg,
        [&](Env& e, Value v) { return snapWorker(e, GetParam(), rounds, v); },
        test::distinctProposals(n_plus_1));
    ASSERT_TRUE(rr.all_correct_done);
    const auto history = extractSnapshotHistory(rr);
    ASSERT_EQ(history.size(), static_cast<std::size_t>(n_plus_1 * rounds * 2));
    EXPECT_TRUE(isLinearizableSnapshot(history, n_plus_1))
        << "seed " << seed << " flavor "
        << (GetParam() == SnapshotFlavor::kAfek ? "afek" : "native");
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, SnapshotLinearizability,
                         ::testing::Values(SnapshotFlavor::kNative,
                                           SnapshotFlavor::kAfek),
                         [](const auto& info) {
                           return info.param == SnapshotFlavor::kAfek
                                      ? "afek"
                                      : "native";
                         });

// ---- negative control: a single-collect "snapshot" is not atomic ----

Coro<std::vector<RegVal>> brokenScan(Env& env, int slots) {
  std::vector<RegVal> out;
  for (int j = 0; j < slots; ++j) {
    sim::ObjKey k{"lin.broken"};
    k.append("#c");
    k.append(j);
    out.push_back((co_await env.read(env.reg(k))).scalar);
  }
  co_return out;
}

Coro<Unit> brokenWriter(Env& env) {
  // Write slot 0 then slot 1, strictly sequentially (the yield keeps the
  // two operations' recorded intervals disjoint in real time).
  for (int j = 0; j < 2; ++j) {
    if (j > 0) co_await env.yield();
    sim::ObjKey k{"lin.broken"};
    k.append("#c");
    k.append(j);
    env.note("inv.update", RegVal(Value{j + 1}));
    co_await env.write(env.reg(k), RegVal(Value{j + 1}));
    env.note("res.update", RegVal(Value{j + 1}));
  }
  co_return Unit{};
}

Coro<Unit> brokenScanner(Env& env) {
  env.note("inv.scan");
  auto view = co_await brokenScan(env, 2);
  env.note("res.scan", RegVal::tuple(std::move(view)));
  co_return Unit{};
}

TEST(SnapshotLinearizability, SingleCollectScanViolates) {
  // Schedule: scanner reads slot0 (⊥), writer writes both slots,
  // scanner reads slot1 (=2) -> torn view (⊥, 2).
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  sim::Run run(cfg,
               [](Env& e, Value) -> Coro<Unit> {
                 if (e.me() == 0) return brokenWriter(e);
                 return brokenScanner(e);
               },
               {0, 0});
  sim::ScriptedPolicy policy({1, 0, 0, 0, 1},
                             std::make_unique<sim::RoundRobinPolicy>());
  const Time taken = run.scheduler().run(policy, 1000);
  const auto rr = run.finish(taken);
  // Reconstruct: updates by p1 with slots 0/1, one scan by p2.
  std::vector<OpRecord> history;
  std::map<Pid, std::pair<Time, RegVal>> open;
  int next_slot = 0;
  for (const auto& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kNote) continue;
    if (e.label.rfind("inv.", 0) == 0) {
      open[e.pid] = {e.time, e.value};
    } else if (e.label == "res.update") {
      OpRecord r;
      r.pid = e.pid;
      r.inv = open[e.pid].first;
      r.res = e.time;
      r.kind = OpRecord::Kind::kUpdate;
      r.slot = next_slot++;
      r.value = open[e.pid].second;
      history.push_back(std::move(r));
    } else if (e.label == "res.scan") {
      OpRecord r;
      r.pid = e.pid;
      r.inv = open[e.pid].first;
      r.res = e.time;
      r.kind = OpRecord::Kind::kScan;
      const auto& t = e.value.asTuple();
      r.view.assign(t.begin(), t.end());
      history.push_back(std::move(r));
    }
  }
  ASSERT_EQ(history.size(), 3u);
  EXPECT_FALSE(isLinearizableSnapshot(history, 2))
      << "the torn view should be rejected";
}

}  // namespace
}  // namespace wfd
