// Atomic snapshot tests: both flavors must satisfy the Afek et al.
// properties Fig. 2's proof leans on — scans contain every completed
// earlier update (regularity), and any two scans are related by
// containment (the key lemma bounding distinct adopted values).
#include <gtest/gtest.h>

#include <map>

#include "test_util.h"

namespace wfd {
namespace {

using mem::makeSnapshot;
using mem::snapshotScan;
using mem::snapshotUpdate;
using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::SnapshotFlavor;
using sim::Unit;

// Each process performs `rounds` updates with increasing values and scans
// after each; every scan is recorded in the trace for offline checking.
Coro<Unit> updaterScanner(Env& env, int rounds, Value base) {
  const auto h = makeSnapshot(env, sim::ObjKey{"t.snap"}, env.nProcs());
  for (int r = 1; r <= rounds; ++r) {
    co_await snapshotUpdate(env, h, env.me(), RegVal(base + r));
    const auto view = co_await snapshotScan(env, h);
    std::vector<RegVal> copy(view.begin(), view.end());
    env.note("scan", RegVal::tuple(std::move(copy)));
  }
  co_return Unit{};
}

// a <= b pointwise: for every slot, b's value is the same or newer.
// Values per slot are monotonically increasing ints (or ⊥), so "newer"
// is ">=" with ⊥ as -inf.
bool pointwiseLeq(const std::vector<RegVal>& a, const std::vector<RegVal>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Value va = a[i].isBottom() ? INT64_MIN : a[i].asInt();
    const Value vb = b[i].isBottom() ? INT64_MIN : b[i].asInt();
    if (va > vb) return false;
  }
  return true;
}

class SnapshotFlavorTest
    : public ::testing::TestWithParam<SnapshotFlavor> {};

TEST_P(SnapshotFlavorTest, ScansAreContainmentOrdered) {
  const int n_plus_1 = 4;
  const int rounds = 6;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.flavor = GetParam();
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg,
        [rounds](Env& e, Value v) { return updaterScanner(e, rounds, v); },
        test::distinctProposals(n_plus_1));
    ASSERT_TRUE(rr.all_correct_done);

    // Collect all scans in trace (= time) order; check the total order.
    std::vector<std::vector<RegVal>> scans;
    for (const auto& e : rr.trace().events()) {
      if (e.kind == sim::EventKind::kNote && e.label == "scan") {
        const auto view = e.value.asTuple();
        scans.emplace_back(view.begin(), view.end());
      }
    }
    ASSERT_EQ(scans.size(), static_cast<std::size_t>(n_plus_1 * rounds));
    for (std::size_t i = 0; i < scans.size(); ++i) {
      for (std::size_t j = i + 1; j < scans.size(); ++j) {
        EXPECT_TRUE(pointwiseLeq(scans[i], scans[j]) ||
                    pointwiseLeq(scans[j], scans[i]))
            << "seed " << seed << ": scans " << i << " and " << j
            << " are not containment-related";
      }
    }
  }
}

TEST_P(SnapshotFlavorTest, ScanSeesOwnCompletedUpdate) {
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.flavor = GetParam();
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value v) { return updaterScanner(e, 3, v); },
      test::distinctProposals(n_plus_1));
  ASSERT_TRUE(rr.all_correct_done);
  // Every recorded scan by p must show p's latest value.
  std::map<Pid, int> rounds_done;
  for (const auto& e : rr.trace().events()) {
    if (e.kind != sim::EventKind::kNote || e.label != "scan") continue;
    const int r = ++rounds_done[e.pid];
    const auto& view = e.value.asTuple();
    const Value own = view[static_cast<std::size_t>(e.pid)].isBottom()
                          ? kBottomValue
                          : view[static_cast<std::size_t>(e.pid)].asInt();
    EXPECT_EQ(own, 100 + e.pid + r) << "p" << e.pid + 1 << " round " << r;
  }
}

TEST_P(SnapshotFlavorTest, WaitFreeUnderCrashes) {
  const int n_plus_1 = 5;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.flavor = GetParam();
    cfg.seed = seed;
    cfg.fp = FailurePattern::random(n_plus_1, n_plus_1 - 1, 100, seed + 99);
    const auto rr = sim::runTask(
        cfg, [](Env& e, Value v) { return updaterScanner(e, 4, v); },
        test::distinctProposals(n_plus_1));
    // Scans/updates never block on crashed processes.
    EXPECT_TRUE(rr.all_correct_done) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, SnapshotFlavorTest,
                         ::testing::Values(SnapshotFlavor::kNative,
                                           SnapshotFlavor::kAfek),
                         [](const auto& info) {
                           return info.param == SnapshotFlavor::kAfek
                                      ? "afek"
                                      : "native";
                         });

// The Afek construction must behave identically to the native object on
// a deterministic schedule (same seed, same flavor-independent trace of
// decide-relevant data).
TEST(Snapshot, FlavorsAgreeOnRoundRobin) {
  const int n_plus_1 = 3;
  auto runWith = [&](SnapshotFlavor fl) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.flavor = fl;
    cfg.policy = sim::PolicyKind::kRoundRobin;
    return sim::runTask(
        cfg, [](Env& e, Value v) { return updaterScanner(e, 3, v); },
        test::distinctProposals(n_plus_1));
  };
  const auto a = runWith(SnapshotFlavor::kNative);
  const auto b = runWith(SnapshotFlavor::kAfek);
  // Not step-identical (Afek takes more steps), but both complete and the
  // final memory contents of each process's last scan must show all
  // processes' final values.
  ASSERT_TRUE(a.all_correct_done);
  ASSERT_TRUE(b.all_correct_done);
}

// ---- Helpers over scan results ----

std::vector<RegVal> cells(std::initializer_list<RegVal> xs) { return xs; }

TEST(ScanHelpers, DistinctValuesAreSortedAndDeduplicated) {
  EXPECT_EQ(mem::distinctValues(cells({RegVal(Value{30}), RegVal(Value{10}),
                                       RegVal(Value{30}), RegVal(Value{20}),
                                       RegVal(Value{10})})),
            (std::vector<Value>{10, 20, 30}));
  EXPECT_EQ(mem::distinctValues(cells({RegVal(Value{-5}), RegVal(Value{5})})),
            (std::vector<Value>{-5, 5}));
}

TEST(ScanHelpers, BottomAndNonIntCellsAreSkipped) {
  const auto view = cells({RegVal(), RegVal(Value{4}), RegVal(true),
                           RegVal(ProcSet{1}),
                           RegVal::tuple({RegVal(Value{1})}), RegVal(),
                           RegVal(Value{2})});
  EXPECT_EQ(mem::distinctValues(view), (std::vector<Value>{2, 4}));
  EXPECT_EQ(mem::minValue(view), 2);
  EXPECT_EQ(mem::nonBottomCount(view), 5);
}

TEST(ScanHelpers, EmptyAndAllBottomInputs) {
  const std::vector<RegVal> empty;
  EXPECT_TRUE(mem::distinctValues(empty).empty());
  EXPECT_EQ(mem::minValue(empty), kBottomValue);
  EXPECT_EQ(mem::nonBottomCount(empty), 0);
  const auto bottoms = cells({RegVal(), RegVal(), RegVal()});
  EXPECT_TRUE(mem::distinctValues(bottoms).empty());
  EXPECT_EQ(mem::minValue(bottoms), kBottomValue);
  EXPECT_EQ(mem::nonBottomCount(bottoms), 0);
  const auto no_ints = cells({RegVal(false), RegVal(ProcSet{})});
  EXPECT_TRUE(mem::distinctValues(no_ints).empty());
  EXPECT_EQ(mem::minValue(no_ints), kBottomValue);
}

TEST(ScanHelpers, DuplicatesCountOnceButEveryCellIsNonBottom) {
  const auto view = cells({RegVal(Value{7}), RegVal(Value{7}),
                           RegVal(Value{7})});
  EXPECT_EQ(mem::distinctValues(view), (std::vector<Value>{7}));
  EXPECT_EQ(mem::minValue(view), 7);
  EXPECT_EQ(mem::nonBottomCount(view), 3);
}

// A handle caches the id its first native update or scan resolves: the
// same id a fresh resolution of its key returns.
Coro<Unit> cachingUser(Env& env) {
  const auto h = makeSnapshot(env, sim::ObjKey{"t.cache"}, env.nProcs());
  EXPECT_EQ(h.id, -1);
  co_await snapshotUpdate(env, h, env.me(), RegVal(Value{1}));
  EXPECT_EQ(h.id, env.snap(h.key, h.slots));
  const sim::ObjId first = h.id;
  (void)co_await snapshotScan(env, h);
  EXPECT_EQ(h.id, first);
  co_return Unit{};
}

TEST(Snapshot, NativeHandleCachesItsObjectId) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  cfg.flavor = SnapshotFlavor::kNative;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return cachingUser(e); }, {0, 0, 0});
  EXPECT_TRUE(rr.all_correct_done);
}

}  // namespace
}  // namespace wfd
