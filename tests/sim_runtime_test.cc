// The simulation runtime itself: step semantics, crash handling,
// scheduling policies, determinism, trace bookkeeping, object table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "sim/steal_pool.h"
#include "test_util.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace wfd {
namespace {

using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::ObjKey;
using sim::RunConfig;
using sim::Unit;

Coro<Unit> counterLoop(Env& env, int iterations) {
  const sim::ObjId r = env.reg(ObjKey{"cnt", env.me()});
  for (int i = 1; i <= iterations; ++i) {
    co_await env.write(r, RegVal(static_cast<Value>(i)));
  }
  env.decide(iterations);
  co_return Unit{};
}

TEST(Scheduler, OneOpPerStep) {
  RunConfig cfg;
  cfg.n_plus_1 = 1;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 10); }, {0});
  ASSERT_TRUE(rr.all_correct_done);
  // 10 writes == 10 steps: the prologue folds into the first step.
  EXPECT_EQ(rr.steps, 10);
}

TEST(Scheduler, CrashedProcessTakesNoStepsAfterCrashTime) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  cfg.fp = FailurePattern::withCrashes(2, {{1, 5}});
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 100); }, {0, 0});
  // p2's register shows at most 5 completed writes.
  auto& tbl = rr.world->objects();
  const RegVal v = tbl.read(tbl.regId(ObjKey{"cnt", 1}));
  ASSERT_FALSE(v.isBottom());
  EXPECT_LE(v.asInt(), 5);
  // p1 is correct and finished.
  EXPECT_TRUE(rr.decisions.contains(0));
  EXPECT_FALSE(rr.decisions.contains(1));
}

TEST(Scheduler, RoundRobinIsFair) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  cfg.policy = sim::PolicyKind::kRoundRobin;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return counterLoop(e, 7); }, {0, 0, 0});
  ASSERT_TRUE(rr.all_correct_done);
  EXPECT_EQ(rr.steps, 21);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto go = [] {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.seed = 99;
    return sim::runTask(
        cfg, [](Env& e, Value) { return counterLoop(e, 50); }, {0, 0, 0, 0});
  };
  const auto a = go();
  const auto b = go();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.trace().events().size(), b.trace().events().size());
}

TEST(Scheduler, SeedChangesSchedule) {
  auto go = [](std::uint64_t seed) {
    RunConfig cfg;
    cfg.n_plus_1 = 4;
    cfg.seed = seed;
    auto rr = sim::runTask(
        cfg, [](Env& e, Value) { return counterLoop(e, 50); }, {0, 0, 0, 0});
    // Fingerprint: decide times.
    std::vector<Time> t;
    for (const auto& e : rr.trace().ofKind(sim::EventKind::kDecide)) {
      t.push_back(e.time);
    }
    return t;
  };
  EXPECT_NE(go(1), go(2));
}

TEST(Scheduler, StepBudgetStopsRunawayRuns) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  cfg.max_steps = 500;
  const auto rr = sim::runTask(
      cfg,
      [](Env& e, Value) -> Coro<Unit> {
        const sim::ObjId r = e.reg(ObjKey{"spin"});
        for (;;) co_await e.read(r);  // never terminates
      },
      {0, 0});
  EXPECT_FALSE(rr.all_correct_done);
  EXPECT_EQ(rr.steps, 500);
}

TEST(Scheduler, ExceptionsInAutomataPropagate) {
  RunConfig cfg;
  cfg.n_plus_1 = 1;
  EXPECT_THROW(
      sim::runTask(
          cfg,
          [](Env& e, Value) -> Coro<Unit> {
            co_await e.yield();
            throw std::runtime_error("automaton bug");
          },
          {0}),
      std::runtime_error);
}

TEST(ObjectTable, AutoVivifiesAndIsStableAcrossProcesses) {
  sim::ObjectTable tbl;
  const auto a = tbl.regId(ObjKey{"x", 1, 2});
  const auto b = tbl.regId(ObjKey{"x", 1, 2});
  const auto c = tbl.regId(ObjKey{"x", 1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(tbl.read(a).isBottom());
  tbl.write(a, RegVal(Value{7}));
  EXPECT_EQ(tbl.read(b).asInt(), 7);
}

TEST(ObjectTable, SnapshotSlotsInitializeBottom) {
  sim::ObjectTable tbl;
  const auto s = tbl.snapId(ObjKey{"snap"}, 4);
  EXPECT_EQ(tbl.scan(s).size(), 4u);
  for (const auto& v : tbl.scan(s)) EXPECT_TRUE(v.isBottom());
  tbl.update(s, 2, RegVal(Value{5}));
  EXPECT_EQ(tbl.scan(s)[2].asInt(), 5);
}

TEST(ObjectTable, IdsFollowFirstReferenceOrder) {
  sim::ObjectTable tbl;
  EXPECT_EQ(tbl.snapId(ObjKey{"fig1.Stable", 2}, 4), 0);
  EXPECT_EQ(tbl.regId(ObjKey{"fig1.D", 2}), 1);
  EXPECT_EQ(tbl.consId(ObjKey{"cons", 0}, 2), 2);
  EXPECT_EQ(tbl.regId(ObjKey{"fig1.D", 1}), 3);
  // Re-references resolve without creating.
  EXPECT_EQ(tbl.regId(ObjKey{"fig1.D", 2}), 1);
  EXPECT_EQ(tbl.snapId(ObjKey{"fig1.Stable", 2}, 4), 0);
  EXPECT_EQ(tbl.objectCount(), 4u);
}

TEST(ObjectTable, NearbyKeysGetDistinctIds) {
  sim::ObjectTable tbl;
  const auto a = tbl.regId(ObjKey{"x", 1, 2, 3, 4});
  const auto b = tbl.regId(ObjKey{"x", 1, 2, 3, 5});  // differs only in i3
  const auto d = tbl.regId(ObjKey{"fig1.D", 7});
  const auto dr = tbl.regId(ObjKey{"fig1.Dr", 7});  // tag prefix of another
  const auto e = tbl.regId(ObjKey{"fig1.D"});
  EXPECT_NE(a, b);
  EXPECT_NE(d, dr);
  EXPECT_NE(d, e);
  EXPECT_EQ(tbl.objectCount(), 5u);
}

TEST(ObjectTable, AppendedTagResolvesLikeSpelledTag) {
  ObjKey appended{"conv", 3, 1};
  appended.append(".A");
  const ObjKey spelled{"conv.A", 3, 1};
  EXPECT_EQ(appended, spelled);
  EXPECT_EQ(sim::ObjKeyHash{}(appended), sim::ObjKeyHash{}(spelled));
  sim::ObjectTable tbl;
  const auto id = tbl.snapId(spelled, 3);
  EXPECT_EQ(tbl.snapId(appended, 3), id);
  EXPECT_EQ(tbl.objectCount(), 1u);
}

// The flushed-on-read digest against its full recompute, under a seeded
// random mix of creations, mutations (tuple values included), snapshots
// and restores — restores while objects are dirty, and of snapshots that
// were taken while objects were dirty.
TEST(ObjectTable, FlushedDigestMatchesFullRecompute) {
  sim::ObjectTable tbl;
  Rng rng(20070812);
  const auto value = [&]() -> RegVal {
    const auto x = static_cast<Value>(rng.below(5));
    if (rng.below(2) == 0) return RegVal(x);
    return RegVal::tuple({RegVal(x), RegVal(static_cast<Value>(rng.below(3))),
                          RegVal(ProcSet::singleton(static_cast<Pid>(x)))});
  };
  const auto mutate = [&] {
    switch (rng.below(3)) {
      case 0:
        tbl.write(tbl.regId(ObjKey{"r", static_cast<int>(rng.below(6))}),
                  value());
        break;
      case 1:
        tbl.update(tbl.snapId(ObjKey{"s", static_cast<int>(rng.below(4))}, 5),
                   static_cast<int>(rng.below(5)), value());
        break;
      default:
        (void)tbl.propose(
            tbl.consId(ObjKey{"c", static_cast<int>(rng.below(3))}, 2),
            static_cast<Pid>(rng.below(2)), value());
        break;
    }
  };
  struct Saved {
    sim::ObjectTable::Snapshot snap;
    std::uint64_t digest;
  };
  std::vector<Saved> saved;
  const auto take = [&] {
    const std::uint64_t full = tbl.xorContentsDigestFull();
    saved.push_back({{}, full});
    tbl.snapshot(saved.back().snap);
  };
  const auto restoreOne = [&] {
    const Saved& s = saved[rng.below(saved.size())];
    tbl.restore(s.snap);
    EXPECT_EQ(tbl.xorContentsDigest(), s.digest);
  };

  // The pinned cases first: a snapshot taken while dirty, then a restore
  // of it while dirty again.
  mutate();
  mutate();
  take();
  mutate();
  restoreOne();
  EXPECT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull());

  for (int i = 0; i < 4000; ++i) {
    const auto roll = rng.below(20);
    if (roll < 14) {
      mutate();
    } else if (roll < 16) {
      take();
    } else if (roll < 18) {
      restoreOne();
    } else {
      ASSERT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull())
          << "at iteration " << i;
    }
  }
  EXPECT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull());
  EXPECT_GT(tbl.objectCount(), 10u);
}

// Names a key the way an algorithm would: tags starting with 's' are
// 3-slot snapshots, the rest registers. Each first reference also stores
// a value derived from the key, so tables built along the same branch
// agree on contents as well as ids.
sim::ObjId touch(sim::ObjectTable& tbl, const ObjKey& k) {
  const std::size_t before = tbl.objectCount();
  const sim::ObjId id =
      k.tag[0] == 's' ? tbl.snapId(k, 3) : tbl.regId(k);
  if (tbl.objectCount() != before) {
    const RegVal v = RegVal::tuple({RegVal(Value{k.i0}), RegVal(k.tag[0] == 's')});
    if (k.tag[0] == 's') {
      tbl.update(id, k.i0 % 3, v);
    } else {
      tbl.write(id, v);
    }
  }
  return id;
}

// The key index is not part of a table snapshot: restore() repairs the
// live index from the first object whose key differs. Two branches from
// one checkpoint create objects in different orders (and share one key
// at different ids); restoring either branch while the table sits on the
// other, or into a fresh table, must resolve every key of both branches
// exactly as a table built from scratch along the restored branch does.
TEST(ObjectTable, RestoreAcrossBranchesResolvesKeysLikeAFreshTable) {
  const std::vector<ObjKey> prefix = {ObjKey{"p", 0}, ObjKey{"s.p", 1},
                                      ObjKey{"p", 2}};
  const std::vector<ObjKey> branch_a = {ObjKey{"x", 1}, ObjKey{"s.y", 2},
                                        ObjKey{"z", 3}};
  const std::vector<ObjKey> branch_b = {ObjKey{"s.y", 2}, ObjKey{"w", 4},
                                        ObjKey{"x", 1}, ObjKey{"v", 5},
                                        ObjKey{"s.u", 6}};
  const auto along = [&](const std::vector<ObjKey>& branch) {
    auto tbl = std::make_unique<sim::ObjectTable>();
    for (const ObjKey& k : prefix) touch(*tbl, k);
    for (const ObjKey& k : branch) touch(*tbl, k);
    return tbl;
  };
  // Every key of both branches, resolved on `tbl` and on a fresh table
  // built along `branch`; keys the branch never named are created on
  // both, in the same order, so they must get the same ids too.
  const auto expectResolvesLike = [&](sim::ObjectTable& tbl,
                                      const std::vector<ObjKey>& branch,
                                      const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull());
    const auto fresh = along(branch);
    EXPECT_EQ(tbl.objectCount(), fresh->objectCount());
    EXPECT_EQ(tbl.xorContentsDigest(), fresh->xorContentsDigest());
    for (const auto* keys : {&prefix, &branch_a, &branch_b}) {
      for (const ObjKey& k : *keys) {
        EXPECT_EQ(touch(tbl, k), touch(*fresh, k)) << k.toString();
      }
    }
    EXPECT_EQ(tbl.xorContentsDigest(), fresh->xorContentsDigest());
  };

  sim::ObjectTable tbl;
  for (const ObjKey& k : prefix) touch(tbl, k);
  sim::ObjectTable::Snapshot fork;
  tbl.snapshot(fork);
  for (const ObjKey& k : branch_a) touch(tbl, k);
  sim::ObjectTable::Snapshot at_a;
  tbl.snapshot(at_a);
  tbl.restore(fork);
  EXPECT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull());
  for (const ObjKey& k : branch_b) touch(tbl, k);
  sim::ObjectTable::Snapshot at_b;
  tbl.snapshot(at_b);

  tbl.restore(at_a);  // from branch B
  expectResolvesLike(tbl, branch_a, "A restored over B");
  tbl.restore(at_b);  // from branch A, plus the keys the check created
  expectResolvesLike(tbl, branch_b, "B restored over A");
  tbl.restore(at_a);
  tbl.restore(at_b);  // twice in a row, nothing named in between
  expectResolvesLike(tbl, branch_b, "B restored over a restored A");
  sim::ObjectTable empty;
  empty.restore(at_a);
  expectResolvesLike(empty, branch_a, "A restored into a fresh table");
}

// The flat key index against a std::map reference. Seeded regId/snapId/
// consId calls interleave with snapshots and with restores to any saved
// snapshot (a sibling branch or an ancestor) and into a fresh table;
// every id must be the one the reference hands out in first-reference
// order. The pool mixes ordinary keys with keys whose ObjKeyHash ends in
// twelve 1 bits: their home is the last slot at every capacity up to
// 4096, so their chains wrap to slot 0, and a grow re-enters them ahead
// of older keys of the same chain. A restore that then drops such a key
// must shift the older ones back, or they become unreachable. The index
// grows through every capacity from 16 to 4096.
TEST(ObjectTable, FlatIndexMatchesAMapAcrossSnapshotsAndRestores) {
  struct Named {
    ObjKey key;
    int kind;  // 0 register, 1 snapshot, 2 consensus
  };
  std::vector<Named> pool;
  const char* const tags[] = {"D", "conv.A", "Ann", "Stable"};
  for (int i = 0; i < 1600; ++i) {
    ObjKey k(tags[i % 4], i / 4);
    if (i % 5 == 0) k.append(i % 7);
    pool.push_back({k, i % 3});
  }
  for (int i = 0, wrapping = 0; wrapping < 48; ++i) {
    const ObjKey k("wrap", i);
    if ((sim::ObjKeyHash{}(k) & 0xFFF) == 0xFFF) {
      pool.push_back({k, wrapping % 3});
      ++wrapping;
    }
  }
  const auto name = [](sim::ObjectTable& tbl, const Named& n) {
    switch (n.kind) {
      case 0: return tbl.regId(n.key);
      case 1: return tbl.snapId(n.key, 2);
      default: return tbl.consId(n.key, 3);
    }
  };
  // The reference: ids by key, and keys by id.
  std::map<ObjKey, sim::ObjId> ref;
  std::vector<std::size_t> order;  // pool index of each id
  const auto expectNames = [&](sim::ObjectTable& tbl, std::size_t p) {
    const auto [it, fresh] =
        ref.emplace(pool[p].key, static_cast<sim::ObjId>(order.size()));
    if (fresh) order.push_back(p);
    ASSERT_EQ(name(tbl, pool[p]), it->second) << pool[p].key.toString();
    ASSERT_EQ(tbl.objectCount(), order.size());
  };
  const auto resetTo = [&](const std::vector<std::size_t>& ids) {
    order = ids;
    ref.clear();
    for (std::size_t id = 0; id < order.size(); ++id) {
      ref.emplace(pool[order[id]].key, static_cast<sim::ObjId>(id));
    }
  };
  struct Saved {
    sim::ObjectTable::Snapshot snap;
    std::vector<std::size_t> order;
  };
  std::vector<Saved> saved;
  auto tbl = std::make_unique<sim::ObjectTable>();
  Rng rng(2007);
  std::size_t most = 0;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 4) {
      Saved s;
      tbl->snapshot(s.snap);
      s.order = order;
      if (saved.size() < 12) {
        saved.push_back(std::move(s));
      } else {
        saved[rng.below(saved.size())] = std::move(s);
      }
    } else if (roll < 8 && !saved.empty()) {
      const Saved& s = saved[rng.below(saved.size())];
      if (roll == 7) tbl = std::make_unique<sim::ObjectTable>();
      tbl->restore(s.snap);
      resetTo(s.order);
      ASSERT_EQ(tbl->objectCount(), order.size());
      for (const std::size_t p : order) expectNames(*tbl, p);
    } else {
      // Mostly keys near the front of the pool, so names repeat.
      const std::size_t span = roll < 60 ? 400 : pool.size();
      expectNames(*tbl, rng.below(span));
    }
    most = std::max(most, order.size());
    if (HasFatalFailure()) return;
  }
  // Name the whole pool, then restore it into a fresh table.
  for (std::size_t p = 0; p < pool.size(); ++p) expectNames(*tbl, p);
  Saved all;
  tbl->snapshot(all.snap);
  all.order = order;
  sim::ObjectTable fresh;
  fresh.restore(all.snap);
  for (std::size_t p = 0; p < pool.size(); ++p) expectNames(fresh, p);
  most = std::max(most, order.size());
  EXPECT_GT(most, 2048u * 3 / 4);  // past the last grow, to 4096 slots
}

// A scan result and a table snapshot share the object's cells; an update
// after either copies the cells instead of writing through, so both keep
// what they saw. Restoring the snapshot brings the old cells back.
TEST(ObjectTable, ScansAndSnapshotsKeepTheirCellsAcrossUpdates) {
  sim::ObjectTable tbl;
  const sim::ObjId s = tbl.snapId(ObjKey{"snap"}, 3);
  const RegVal cell = RegVal::tuple({RegVal(Value{1}), RegVal(Value{2})});
  tbl.update(s, 0, cell);
  const SlotArray view = tbl.scan(s);
  sim::ObjectTable::Snapshot snap;
  tbl.snapshot(snap);
  const std::uint64_t digest = tbl.xorContentsDigest();

  tbl.update(s, 0, RegVal(Value{9}));
  tbl.update(s, 1, RegVal(Value{8}));
  EXPECT_EQ(view[0], cell);
  EXPECT_TRUE(view[1].isBottom());
  EXPECT_EQ(tbl.scan(s)[0].asInt(), 9);
  EXPECT_EQ(tbl.scan(s)[1].asInt(), 8);
  EXPECT_NE(tbl.xorContentsDigest(), digest);

  tbl.restore(snap);
  EXPECT_EQ(tbl.scan(s), view);
  EXPECT_EQ(tbl.xorContentsDigest(), digest);
  EXPECT_EQ(tbl.xorContentsDigest(), tbl.xorContentsDigestFull());
  // The restored cells are shared with the snapshot again: writing them
  // must not reach the snapshot either.
  tbl.update(s, 2, RegVal(Value{7}));
  tbl.restore(snap);
  EXPECT_TRUE(tbl.scan(s)[2].isBottom());
  EXPECT_EQ(tbl.xorContentsDigest(), digest);

  // A SlotArray on its own: copies are values.
  SlotArray a(2);
  a.set(0, RegVal(Value{1}));
  SlotArray b = a;
  b.set(0, RegVal(Value{2}));
  a.set(1, RegVal(Value{3}));
  EXPECT_EQ(a[0].asInt(), 1);
  EXPECT_EQ(a[1].asInt(), 3);
  EXPECT_EQ(b[0].asInt(), 2);
  EXPECT_TRUE(b[1].isBottom());
  EXPECT_THROW(a.set(2, RegVal()), std::out_of_range);
  const SlotArray moved = std::move(b);
  EXPECT_EQ(moved[0].asInt(), 2);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
}

// Everything a World checkpoint shares instead of copying: the published
// outputs, the failure pattern and the trace's events, plus the hash.
struct WorldView {
  std::vector<RegVal> published;
  std::vector<Time> crash_times;
  std::vector<std::string> events;
  std::uint64_t hash = 0;
  friend bool operator==(const WorldView&, const WorldView&) = default;
};

WorldView viewOf(const sim::World& w) {
  WorldView v;
  for (Pid p = 0; p < w.nProcs(); ++p) {
    v.published.push_back(w.published(p));
    v.crash_times.push_back(w.pattern().crashTime(p));
  }
  for (const sim::Event& e : w.trace().events()) {
    v.events.push_back(std::to_string(e.time) + " p" + std::to_string(e.pid) +
                       " " + std::to_string(static_cast<int>(e.kind)) + " " +
                       e.label + "=" + e.value.toString());
  }
  v.hash = w.trace().hash64();
  return v;
}

// Two branches from one checkpoint each publish, crash a process and
// record events. Restoring the base and both branches in every order, and
// into a fresh Run, must bring back exactly what each checkpoint saw, and
// a checkpoint keeps its values across every later mutation.
TEST(World, CheckpointsKeepPublishedPatternAndEventsAcrossBranches) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  const sim::AlgoFn algo = [](Env& e, Value) { return counterLoop(e, 4); };
  sim::Run run(cfg, algo, {0, 0, 0});
  run.enableCheckpoints();
  sim::World& w = run.world();
  run.scheduler().step(0);
  w.setPublished(0, RegVal(Value{7}));

  const sim::RunCheckpoint base = run.checkpoint();
  const WorldView at_base = viewOf(w);

  run.scheduler().step(1);
  w.setPublished(1, RegVal(Value{11}));
  w.injectCrash(2);
  w.trace().record(w.now(), 1, sim::EventKind::kNote, "branch.a", RegVal());
  const sim::RunCheckpoint a = run.checkpoint();
  const WorldView at_a = viewOf(w);
  EXPECT_NE(at_a, at_base);

  run.restore(base);
  EXPECT_EQ(viewOf(w), at_base);
  run.scheduler().step(2);
  w.setPublished(0, RegVal(Value{8}));
  w.setPublished(2, RegVal::tuple({RegVal(Value{1}), RegVal(Value{2})}));
  w.injectCrash(1);
  w.trace().record(w.now(), 2, sim::EventKind::kNote, "branch.b",
                   RegVal(Value{3}));
  const sim::RunCheckpoint b = run.checkpoint();
  const WorldView at_b = viewOf(w);
  EXPECT_NE(at_b, at_base);
  EXPECT_NE(at_b, at_a);
  // Mutating after a checkpoint leaves it alone.
  w.setPublished(2, RegVal(Value{99}));
  w.trace().record(w.now(), 0, sim::EventKind::kNote, "after.b", RegVal());

  const std::vector<std::pair<const sim::RunCheckpoint*, const WorldView*>>
      cks = {{&base, &at_base}, {&a, &at_a}, {&b, &at_b}};
  std::vector<int> order = {0, 1, 2};
  do {
    for (const int i : order) {
      run.restore(*cks[static_cast<std::size_t>(i)].first);
      EXPECT_EQ(viewOf(w), *cks[static_cast<std::size_t>(i)].second)
          << "checkpoint " << i;
    }
  } while (std::next_permutation(order.begin(), order.end()));

  for (const auto& [ck, view] : cks) {
    sim::Run fresh(cfg, algo, {0, 0, 0});
    fresh.enableCheckpoints();
    fresh.restore(*ck);
    EXPECT_EQ(viewOf(fresh.world()), *view);
    // A restored run records into its own events, not the checkpoint's.
    fresh.world().trace().record(0, 0, sim::EventKind::kNote, "fresh",
                                 RegVal());
    fresh.world().setPublished(0, RegVal(Value{-1}));
  }
  run.restore(a);
  EXPECT_EQ(viewOf(w), at_a);
}

TEST(Run, RestoringAnEmptyCheckpointThrows) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  sim::Run run(cfg, [](Env& e, Value) { return counterLoop(e, 3); }, {0, 0});
  run.enableCheckpoints();
  EXPECT_THROW(run.restore(sim::RunCheckpoint{}), sim::SimAbort);
  // The run is untouched and its own checkpoints still restore.
  const sim::RunCheckpoint ck = run.checkpoint();
  EXPECT_NO_THROW(run.restore(ck));
}

// Each process reads a shared counter and writes it back bumped, so every
// result it consumes depends on the interleaving.
Coro<Unit> bumpLoop(Env& env, int iterations) {
  const sim::ObjId c = env.reg(ObjKey{"bump"});
  for (int i = 0; i < iterations; ++i) {
    const sim::OpResult r = co_await env.read(c);
    const Value seen = r.scalar.isBottom() ? 0 : r.scalar.asInt();
    co_await env.write(c, RegVal(seen + 1));
  }
  env.decide(iterations);
  co_return Unit{};
}

Coro<Unit> noOps(Env& /*env*/) { co_return Unit{}; }

void expectSameRun(sim::Run& a, sim::Run& b, const std::string& what) {
  EXPECT_EQ(a.world().trace().hash64(), b.world().trace().hash64()) << what;
  EXPECT_EQ(a.world().now(), b.world().now()) << what;
  for (Pid q = 0; q < a.world().nProcs(); ++q) {
    EXPECT_EQ(a.scheduler().resultDigest(q), b.scheduler().resultDigest(q))
        << what << ", p" << q + 1;
    EXPECT_EQ(a.scheduler().ctx(q).steps, b.scheduler().ctx(q).steps)
        << what << ", p" << q + 1;
  }
}

TEST(Scheduler, ExecuteThenResumeIsStep) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  const sim::AlgoFn algo = [](Env& e, Value) { return bumpLoop(e, 3); };
  sim::Run stepped(cfg, algo, {0, 0, 0});
  sim::Run split(cfg, algo, {0, 0, 0});
  stepped.enableCheckpoints();
  split.enableCheckpoints();
  for (int i = 0; !stepped.scheduler().allCorrectDone(); ++i) {
    const sim::ProcSet live = stepped.scheduler().runnable();
    const Pid p = live.nth((i * 7 + i / 3) % live.size());
    stepped.scheduler().step(p);
    split.scheduler().execute(p);
    split.scheduler().resume(p);
    expectSameRun(stepped, split, "step " + std::to_string(i));
  }
  EXPECT_TRUE(split.scheduler().allCorrectDone());
  EXPECT_EQ(split.world().now(), 18);
}

// A step executed but not resumed moved only the world: restoring the
// checkpoint before it keeps every frame, and so does rolling back the
// world alone. Either way the run continues like one that never ran it.
TEST(Run, RestoringAnExecutedUnresumedStepRebuildsNothing) {
  RunConfig cfg;
  cfg.n_plus_1 = 3;
  const sim::AlgoFn algo = [](Env& e, Value) { return bumpLoop(e, 3); };
  const std::vector<Pid> prefix = {0, 1, 2, 0, 1};
  const std::vector<Pid> rest = {1, 2, 0, 2, 2, 1};
  sim::Run straight(cfg, algo, {0, 0, 0});
  straight.enableCheckpoints();
  for (const Pid p : prefix) straight.scheduler().step(p);
  for (const Pid p : rest) straight.scheduler().step(p);

  for (const bool world_only : {false, true}) {
    const std::string what = world_only ? "world rollback" : "Run::restore";
    sim::Run run(cfg, algo, {0, 0, 0});
    run.enableCheckpoints();
    for (const Pid p : prefix) run.scheduler().step(p);
    const sim::RunCheckpoint ck = run.checkpoint();
    const std::uint64_t hash = run.world().trace().hash64();
    const std::uint64_t digest = run.scheduler().resultDigest(2);
    run.scheduler().execute(2);
    EXPECT_NE(run.world().trace().hash64(), hash) << what;
    EXPECT_EQ(run.scheduler().resultDigest(2), digest) << what;
    if (world_only) {
      run.world().restore(ck.world);
    } else {
      EXPECT_EQ(run.restore(ck), 0u) << what;
    }
    EXPECT_EQ(run.world().trace().hash64(), hash) << what;
    for (const Pid p : rest) run.scheduler().step(p);
    expectSameRun(straight, run, what);
  }
}

TEST(Scheduler, AProcessThatHasNotStartedStillSteps) {
  RunConfig cfg;
  cfg.n_plus_1 = 2;
  sim::Run run(cfg, [](Env& e, Value) { return counterLoop(e, 2); }, {0, 0});
  sim::Scheduler& sched = run.scheduler();
  // No parked op yet: the first step runs the prologue, then the op.
  EXPECT_FALSE(sched.ctx(0).pending.has_value());
  sched.step(0);
  EXPECT_EQ(sched.ctx(0).steps, 1);
  EXPECT_TRUE(sched.ctx(0).pending.has_value());  // parked at write #2
  // execute runs an unstarted process's prologue before its op.
  sched.execute(1);
  EXPECT_TRUE(sched.ctx(1).pending.has_value());
  EXPECT_EQ(sched.ctx(1).steps, 0);
  sched.resume(1);
  EXPECT_EQ(sched.ctx(1).steps, 1);
  run.world().endAuditObservation();  // inspecting, not stepping
  auto& tbl = run.world().objects();
  EXPECT_EQ(tbl.read(tbl.regId(ObjKey{"cnt", 1})).asInt(), 1);

  // An automaton that returns before its first op takes one step.
  sim::Run empty(cfg, [](Env& e, Value) { return noOps(e); }, {0, 0});
  empty.scheduler().step(1);
  EXPECT_TRUE(empty.scheduler().ctx(1).done);
  EXPECT_EQ(empty.world().now(), 1);
  EXPECT_FALSE(empty.scheduler().runnable().contains(1));
}

TEST(ObjKey, AppendBuildsDistinctNames) {
  ObjKey k{"conv", 3, 1};
  ObjKey a = k;
  a.append(".A");
  ObjKey b = k;
  b.append(".B");
  EXPECT_NE(a, b);
  EXPECT_EQ(a.toString(), "conv.A[3][1]");
  ObjKey cell = a;
  cell.append("#cell");
  cell.append(12);
  EXPECT_EQ(cell.toString(), "conv.A#cell12[3][1]");
}

TEST(Trace, PublishedAtTracksLatestPerProcess) {
  sim::Trace tr;
  tr.record(1, 0, sim::EventKind::kPublish, "", RegVal(Value{1}));
  tr.record(5, 0, sim::EventKind::kPublish, "", RegVal(Value{2}));
  tr.record(7, 1, sim::EventKind::kPublish, "", RegVal(Value{3}));
  const auto at4 = tr.publishedAt(4, 2);
  EXPECT_EQ(at4[0].asInt(), 1);
  EXPECT_TRUE(at4[1].isBottom());
  const auto at9 = tr.publishedAt(9, 2);
  EXPECT_EQ(at9[0].asInt(), 2);
  EXPECT_EQ(at9[1].asInt(), 3);
}

TEST(FailurePattern, EnvironmentMembership) {
  const auto fp = FailurePattern::withCrashes(5, {{0, 10}, {3, 20}});
  EXPECT_FALSE(fp.inEnvironment(1));
  EXPECT_TRUE(fp.inEnvironment(2));
  EXPECT_TRUE(fp.inEnvironment(4));
  EXPECT_EQ(fp.faulty(), (ProcSet{0, 3}));
  EXPECT_EQ(fp.crashedBy(9), ProcSet{});
  EXPECT_EQ(fp.crashedBy(10), ProcSet{0});
  EXPECT_EQ(fp.crashedBy(25), (ProcSet{0, 3}));
}

TEST(FailurePattern, RandomRespectsBounds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto fp = FailurePattern::random(6, 3, 100, seed);
    EXPECT_LE(fp.faulty().size(), 3);
    EXPECT_FALSE(fp.correct().empty());
    for (Pid p : fp.faulty().members()) {
      EXPECT_LE(fp.crashTime(p), 100);
    }
  }
}

// ---- Block recycling (common/frame_pool.h FramePool) ----------------------

using wfd::FramePool;

std::uint32_t pooledTotal() {
  std::uint32_t n = 0;
  for (std::size_t c = 0; c < FramePool::kClasses; ++c) {
    n += FramePool::pooled(c);
  }
  return n;
}

// Fig. 1 runs on k-converge, which opens five frames per call.
std::uint64_t fig1TraceHash() {
  RunConfig cfg;
  cfg.n_plus_1 = 4;
  const auto fp = FailurePattern::withCrashes(4, {{1, 120}});
  cfg.fp = fp;
  cfg.fd = fd::makeUpsilon(fp, 150, 7);
  cfg.seed = 7;
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); },
      test::distinctProposals(4));
  EXPECT_TRUE(rr.all_correct_done);
  return rr.trace().hash64();
}

Coro<Unit> idle() { co_return Unit{}; }

RegVal triple(Value v) {
  return RegVal::tuple({RegVal(v), RegVal(v + 1), RegVal(v + 2)});
}

TEST(FramePool, WarmPoolRunsReplayColdPoolAndFreshThreadRuns) {
  FramePool::trim();
  const std::uint64_t cold = fig1TraceHash();
  EXPECT_GT(pooledTotal(), 0u);  // the run's frames came back to the pool
  const std::uint64_t warm = fig1TraceHash();
  std::uint64_t fresh = 0;
  std::thread([&fresh] { fresh = fig1TraceHash(); }).join();
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, fresh);
}

TEST(FramePool, CoroMadeOnOneThreadIsDestroyedOnAnother) {
  FramePool::trim();
  Coro<Unit> c;
  std::thread([&c] {
    c = idle();
    FramePool::trim();
  }).join();
  EXPECT_EQ(pooledTotal(), 0u);
  c = Coro<Unit>();  // frees the foreign frame into this thread's pool
  EXPECT_EQ(pooledTotal(), 1u);
  const Coro<Unit> reused = idle();  // the next frame of its class reuses it
  EXPECT_EQ(pooledTotal(), 0u);
}

// Owns a frame from before the thread's pool armed its drain, so it is
// destroyed after the drain ran at thread exit.
struct LateFrameOwner {
  Coro<Unit> frame = idle();
  std::atomic<int>* pooled_after_free = nullptr;
  LateFrameOwner() = default;
  LateFrameOwner(const LateFrameOwner&) = delete;
  LateFrameOwner& operator=(const LateFrameOwner&) = delete;
  ~LateFrameOwner() {
    frame = Coro<Unit>();
    if (pooled_after_free != nullptr) {
      pooled_after_free->store(static_cast<int>(pooledTotal()));
    }
  }
};

TEST(FramePool, FrameFreedAfterPoolTeardownGoesToOperatorDelete) {
  std::atomic<int> pooled_after_free{-1};
  std::thread([&pooled_after_free] {
    thread_local LateFrameOwner owner;
    owner.pooled_after_free = &pooled_after_free;
    { const Coro<Unit> armed = idle(); }  // first pooled free arms the drain
    EXPECT_EQ(pooledTotal(), 1u);
  }).join();
  // The drain emptied the pool before the owner freed its frame, and that
  // frame did not go back into the dead pool (LeakSanitizer would report it).
  EXPECT_EQ(pooled_after_free.load(), 0);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, UseOfAPooledFrameStillReports) {
  using Handle = std::coroutine_handle<Coro<Unit>::promise_type>;
  Handle h;
  {
    const Coro<Unit> c = idle();
    h = Handle::from_address(c.handle().address());
  }  // the frame is now a poisoned block on the free list
  EXPECT_TRUE(__asan_address_is_poisoned(h.address()));
  EXPECT_DEATH(
      {
        const void* volatile seen = h.promise().continuation.address();
        (void)seen;
      },
      "use-after-poison");
}
#endif

TEST(FramePool, PoolStaysWithinItsCap) {
  FramePool::trim();
  std::vector<Coro<Unit>> live;
  for (std::uint32_t i = 0; i < 2 * FramePool::kCap; ++i) {
    live.push_back(idle());
  }
  live.clear();
  std::uint32_t fullest = 0;
  for (std::size_t c = 0; c < FramePool::kClasses; ++c) {
    EXPECT_LE(FramePool::pooled(c), FramePool::kCap);
    fullest = std::max(fullest, FramePool::pooled(c));
  }
  EXPECT_EQ(fullest, FramePool::kCap);
  EXPECT_EQ(pooledTotal(), FramePool::kCap);
  FramePool::trim();
  EXPECT_EQ(pooledTotal(), 0u);
  // Cell blocks share the cap.
  std::vector<RegVal> tuples;
  for (std::uint32_t i = 0; i < 2 * FramePool::kCap; ++i) {
    tuples.push_back(triple(static_cast<Value>(i)));
  }
  tuples.clear();
  EXPECT_EQ(FramePool::pooled(FramePool::classOf(CellBlock::bytes(3))),
            FramePool::kCap);
  EXPECT_EQ(pooledTotal(), FramePool::kCap);
  FramePool::trim();
}

// ---- Cell blocks: tuples and SlotArray cells come from the same pool ------

// A 3-tuple's block and a 4-cell SlotArray's fall in one size class.
TEST(FramePool, FreedCellBlockIsReusedByTheNextBlockOfItsClass) {
  const std::size_t c = FramePool::classOf(CellBlock::bytes(3));
  ASSERT_EQ(c, FramePool::classOf(CellBlock::bytes(4)));
  FramePool::trim();
  const RegVal* block = nullptr;
  {
    const RegVal t = triple(1);
    block = t.asTuple().begin();
  }
  EXPECT_EQ(FramePool::pooled(c), 1u);
  {
    const RegVal t = triple(5);
    EXPECT_EQ(t.asTuple().begin(), block);
    EXPECT_EQ(pooledTotal(), 0u);
  }
  const RegVal* copy = nullptr;
  {
    SlotArray cells(4);
    EXPECT_EQ(cells.begin(), block);
    cells.set(0, RegVal(Value{9}));
    const SlotArray view = cells;
    cells.set(1, RegVal(Value{8}));  // copies into a new block of the class
    copy = cells.begin();
    EXPECT_NE(copy, block);
    EXPECT_EQ(view.begin(), block);
  }  // frees `view`'s block, then `cells`'s
  EXPECT_EQ(FramePool::pooled(c), 2u);
  {
    const RegVal t = triple(7);  // the last block freed comes back first
    EXPECT_EQ(t.asTuple().begin(), copy);
  }
  FramePool::trim();
}

TEST(FramePool, TupleBuiltOnAPoolWorkerLandsInTheCallersPool) {
  constexpr std::size_t kJobs = 16;
  std::vector<RegVal> tuples(kJobs);
  std::atomic<std::size_t> foreign{0};
  const std::thread::id caller = std::this_thread::get_id();
  sim::runPool(kJobs, 4, /*steal=*/false, [&](std::size_t job, int) {
    if (std::this_thread::get_id() != caller) ++foreign;
    tuples[job] = triple(static_cast<Value>(job));
  });
  EXPECT_EQ(foreign.load(), kJobs);
  const std::size_t c = FramePool::classOf(CellBlock::bytes(3));
  FramePool::trim();
  tuples.clear();
  EXPECT_EQ(FramePool::pooled(c), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    tuples.push_back(triple(static_cast<Value>(i)));
  }
  EXPECT_EQ(FramePool::pooled(c), 0u);  // the caller's next tuples reuse them
  EXPECT_EQ(tuples[3], triple(3));
  tuples.clear();
  FramePool::trim();
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, UseOfAFreedTupleStillReports) {
  FramePool::trim();
  const RegVal* cell = nullptr;
  {
    const RegVal t = triple(1);
    cell = t.asTuple().begin();
  }  // the block is now a poisoned block on the free list
  EXPECT_TRUE(__asan_address_is_poisoned(cell));
  EXPECT_DEATH(
      {
        const volatile bool seen = cell->isInt();
        (void)seen;
      },
      "use-after-poison");
  FramePool::trim();
}
#endif

}  // namespace
}  // namespace wfd
