// MWMR-from-SWMR atomic register construction: monotone (ts, writer)
// witnesses along every reader, read-your-writes, freshness after
// quiescence — across random and scripted schedules.
#include <gtest/gtest.h>

#include "memory/mwmr.h"
#include "test_util.h"

namespace wfd {
namespace {

using mem::mwmrRead;
using mem::MwmrRead;
using mem::mwmrWrite;
using sim::Coro;
using sim::Env;
using sim::RunConfig;
using sim::Unit;

// One designated writer increments; everyone else reads repeatedly and
// records (ts, writer, value) witnesses.
Coro<Unit> writerProc(Env& env, int count) {
  for (int i = 1; i <= count; ++i) {
    co_await mwmrWrite(env, sim::ObjKey{"t.mw"}, RegVal(static_cast<Value>(i)));
  }
  co_return Unit{};
}

Coro<Unit> readerProc(Env& env, int count) {
  for (int i = 0; i < count; ++i) {
    const MwmrRead r = co_await mwmrRead(env, sim::ObjKey{"t.mw"});
    if (r.writer >= 0) {
      std::vector<RegVal> rec;
      rec.emplace_back(r.ts);
      rec.emplace_back(static_cast<Value>(r.writer));
      rec.push_back(r.value);
      env.note("read", RegVal::tuple(std::move(rec)));
    }
  }
  co_return Unit{};
}

TEST(Mwmr, ReadsAreMonotonePerReader) {
  const int n_plus_1 = 4;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg,
        [](Env& e, Value) -> Coro<Unit> {
          if (e.me() == 0) return writerProc(e, 20);
          return readerProc(e, 15);
        },
        {0, 0, 0, 0});
    ASSERT_TRUE(rr.all_correct_done);
    std::map<Pid, std::pair<std::int64_t, Pid>> last;
    for (const auto& e : rr.trace().events()) {
      if (e.kind != sim::EventKind::kNote || e.label != "read") continue;
      const auto& t = e.value.asTuple();
      const std::pair<std::int64_t, Pid> wit{t[0].asInt(),
                                             static_cast<Pid>(t[1].asInt())};
      auto it = last.find(e.pid);
      if (it != last.end()) {
        EXPECT_GE(wit, it->second)
            << "reader p" << e.pid + 1 << " went backwards (seed " << seed
            << ")";
      }
      last[e.pid] = wit;
      // Value matches the witness for a single incrementing writer.
      EXPECT_EQ(t[2].asInt(), t[0].asInt());
    }
  }
}

TEST(Mwmr, QuiescentReadSeesLastWrite) {
  // Writer runs to completion solo, then readers run: all must see the
  // final value (regularity/freshness).
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  // Writer solo (10 writes x (n+1 reads + 1 write) steps), then the rest.
  const std::vector<Pid> prefix(10 * (n_plus_1 + 1) + 5, 0);
  const auto rr = test::runScheduled(
      cfg,
      [](Env& e, Value) -> Coro<Unit> {
        if (e.me() == 0) return writerProc(e, 10);
        return readerProc(e, 1);
      },
      {0, 0, 0}, prefix);
  ASSERT_TRUE(rr.all_correct_done);
  int reads = 0;
  for (const auto& e : rr.trace().events()) {
    if (e.kind == sim::EventKind::kNote && e.label == "read") {
      ++reads;
      EXPECT_EQ(e.value.asTuple()[2].asInt(), 10);
    }
  }
  EXPECT_EQ(reads, 2);
}

TEST(Mwmr, ConcurrentWritersAreTotallyOrdered) {
  // All processes write then read: the (ts, writer) witnesses across all
  // final reads must be identical or ordered, and the read value must be
  // some process's write.
  const int n_plus_1 = 5;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RunConfig cfg;
    cfg.n_plus_1 = n_plus_1;
    cfg.seed = seed;
    const auto rr = sim::runTask(
        cfg,
        [](Env& e, Value v) -> Coro<Unit> {
          co_await mwmrWrite(e, sim::ObjKey{"t.mw2"}, RegVal(v));
          const MwmrRead r = co_await mwmrRead(e, sim::ObjKey{"t.mw2"});
          e.decide(r.value.asInt());
          co_return Unit{};
        },
        test::distinctProposals(n_plus_1));
    ASSERT_TRUE(rr.all_correct_done);
    for (const auto& [p, v] : rr.decisions) {
      EXPECT_GE(v, 100);
      EXPECT_LT(v, 100 + n_plus_1);
    }
  }
}

TEST(Mwmr, ReadYourWrites) {
  const int n_plus_1 = 3;
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.policy = sim::PolicyKind::kRoundRobin;
  const auto rr = sim::runTask(
      cfg,
      [](Env& e, Value v) -> Coro<Unit> {
        // Write, read back immediately with no interleaved writer of a
        // *smaller* timestamp able to mask it: the read's witness must be
        // at least our write's.
        co_await mwmrWrite(e, sim::ObjKey{"t.ryw", e.me()}, RegVal(v));
        const MwmrRead r = co_await mwmrRead(e, sim::ObjKey{"t.ryw", e.me()});
        e.decide(r.value.asInt());  // sole writer of this register
        co_return Unit{};
      },
      test::distinctProposals(n_plus_1));
  for (const auto& [p, v] : rr.decisions) EXPECT_EQ(v, 100 + p);
}

}  // namespace
}  // namespace wfd
