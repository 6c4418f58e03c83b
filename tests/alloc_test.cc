// Per-run heap budget of the sim workload's Fig. 1 / Fig. 2 runs
// (docs/PERF.md, "Per-run allocation budget"): a checked run through
// runTask makes at most kRunBudget global operator new calls, whatever
// its length, and checkKSetAgreement makes none on a passing run.
//
// Frames and cells come from the per-thread FramePool, which makes a new
// block only when a run holds more of a size class live than any run
// before it on the thread did, and keeps it for the runs after. That
// growth belongs to the thread, not to the run, so the budget leaves it
// out: it is the number of blocks the pool gained across the run, once
// the run's result is gone.
//
// Its own executable: the counting operator new below replaces the global
// one for this binary only. The counter is per-thread, so a gtest helper
// thread could not disturb it. Every form the library or the runtime
// might pair with our delete is replaced, so sanitizer builds see
// malloc/free on both sides.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/frame_pool.h"
#include "test_util.h"

namespace {

std::uint64_t& allocCount() {
  thread_local std::uint64_t n = 0;
  return n;
}

void* countedAlloc(std::size_t n) {
  ++allocCount();
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// Not inlined, as in bench/bench_core.cc: GCC would otherwise see free()
// called next to an inlined `new` and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wfd {
namespace {

using core::checkKSetAgreement;
using sim::Env;
using sim::FailurePattern;
using sim::RunConfig;
using sim::RunResult;

// The budget docs/PERF.md itemizes: the world, the per-process arrays,
// the trace's event vector, the object table and the harvested result,
// independent of the run's length.
constexpr std::uint64_t kRunBudget = 16;

// Blocks pooled on this thread, over every FramePool size class.
std::uint64_t pooledBlocks() {
  std::uint64_t n = 0;
  for (std::size_t c = 0; c < FramePool::kClasses; ++c) {
    n += FramePool::pooled(c);
  }
  return n;
}

// One sim-workload shape (bench/suite/sim_workload.cc): n+1 processes,
// one crash, and Fig. 1 (Upsilon, k = n) or Fig. 2 (Upsilon^2, k = 2).
struct Shape {
  int fig;
  int n_plus_1;
  int k;
};

struct Input {
  RunConfig cfg;
  std::vector<Value> proposals;
};

// The sim workload's draws for one run of `shape`, from `rng`.
Input makeInput(const Shape& shape, Rng& rng) {
  const int n = shape.n_plus_1;
  const auto victim = static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
  const Time at = shape.fig == 1 ? rng.range(60, 240) : rng.range(100, 300);
  const Time stab = shape.fig == 1 ? rng.range(100, 250) : rng.range(120, 240);
  const std::uint64_t noise = rng.next();
  const auto fp = FailurePattern::withCrashes(n, {{victim, at}});
  Input in;
  in.cfg.n_plus_1 = n;
  in.cfg.fp = fp;
  in.cfg.fd = shape.fig == 1 ? fd::makeUpsilon(fp, stab, noise)
                             : fd::makeUpsilonF(fp, 2, stab, noise);
  in.cfg.seed = rng.next();
  in.proposals.resize(static_cast<std::size_t>(n));
  Value next = rng.range(1, 1000);
  for (Value& v : in.proposals) {
    v = next;
    next += 1 + static_cast<Value>(rng.below(9));
  }
  return in;
}

const sim::AlgoFn& algoOf(int fig) {
  static const sim::AlgoFn fig1 = [](Env& e, Value v) {
    return core::upsilonSetAgreement(e, v);
  };
  static const sim::AlgoFn fig2 = [](Env& e, Value v) {
    return core::upsilonFSetAgreement(e, 2, v);
  };
  return fig == 1 ? fig1 : fig2;
}

class AllocBudget : public ::testing::TestWithParam<Shape> {};

TEST_P(AllocBudget, CheckedRunStaysWithinItsBudget) {
  // An audited run (WFD_AUDIT set) allocates its auditor's per-step
  // state; the budget is the unaudited run's.
  if (sim::resolvedAuditMode(std::nullopt).has_value()) {
    GTEST_SKIP() << "the budget covers unaudited runs only";
  }
  const Shape shape = GetParam();
  Rng rng(0xA110C + static_cast<std::uint64_t>(shape.fig));
  {
    // Warm-up: per-thread pools and one-time statics fill on first use.
    const Input in = makeInput(shape, rng);
    const RunResult rr = sim::runTask(in.cfg, algoOf(shape.fig), in.proposals);
    ASSERT_TRUE(checkKSetAgreement(rr, shape.k, in.proposals).ok());
  }
  std::uint64_t most = 0;
  for (int i = 0; i < 200; ++i) {
    const Input in = makeInput(shape, rng);
    const std::uint64_t pooled_before = pooledBlocks();
    std::uint64_t run_allocs = 0;
    Time steps = 0;
    {
      const std::uint64_t before_run = allocCount();
      const RunResult rr =
          sim::runTask(in.cfg, algoOf(shape.fig), in.proposals);
      run_allocs = allocCount() - before_run;
      steps = rr.steps;
      const std::uint64_t before_check = allocCount();
      const core::AgreementReport rep =
          checkKSetAgreement(rr, shape.k, in.proposals);
      const std::uint64_t check_allocs = allocCount() - before_check;
      ASSERT_TRUE(rep.ok()) << "run " << i << ": " << rep.violation;
      EXPECT_EQ(check_allocs, 0U) << "run " << i;
    }
    // Every block the run took from the pool is back in it now.
    const std::uint64_t pool_growth = pooledBlocks() - pooled_before;
    ASSERT_LE(pool_growth, run_allocs) << "run " << i;
    const std::uint64_t own = run_allocs - pool_growth;
    EXPECT_LE(own, kRunBudget) << "run " << i << " (" << steps
                               << " steps, pool grew by " << pool_growth
                               << ")";
    most = std::max(most, own);
  }
  RecordProperty("most_allocs_per_run", static_cast<int>(most));
}

INSTANTIATE_TEST_SUITE_P(SimShapes, AllocBudget,
                         ::testing::Values(Shape{1, 4, 3}, Shape{2, 5, 2}),
                         [](const auto& info) {
                           return "Fig" + std::to_string(info.param.fig);
                         });

}  // namespace
}  // namespace wfd
