// Ablations: each Upsilon axiom and each k-converge phase is load-bearing.
#include <gtest/gtest.h>

#include "core/ablations.h"
#include "test_util.h"

namespace wfd {
namespace {

using core::axiom1ViolatingDetector;
using core::axiom2ViolatingDetector;
using core::fig1DecidersUnder;
using core::kConvergeNaive;
using core::Pick;
using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::Unit;

// ---- Axiom (2): U != correct(F) is exactly what Fig. 1 needs ----

TEST(Ablation, UpsilonAxiom2IsNecessary) {
  // U pinned to the correct set (failure-free: U = Pi): every process is
  // a gladiator, no gladiator ever crashes, no citizen exists — under
  // lockstep the run livelocks.
  for (int n_plus_1 : {3, 4, 5}) {
    const auto fp = FailurePattern::failureFree(n_plus_1);
    EXPECT_EQ(fig1DecidersUnder(axiom2ViolatingDetector(fp), n_plus_1,
                                /*budget=*/200'000),
              0)
        << "n+1=" << n_plus_1;
  }
}

TEST(Ablation, LegalDetectorDecidesUnderTheSameSchedule) {
  // Control: the identical schedule with a *legal* stable set decides.
  for (int n_plus_1 : {3, 4, 5}) {
    const auto fp = FailurePattern::failureFree(n_plus_1);
    EXPECT_EQ(fig1DecidersUnder(fd::makeUpsilon(fp, /*stab_time=*/0),
                                n_plus_1, /*budget=*/200'000),
              n_plus_1);
  }
}

// ---- Axiom (1): eventual stabilization is necessary ----

TEST(Ablation, UpsilonAxiom1IsNecessary) {
  // A forever-flapping output (period 2) under lockstep with odd n+1:
  // consecutive own queries are n+1 (odd) steps apart, so every process
  // sees a different set each time, every round aborts via Stable[r],
  // and no value is ever eliminated.
  for (int n_plus_1 : {3, 5}) {
    EXPECT_EQ(fig1DecidersUnder(axiom1ViolatingDetector(), n_plus_1,
                                /*budget=*/200'000),
              0)
        << "n+1=" << n_plus_1;
  }
}

// ---- k-converge: the tag-exchange phase is necessary ----

Coro<Unit> naiveOneShot(Env& env, int k, Value v) {
  const Pick p = co_await kConvergeNaive(env, sim::ObjKey{"abl.conv"}, k, v);
  env.note(p.committed ? "commit" : "adopt", RegVal(p.value));
  env.decide(p.value);
  co_return Unit{};
}

// Exhaustive search over all interleavings of two 2-step processes (the
// naive routine costs 2 ops each): C(4,2) = 6 schedules. At least one
// must violate C-Agreement for k = 1 (a commit alongside two picked
// values); the real kConverge has zero violations over its 70 schedules
// (tests/exhaustive_test.cc).
TEST(Ablation, NaiveConvergeViolatesCAgreement) {
  const std::vector<Value> props = {100, 101};
  sim::RunConfig cfg;
  cfg.n_plus_1 = 2;
  const sim::AlgoFn naive = [](Env& e, Value v) {
    return naiveOneShot(e, 1, v);
  };
  int violations = 0;
  int schedules = 0;
  test::forEachInterleaving({2, 2}, [&](const std::vector<Pid>& seq) {
    ++schedules;
    const sim::RunResult rr = test::runScheduled(cfg, naive, props, seq);
    if (!core::checkKConverge(rr.trace().events(), 1, props).agreement) {
      ++violations;
    }
  });
  EXPECT_EQ(schedules, 6);
  EXPECT_GT(violations, 0)
      << "the naive converge should break on a solo-then-late schedule";
}

}  // namespace
}  // namespace wfd
