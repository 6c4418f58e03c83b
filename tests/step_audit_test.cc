// Step-auditor conformance tests (docs/ANALYSIS.md §1).
//
// Two obligations per audited rule: DETECTION — a deliberately violating
// automaton makes exactly that rule fire, with a structured diagnostic —
// and NON-INTERFERENCE — every legal algorithm runs audit-clean with a
// trace hash identical to its unaudited run (the auditor observes, never
// perturbs).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "test_util.h"
#include "wfd.h"

namespace wfd {
namespace {

using sim::AuditMode;
using sim::AuditRule;
using sim::Coro;
using sim::Env;
using sim::FailurePattern;
using sim::ObjKey;
using sim::RunConfig;
using sim::StepAuditError;
using sim::Unit;

// ---- Deliberately violating automata ------------------------------------

// One legal awaited write, then a second operation smuggled into the SAME
// atomic step by calling World::execute directly from local computation.
Coro<Unit> rogueTwoOpsPerStep(Env& env) {
  const ObjId r = env.reg(ObjKey{"rogue.two", env.me()});
  co_await env.write(r, RegVal(Value{1}));
  env.world()->execute(env.me(), sim::OpWrite{r, RegVal(Value{2})});
  co_await env.yield();
  co_return Unit{};
}

// Mutates the object table directly, bypassing the atomic-step machinery
// (no operation is ever declared to the scheduler for this write).
Coro<Unit> rogueDirectTableWrite(Env& env) {
  const ObjId r = env.reg(ObjKey{"rogue.direct", env.me()});
  co_await env.yield();
  env.world()->objects().write(r, RegVal(Value{42}));
  co_await env.yield();
  co_return Unit{};
}

// Applies a register read to a snapshot object: object-kind discipline.
Coro<Unit> rogueReadSnapshotAsRegister(Env& env) {
  const ObjId s = env.snap(ObjKey{"rogue.kind"}, env.nProcs());
  co_await env.read(s);  // wrong kind: OpRead on a snapshot object
  co_return Unit{};
}

// Everyone proposes to a 1-ported consensus object: port discipline.
Coro<Unit> rogueOverSubscribedConsensus(Env& env) {
  const ObjId c = env.cons(ObjKey{"rogue.ports"}, 1);
  co_await env.consPropose(c, RegVal(Value{env.me()}));
  co_return Unit{};
}

// Queries the FD twice within one atomic step: the second query happens
// at the same world time, breaking per-process query-time monotonicity.
Coro<Unit> rogueDoubleFdQuery(Env& env) {
  co_await env.queryFd();
  env.world()->execute(env.me(), sim::OpFdQuery{});
  co_await env.yield();
  co_return Unit{};
}

RunConfig collectCfg(int n_plus_1) {
  RunConfig cfg;
  cfg.n_plus_1 = n_plus_1;
  cfg.audit = AuditMode::kCollect;
  cfg.max_steps = 10'000;
  return cfg;
}

std::vector<Value> zeros(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), 0);
}

// ---- Detection: each rule fires on its violating automaton --------------

TEST(StepAudit, MultiOpFires) {
  const auto rr = sim::runTask(
      collectCfg(2), [](Env& e, Value) { return rogueTwoOpsPerStep(e); },
      zeros(2));
  ASSERT_NE(rr.audit(), nullptr);
  EXPECT_FALSE(rr.audit()->clean());
  EXPECT_TRUE(rr.audit()->sawRule(AuditRule::kMultiOp));
  // The model allows one shared-object op per step: the smuggled write
  // must be flagged as operation #2, never as unrouted (it did go through
  // World::execute).
  EXPECT_FALSE(rr.audit()->sawRule(AuditRule::kUnroutedAccess));
}

TEST(StepAudit, ViolatingCollectRunWritesOneStderrLine) {
  // Collect mode reports a violating run on stderr in one line: the count
  // and the first message. The full report, trails included, stays on
  // the auditor.
  testing::internal::CaptureStderr();
  const auto rr = sim::runTask(
      collectCfg(2), [](Env& e, Value) { return rogueTwoOpsPerStep(e); },
      zeros(2));
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_NE(rr.audit(), nullptr);
  ASSERT_FALSE(rr.audit()->clean());
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_EQ(err.rfind("step audit: ", 0), 0u) << err;
  EXPECT_NE(err.find(rr.audit()->violations().front().message),
            std::string::npos)
      << err;
  EXPECT_NE(rr.audit()->report().find("op trail"), std::string::npos);
}

TEST(StepAudit, UnroutedAccessFires) {
  const auto rr = sim::runTask(
      collectCfg(2), [](Env& e, Value) { return rogueDirectTableWrite(e); },
      zeros(2));
  ASSERT_NE(rr.audit(), nullptr);
  EXPECT_TRUE(rr.audit()->sawRule(AuditRule::kUnroutedAccess));
}

TEST(StepAudit, KindMismatchThrows) {
  RunConfig cfg = collectCfg(2);
  cfg.audit = AuditMode::kThrow;  // must preempt the object table's assert
  try {
    sim::runTask(cfg,
                 [](Env& e, Value) { return rogueReadSnapshotAsRegister(e); },
                 zeros(2));
    FAIL() << "expected StepAuditError";
  } catch (const StepAuditError& err) {
    EXPECT_EQ(err.violation.rule, AuditRule::kKindMismatch);
    EXPECT_NE(err.violation.message.find("non-register"), std::string::npos)
        << err.violation.message;
  }
}

TEST(StepAudit, PortOverflowThrows) {
  RunConfig cfg = collectCfg(2);
  cfg.audit = AuditMode::kThrow;
  cfg.policy = sim::PolicyKind::kRoundRobin;  // both processes get a turn
  try {
    sim::runTask(
        cfg, [](Env& e, Value) { return rogueOverSubscribedConsensus(e); },
        zeros(2));
    FAIL() << "expected StepAuditError";
  } catch (const StepAuditError& err) {
    EXPECT_EQ(err.violation.rule, AuditRule::kPortOverflow);
    EXPECT_EQ(err.violation.pid, 1);  // the second distinct proposer
  }
}

TEST(StepAudit, CrashedStepThrows) {
  RunConfig cfg = collectCfg(2);
  cfg.audit = AuditMode::kThrow;
  cfg.fp = FailurePattern::withCrashes(2, {{0, 0}});  // p1 in F(0)
  sim::Run run(
      cfg, [](Env& e, Value) { return rogueTwoOpsPerStep(e); }, zeros(2));
  // Drive the scheduler by hand into the forbidden step: p1 is crashed
  // from time 0, so scheduling it violates run condition (1).
  try {
    run.scheduler().step(0);
    FAIL() << "expected StepAuditError";
  } catch (const StepAuditError& err) {
    EXPECT_EQ(err.violation.rule, AuditRule::kCrashedStep);
    EXPECT_EQ(err.violation.pid, 0);
  }
}

TEST(StepAudit, FdNonMonotoneFires) {
  RunConfig cfg = collectCfg(2);
  const auto fp = FailurePattern::failureFree(2);
  cfg.fp = fp;
  cfg.fd = fd::makeUpsilon(fp, 10, 1);
  const auto rr = sim::runTask(
      cfg, [](Env& e, Value) { return rogueDoubleFdQuery(e); }, zeros(2));
  ASSERT_NE(rr.audit(), nullptr);
  EXPECT_TRUE(rr.audit()->sawRule(AuditRule::kFdNonMonotone));
  EXPECT_TRUE(rr.audit()->sawRule(AuditRule::kMultiOp));  // same smuggle
}

// ---- Diagnostics carry pid, step index, and an op trace tail ------------

TEST(StepAudit, ViolationDiagnosticIsStructured) {
  const auto rr = sim::runTask(
      collectCfg(3), [](Env& e, Value) { return rogueTwoOpsPerStep(e); },
      zeros(3));
  ASSERT_NE(rr.audit(), nullptr);
  ASSERT_FALSE(rr.audit()->violations().empty());
  const auto& v = rr.audit()->violations().front();
  EXPECT_GE(v.pid, 0);
  EXPECT_LT(v.pid, 3);
  EXPECT_GE(v.time, 0);
  EXPECT_FALSE(v.message.empty());
  EXPECT_FALSE(v.trail.empty());  // the op trace tail
  const std::string s = v.toString();
  EXPECT_NE(s.find("multi-op"), std::string::npos) << s;
  EXPECT_NE(s.find("op trail"), std::string::npos) << s;
  EXPECT_NE(rr.audit()->report().find("violation"), std::string::npos);
}

// ---- Non-interference: legal algorithms are audit-clean and unchanged ---

struct LegalCase {
  const char* name;
  sim::RunConfig cfg;
  sim::AlgoFn algo;
  std::vector<Value> props;
};

std::vector<LegalCase> legalCases() {
  std::vector<LegalCase> cases;
  {
    LegalCase c;
    c.name = "fig1";
    c.cfg.n_plus_1 = 4;
    const auto fp = FailurePattern::withCrashes(4, {{2, 60}});
    c.cfg.fp = fp;
    c.cfg.fd = fd::makeUpsilon(fp, 100, 3);
    c.cfg.seed = 3;
    c.algo = [](Env& e, Value v) { return core::upsilonSetAgreement(e, v); };
    c.props = test::distinctProposals(4);
    cases.push_back(std::move(c));
  }
  {
    LegalCase c;
    c.name = "fig2";
    c.cfg.n_plus_1 = 4;
    const auto fp = FailurePattern::failureFree(4);
    c.cfg.fp = fp;
    c.cfg.fd = fd::makeUpsilonF(fp, 2, 80, 7);
    c.cfg.seed = 7;
    c.algo = [](Env& e, Value v) {
      return core::upsilonFSetAgreement(e, 2, v);
    };
    c.props = test::distinctProposals(4);
    cases.push_back(std::move(c));
  }
  {
    LegalCase c;
    c.name = "fig3";
    c.cfg.n_plus_1 = 3;
    const auto fp = FailurePattern::failureFree(3);
    c.cfg.fp = fp;
    c.cfg.fd = fd::makeOmega(fp, 50, 2);
    c.cfg.seed = 2;
    c.cfg.max_steps = 30'000;
    const auto phi = core::phiOmegaK(3);
    c.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
    c.props = zeros(3);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(StepAudit, LegalAlgorithmsAreCleanAndHashIdentical) {
  for (auto& c : legalCases()) {
    RunConfig plain = c.cfg;
    plain.audit = std::nullopt;
    // Guard against ambient WFD_AUDIT while measuring the baseline: an
    // explicit collect request is compared against an explicit baseline.
    const auto off = sim::runTask(plain, c.algo, c.props);

    RunConfig audited = c.cfg;
    audited.audit = AuditMode::kCollect;
    const auto on = sim::runTask(audited, c.algo, c.props);

    ASSERT_NE(on.audit(), nullptr) << c.name;
    EXPECT_TRUE(on.audit()->clean())
        << c.name << ": " << on.audit()->report();
    EXPECT_GT(on.audit()->stepsAudited(), 0) << c.name;
    EXPECT_EQ(off.trace().hash64(), on.trace().hash64())
        << c.name << ": auditor perturbed the run";
    EXPECT_EQ(off.decisions, on.decisions) << c.name;
  }
}

// Throw mode is equally silent on legal runs (nothing to throw).
TEST(StepAudit, ThrowModeSilentOnLegalRun) {
  for (auto& c : legalCases()) {
    RunConfig cfg = c.cfg;
    cfg.audit = AuditMode::kThrow;
    EXPECT_NO_THROW({
      const auto rr = sim::runTask(cfg, c.algo, c.props);
      ASSERT_NE(rr.audit(), nullptr);
      EXPECT_TRUE(rr.audit()->clean());
    }) << c.name;
  }
}

}  // namespace
}  // namespace wfd
