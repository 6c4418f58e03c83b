// The detector axioms, judged three ways, must agree.
//
// For every constant history d at every correct set R, the offline history
// checker (fd/axioms.h), the online step auditor (sim/step_audit.h) and the
// f-resilient sample predicate (core/samples.h) are three consumers of one
// rule per axiom family. This test walks every admissible (R, d) at
// n+1 in {2, 3, 4} for Upsilon^f (f = 1..n), Omega^k (k = 1..n+1) and <>P,
// and requires one verdict from all three.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wfd.h"

namespace wfd {
namespace {

using Family = fd::AxiomSpec::Family;
using sim::FailurePattern;

// A constant history that claims `spec`, so the online checker judges it.
class ClaimingConstantFd final : public fd::FailureDetector {
 public:
  ClaimingConstantFd(ProcSet d, fd::AxiomSpec spec) : d_(d), spec_(spec) {}
  ProcSet query(Pid, Time) const override { return d_; }
  [[nodiscard]] std::string name() const override { return "Constant"; }
  [[nodiscard]] Time stabilizationTime() const override { return 0; }
  [[nodiscard]] fd::AxiomSpec axioms() const override { return spec_; }

 private:
  ProcSet d_;
  fd::AxiomSpec spec_;
};

sim::Coro<sim::Unit> querySome(sim::Env& e, Value) {
  for (int i = 0; i < 2; ++i) (void)co_await e.queryFd();
  co_return sim::Unit{};
}

// Faulty processes take a few steps before they crash, so the auditor
// also sees answers at processes outside correct(F).
FailurePattern patternWithCorrect(int n_plus_1, ProcSet correct) {
  std::vector<std::pair<Pid, Time>> crashes;
  for (Pid p : correct.complement(n_plus_1).members()) {
    crashes.push_back({p, 3});
  }
  return FailurePattern::withCrashes(n_plus_1, crashes);
}

bool offlineLegal(const fd::AxiomSpec& spec, ProcSet d,
                  const FailurePattern& fp) {
  return fd::checkHistory(*fd::makeConstant(d), fp, spec, /*horizon=*/20).ok;
}

bool onlineLegal(const fd::AxiomSpec& spec, ProcSet d,
                 const FailurePattern& fp) {
  sim::RunConfig cfg;
  cfg.n_plus_1 = fp.nProcs();
  cfg.fp = fp;
  cfg.fd = std::make_shared<ClaimingConstantFd>(d, spec);
  cfg.seed = 7;
  cfg.audit = sim::AuditMode::kCollect;
  const std::vector<Value> inputs(static_cast<std::size_t>(cfg.n_plus_1), 0);
  const auto rr = sim::runTask(cfg, querySome, inputs);
  return !rr.audit()->sawRule(sim::AuditRule::kFdIllegalOutput);
}

bool sampleLegal(const fd::AxiomSpec& spec, int n_plus_1, ProcSet d,
                 ProcSet r) {
  // Upsilon^f's environment is E_f; the other families are judged in E_n.
  const int f = spec.family == Family::kUpsilonF ? spec.param : n_plus_1 - 1;
  return core::isFResilientSample(core::axiomLegal(spec, n_plus_1), n_plus_1,
                                  f, {d, r});
}

std::string describe(const fd::AxiomSpec& spec, ProcSet d, ProcSet r) {
  static const char* const kNames[] = {"none", "Upsilon^f", "Omega^k", "<>P"};
  return std::string(kNames[static_cast<int>(spec.family)]) +
         " param=" + std::to_string(spec.param) + " d=" + d.toString() +
         " R=" + r.toString();
}

TEST(Axioms, OfflineOnlineAndSampleAgreeOnConstantHistories) {
  for (int n_plus_1 = 2; n_plus_1 <= 4; ++n_plus_1) {
    std::vector<fd::AxiomSpec> specs;
    for (int f = 1; f <= n_plus_1 - 1; ++f) {
      specs.push_back({Family::kUpsilonF, f});
    }
    for (int k = 1; k <= n_plus_1; ++k) specs.push_back({Family::kOmegaK, k});
    specs.push_back({Family::kEventuallyPerfect, 0});
    const std::uint64_t subsets = std::uint64_t{1} << n_plus_1;
    int legal = 0;
    int illegal = 0;
    for (const fd::AxiomSpec& spec : specs) {
      // The sample predicate binds the environment's resilience to f for
      // Upsilon^f; every other family is judged wait-free (f = n).
      const int f_env =
          spec.family == Family::kUpsilonF ? spec.param : n_plus_1 - 1;
      for (std::uint64_t rb = 1; rb < subsets; ++rb) {
        const ProcSet r = ProcSet::fromBits(rb);
        if (r.complement(n_plus_1).size() > f_env) continue;  // F not in E_f
        const FailurePattern fp = patternWithCorrect(n_plus_1, r);
        for (std::uint64_t db = 0; db < subsets; ++db) {
          const ProcSet d = ProcSet::fromBits(db);
          const bool offline = offlineLegal(spec, d, fp);
          const bool online = onlineLegal(spec, d, fp);
          const bool sample = sampleLegal(spec, n_plus_1, d, r);
          EXPECT_EQ(offline, online) << describe(spec, d, r);
          EXPECT_EQ(offline, sample) << describe(spec, d, r);
          ++(offline ? legal : illegal);
        }
      }
    }
    // Both verdicts occur for every universe size: the walk is not vacuous.
    EXPECT_GT(legal, 0) << "n+1=" << n_plus_1;
    EXPECT_GT(illegal, 0) << "n+1=" << n_plus_1;
  }
}

}  // namespace
}  // namespace wfd
