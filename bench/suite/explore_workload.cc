// explore: the bounded Fig. 1 cut at n+1 = 3 certified by both engines.
//
// kDpor runs through the work-stealing frontier at jobs = 2; kDag runs the
// classic serial engine, because the frontier kDag needs ~166k schedules
// on this input. Restore-by-replay dominates both (replayed steps are
// several times the executed ones), which is the ROADMAP's named hotspot.
// kDpor is repeated so each engine gets about half of the round, and a
// change to either engine moves schedules/s by a similar share.
#include <set>

#include "suite.h"

namespace wfd::bench::suite {
namespace {

using core::Pick;
using sim::Coro;
using sim::Env;
using sim::ExploreConfig;
using sim::ExploreMode;
using sim::ExploreResult;
using sim::Unit;

constexpr int kProcs = 3;
// The classic kDag engine is serial and reaches its terminal states in a
// fixed order, checking the property at each. Timing every 256th check
// cuts the call, about 4 s at the seed commit, into slices of about 0.1 s
// that repeat across rounds (see wfd_bench.cc).
constexpr std::uint64_t kDagSliceSchedules = 256;

// bench_explore's fig1Bounded, kept identical: one round of the Fig. 1
// loop (n-converge, D, an Upsilon query, the (|U|-1)-sub-convergence);
// a process that would enter round 2 finishes undecided instead.
Coro<Unit> fig1Bounded(Env& env, Value v) {
  env.propose(v);
  const int n = env.nProcs() - 1;
  const sim::ObjId d_reg = env.reg(sim::ObjKey{"fig1.D"});
  const Pick p = co_await core::kConverge(env, sim::ObjKey{"fig1.conv"}, n, v);
  v = p.value;
  if (p.committed) {
    co_await env.write(d_reg, RegVal(v));
    env.decide(v);
    co_return Unit{};
  }
  {
    const RegVal d = (co_await env.read(d_reg)).scalar;
    if (!d.isBottom()) {
      env.decide(d.asInt());
      co_return Unit{};
    }
  }
  const ProcSet u = (co_await env.queryFd()).scalar.asSet();
  const sim::ObjId dr_reg = env.reg(sim::ObjKey{"fig1.Dr"});
  if (!u.contains(env.me())) {
    env.note("citizen", u);
    co_await env.write(dr_reg, RegVal(v));
    co_return Unit{};
  }
  env.note("gladiator", u);
  const Pick g =
      co_await core::kConverge(env, sim::ObjKey{"fig1.sub"}, u.size() - 1, v);
  v = g.value;
  if (g.committed) co_await env.write(dr_reg, RegVal(v));
  const RegVal d = (co_await env.read(d_reg)).scalar;
  if (!d.isBottom()) env.decide(d.asInt());
  co_return Unit{};
}

// k-set agreement (k = n - 1) among the deciders, plus validity.
std::string fig1Property(const sim::ExploreOutcome& out,
                         const std::set<Value>& proposed) {
  std::set<Value> decided;
  for (const auto& [p, v] : out.decisions) {
    if (proposed.count(v) == 0) return "decided a non-proposed value";
    decided.insert(v);
  }
  if (static_cast<int>(decided.size()) > kProcs - 1) {
    return std::to_string(decided.size()) + " distinct decisions > k";
  }
  return "";
}

std::uint64_t foldResult(std::uint64_t h, const ExploreResult& r) {
  for (const std::uint64_t x :
       {r.schedules_explored, r.sleep_set_skips, r.states_memoized,
        r.memo_hits, r.steps_executed, r.steps_replayed, r.restores,
        r.frontier_jobs, static_cast<std::uint64_t>(r.verified())}) {
    h = fd::mixDigest(h, x);
  }
  for (const std::uint64_t sig : r.outcomeSigs()) h = fd::mixDigest(h, sig);
  return h;
}

void engineLayer(const char* mode, const ExploreResult& r, Metrics& layer) {
  const auto set = [&](const char* m, double v) {
    layer[std::string("explore.") + m + "." + mode] = v;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  set("schedules", d(r.schedules_explored));
  set("steps_executed", d(r.steps_executed));
  set("steps_replayed", d(r.steps_replayed));
  set("replay_ratio", r.steps_executed > 0
                          ? d(r.steps_replayed) / d(r.steps_executed)
                          : 0.0);
  set("restores", d(r.restores));
  set("sleep_set_skips", d(r.sleep_set_skips));
  set("states_memoized", d(r.states_memoized));
  set("memo_hits", d(r.memo_hits));
  set("memo_hit_rate", r.memo_hits + r.states_memoized > 0
                           ? d(r.memo_hits) / d(r.memo_hits + r.states_memoized)
                           : 0.0);
  set("frontier_jobs", d(r.frontier_jobs));
  set("step_utilization", r.frontier_jobs > 0 ? r.stepUtilization() : 0.0);
}

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), quick_(quick), dpor_reps_(quick ? 1 : 4) {}

  void setup() override {
    Rng rng(fd::mixDigest(seed_, 0xE8));
    proposals_ = distinctProposals(rng, kProcs);
    const std::set<Value> proposed(proposals_.begin(), proposals_.end());
    // Upsilon stable from t = 0, so every query is in the post-stabilization
    // epoch and the refined FD relation may commute them.
    const std::uint64_t noise = rng.next();
    dpor_.run.n_plus_1 = kProcs;
    dpor_.run.fd = fd::makeUpsilon(sim::FailurePattern::failureFree(kProcs),
                                   /*stab_time=*/0, noise);
    dpor_.property = [proposed](const sim::ExploreOutcome& o) {
      return fig1Property(o, proposed);
    };
    dpor_.mode = ExploreMode::kDpor;
    dpor_.jobs = kJobs;
    dag_ = dpor_;
    dag_.mode = ExploreMode::kDag;
    dag_.jobs = 0;
    dag_.property = [this, proposed](const sim::ExploreOutcome& o) {
      if (++dag_checks_ % kDagSliceSchedules == 0) {
        dag_marks_.push_back(dag_clock_.seconds());
      }
      return fig1Property(o, proposed);
    };
    // --quick cuts both searches short; a cut search is not a verdict, so
    // quick rounds only check for violations and an unchanged digest.
    if (quick_) {
      dpor_.max_schedules = 20;
      dag_.max_schedules = 400;
    }
    // Warm-up: the frontier kDpor with every job cut after a few schedules,
    // which starts the worker pool and touches each job's prefix once.
    ExploreConfig warm = dpor_;
    warm.max_schedules = 4;
    (void)sim::explore(warm, algo_, proposals_);
  }

  RoundResult round(Tracer* tracer, Metrics* layer) override {
    RoundResult r;
    const WallTimer wall;
    const SpanScope round_span(tracer, "explore.round");
    std::set<std::uint64_t> dpor_sigs;
    double dpor_s = 0;
    double dpor_fastest_s = 0;
    double dag_s = 0;
    for (int i = 0; i < dpor_reps_; ++i) {
      const SpanScope s(tracer, "explore.dpor");
      const WallTimer t;
      const ExploreResult res = sim::explore(dpor_, algo_, proposals_);
      const double call_s = t.seconds();
      dpor_s += call_s;
      if (i == 0 || call_s < dpor_fastest_s) dpor_fastest_s = call_s;
      ++r.ops;
      if (res.verdict != sim::ExploreVerdict::kVerified ||
          (!quick_ && !res.complete)) {
        ++r.failed;
      }
      r.work += static_cast<double>(res.schedules_explored);
      r.digest = foldResult(r.digest, res);
      dpor_sigs = res.outcomeSigs();
      r.detail["dpor_schedules"] = static_cast<double>(res.schedules_explored);
      if (layer != nullptr) engineLayer("dpor", res, *layer);
    }
    // The kDpor calls are the same work, so together they are one slice
    // timed by the fastest of them.
    r.slice_s.push_back(dpor_fastest_s * dpor_reps_);
    {
      const SpanScope s(tracer, "explore.dag");
      dag_checks_ = 0;
      dag_marks_.clear();
      dag_clock_ = WallTimer();
      const ExploreResult res = sim::explore(dag_, algo_, proposals_);
      dag_s = dag_clock_.seconds();
      dag_marks_.push_back(dag_s);
      double last = 0;
      for (const double mark : dag_marks_) {
        r.slice_s.push_back(mark - last);
        last = mark;
      }
      ++r.ops;
      // The two engines must certify the same outcome set.
      const bool ok = quick_ ? res.verdict == sim::ExploreVerdict::kVerified
                             : res.verified() && res.outcomeSigs() == dpor_sigs;
      if (!ok) ++r.failed;
      r.work += static_cast<double>(res.schedules_explored);
      r.digest = foldResult(r.digest, res);
      r.detail["dag_schedules"] = static_cast<double>(res.schedules_explored);
      if (layer != nullptr) engineLayer("dag", res, *layer);
    }
    r.detail["dpor_schedules_per_s"] =
        r.detail["dpor_schedules"] * dpor_reps_ / dpor_s;
    r.detail["dag_schedules_per_s"] = r.detail["dag_schedules"] / dag_s;
    r.seconds = wall.seconds();
    return r;
  }

  [[nodiscard]] int probeProcs() const override { return kProcs; }

 private:
  std::uint64_t seed_;
  bool quick_;
  int dpor_reps_;
  std::vector<Value> proposals_;
  ExploreConfig dpor_;
  ExploreConfig dag_;
  // The kDag call's slice marks, written by its property check.
  std::uint64_t dag_checks_ = 0;
  std::vector<double> dag_marks_;
  WallTimer dag_clock_;
  const sim::AlgoFn algo_ = [](Env& e, Value v) { return fig1Bounded(e, v); };
};

}  // namespace

std::unique_ptr<Workload> makeExploreWorkload(std::uint64_t seed, bool quick) {
  return std::make_unique<ExploreWorkload>(seed, quick);
}

}  // namespace wfd::bench::suite
