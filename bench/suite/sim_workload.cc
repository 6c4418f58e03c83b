// sim: seeded Fig. 1 / Fig. 2 / Fig. 3 runs through runTask, each checked.
//
// The step loop dominates here (policy -> liveness -> coroutine resume ->
// World::execute -> FD query -> trace mix), so only per-step layers can
// move steps/s. Fig. 1/2 are heavy on snapshots and tuples, Fig. 3 on
// scans and Omega queries: the same layers under a different op mix.
#include <optional>

#include "suite.h"

namespace wfd::bench::suite {
namespace {

using sim::Env;
using sim::FailurePattern;

// About 40 ms of runs at the seed commit's step rate.
constexpr Time kSliceSteps = 100'000;

const char* phaseName(int fig) {
  return fig == 1 ? "sim.fig1" : fig == 2 ? "sim.fig2" : "sim.fig3";
}

class SimWorkload final : public Workload {
 public:
  SimWorkload(std::uint64_t seed, bool quick) : seed_(seed) {
    plan_ = quick ? SimPlan{400, 400, 2, 60'000}
                  : SimPlan{8'000, 8'000, 8, 60'000};
  }

  void setup() override { inputs_ = makeSimInputs(seed_, plan_); }

  RoundResult round(Tracer* tracer, Metrics* layer) override {
    if (tracer != nullptr) {
      DriveStats stats;
      RoundResult r = shadowDrive(inputs_, tracer, stats);
      driveStatsToLayer(stats, *layer);
      return r;
    }
    RoundResult r;
    r.op_us.reserve(inputs_.size());
    const WallTimer wall;
    WallTimer slice;
    Time slice_steps = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const SimInput& in = inputs_[i];
      const WallTimer t;
      const sim::RunResult rr =
          sim::runTask(in.cfg, simAlgo(in.fig), in.proposals);
      if (in.fig != 3) r.op_us.push_back(t.seconds() * 1e6);
      ++r.ops;
      if (!simCheck(in, rr)) ++r.failed;
      r.work += static_cast<double>(rr.steps);
      r.digest = fd::mixDigest(r.digest, rr.trace().hash64());
      // Slices end after a fixed amount of simulated work; steps are
      // deterministic, so every round cuts at the same runs.
      slice_steps += rr.steps;
      if (slice_steps >= kSliceSteps || i + 1 == inputs_.size()) {
        r.slice_s.push_back(slice.seconds());
        slice = WallTimer();
        slice_steps = 0;
      }
    }
    r.seconds = wall.seconds();
    return r;
  }

  [[nodiscard]] int probeProcs() const override { return 4; }

 private:
  std::uint64_t seed_;
  SimPlan plan_;
  std::vector<SimInput> inputs_;
};

}  // namespace

std::unique_ptr<Workload> makeSimWorkload(std::uint64_t seed, bool quick) {
  return std::make_unique<SimWorkload>(seed, quick);
}

std::vector<SimInput> makeSimInputs(std::uint64_t seed, const SimPlan& plan) {
  Rng rng(fd::mixDigest(seed, 0x51D));
  std::vector<SimInput> out;
  out.reserve(static_cast<std::size_t>(plan.fig1 + plan.fig2 + plan.fig3));
  // Every draw is sequenced into a local: argument evaluation order is
  // unspecified, and the inputs must not depend on the compiler.
  for (int i = 0; i < plan.fig1; ++i) {
    SimInput in;
    in.fig = 1;
    const int n = 4;
    const auto victim = static_cast<Pid>(rng.below(n));
    const Time at = rng.range(60, 240);
    const Time stab = rng.range(100, 250);
    const std::uint64_t noise = rng.next();
    const auto fp = FailurePattern::withCrashes(n, {{victim, at}});
    in.cfg.n_plus_1 = n;
    in.cfg.fp = fp;
    in.cfg.fd = fd::makeUpsilon(fp, stab, noise);
    in.cfg.seed = rng.next();
    in.proposals = distinctProposals(rng, n);
    out.push_back(std::move(in));
  }
  for (int i = 0; i < plan.fig2; ++i) {
    SimInput in;
    in.fig = 2;
    const int n = 5;
    const auto victim = static_cast<Pid>(rng.below(n));
    const Time at = rng.range(100, 300);
    const Time stab = rng.range(120, 240);
    const std::uint64_t noise = rng.next();
    const auto fp = FailurePattern::withCrashes(n, {{victim, at}});
    in.cfg.n_plus_1 = n;
    in.cfg.fp = fp;
    in.cfg.fd = fd::makeUpsilonF(fp, 2, stab, noise);
    in.cfg.seed = rng.next();
    in.proposals = distinctProposals(rng, n);
    out.push_back(std::move(in));
  }
  for (int i = 0; i < plan.fig3; ++i) {
    SimInput in;
    in.fig = 3;
    const int n = 4;
    const std::uint64_t fp_seed = rng.next();
    const std::uint64_t fd_seed = rng.next();
    const auto fp = FailurePattern::random(n, n - 1, 40, fp_seed);
    in.cfg.n_plus_1 = n;
    in.cfg.fp = fp;
    in.cfg.fd = fd::makeOmega(fp, 100, fd_seed);
    in.cfg.seed = rng.next();
    in.cfg.max_steps = plan.fig3_budget;
    in.proposals = std::vector<Value>(static_cast<std::size_t>(n), 0);
    out.push_back(std::move(in));
  }
  return out;
}

const sim::AlgoFn& simAlgo(int fig) {
  static const sim::AlgoFn fig1 = [](Env& e, Value v) {
    return core::upsilonSetAgreement(e, v);
  };
  static const sim::AlgoFn fig2 = [](Env& e, Value v) {
    return core::upsilonFSetAgreement(e, 2, v);
  };
  static const sim::AlgoFn fig3 = [phi = core::phiOmegaK(4)](Env& e, Value) {
    return core::extractUpsilonF(e, phi);
  };
  return fig == 1 ? fig1 : fig == 2 ? fig2 : fig3;
}

// Fig. 1 solves n-set agreement and Fig. 2 f-set agreement (f = 2); a
// Fig. 3 run must have emulated a legal, stabilized Upsilon^f output by
// the end of its budget (the bench_fig3_extraction check).
bool simCheck(const SimInput& in, const sim::RunResult& rr) {
  switch (in.fig) {
    case 1:
      return core::checkKSetAgreement(rr, in.cfg.n_plus_1 - 1, in.proposals)
          .ok();
    case 2:
      return core::checkKSetAgreement(rr, 2, in.proposals).ok();
    default:
      return core::checkEmulatedUpsilonF(rr, in.cfg.n_plus_1 - 1).ok();
  }
}

RoundResult shadowDrive(const std::vector<SimInput>& inputs, Tracer* tracer,
                        DriveStats& st) {
  RoundResult r;
  const WallTimer wall;
  const SpanScope round_span(tracer, "sim.round");
  std::unique_ptr<SpanScope> phase_span;
  int phase = 0;
  std::uint64_t step_no = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SimInput& in = inputs[i];
    if (in.fig != phase) {
      phase_span.reset();
      phase = in.fig;
      phase_span = std::make_unique<SpanScope>(tracer, phaseName(phase));
    }
    // Spans for a fixed 1-in-64 sample of runs keep the trace small; the
    // timers below cover every run.
    Tracer* const rt = i % 64 == 0 ? tracer : nullptr;
    const SpanScope run_span(rt, "runner.run");

    std::optional<sim::Run> run;
    {
      const SpanScope s(rt, "runner.setup");
      const WallTimer t;
      run.emplace(in.cfg, simAlgo(in.fig), in.proposals);
      st.setup_us += t.seconds() * 1e6;
    }
    // Scheduler::run's loop, call for call; runTask picks RandomPolicy
    // for the default PolicyKind::kRandom every input uses.
    sim::RandomPolicy policy;
    sim::Scheduler& sched = run->scheduler();
    const sim::World& world = run->world();  // model-lint-allow: policy input, as in Scheduler::run
    Time taken = 0;
    {
      const SpanScope drive(rt, "scheduler.drive");
      while (taken < in.cfg.max_steps) {
        if ((step_no++ & 15) == 0) {
          double live_ns = 0;
          bool stop = false;
          ProcSet runnable;
          {
            const SpanScope s(rt, "scheduler.liveness");
            const WallTimer t;
            stop = sched.allCorrectDone();
            runnable = sched.runnable();
            live_ns = t.seconds() * 1e9;
          }
          if (stop || runnable.empty()) break;
          Pid p = -1;
          {
            const SpanScope s(rt, "scheduler.policy");
            const WallTimer t;
            p = policy.next(runnable, world, sched.rng());
            st.policy_ns += t.seconds() * 1e9;
          }
          {
            const SpanScope s(rt, "scheduler.step");
            const WallTimer t;
            sched.step(p);
            st.step_ns += t.seconds() * 1e9;
          }
          st.liveness_ns += live_ns;
          ++st.sampled;
        } else {
          if (sched.allCorrectDone()) break;
          const ProcSet runnable = sched.runnable();
          if (runnable.empty()) break;
          sched.step(policy.next(runnable, world, sched.rng()));
        }
        ++st.op_class[static_cast<int>(world.lastFootprint().cls)];
        ++taken;
      }
    }
    sim::RunResult rr;
    {
      const SpanScope s(rt, "runner.finish");
      const WallTimer t;
      rr = run->finish(taken);
      st.finish_us += t.seconds() * 1e6;
    }
    bool ok = false;
    {
      const SpanScope s(rt, "checkers.check");
      ok = simCheck(in, rr);
    }
    ++r.ops;
    if (!ok) ++r.failed;
    r.work += static_cast<double>(rr.steps);
    r.digest = fd::mixDigest(r.digest, rr.trace().hash64());
    st.steps += rr.steps;
    ++st.runs;
  }
  phase_span.reset();
  r.seconds = wall.seconds();
  return r;
}

void driveStatsToLayer(const DriveStats& st, Metrics& layer) {
  const auto per = [](double sum, long long n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  layer["scheduler.policy_ns"] = per(st.policy_ns, st.sampled);
  layer["scheduler.liveness_ns"] = per(st.liveness_ns, st.sampled);
  layer["scheduler.step_ns"] = per(st.step_ns, st.sampled);
  layer["scheduler.steps"] = static_cast<double>(st.steps);
  layer["runner.setup_us"] = per(st.setup_us, st.runs);
  layer["runner.finish_us"] = per(st.finish_us, st.runs);
  const auto ops = [&st](sim::OpClass c) {
    const auto it = st.op_class.find(static_cast<int>(c));
    return it == st.op_class.end() ? 0.0 : static_cast<double>(it->second);
  };
  layer["world.ops.read"] = ops(sim::OpClass::kRead);
  layer["world.ops.write"] = ops(sim::OpClass::kWrite);
  layer["world.ops.update"] = ops(sim::OpClass::kUpdate);
  layer["world.ops.scan"] = ops(sim::OpClass::kScan);
  layer["world.ops.propose"] = ops(sim::OpClass::kPropose);
  layer["world.ops.noop"] = ops(sim::OpClass::kNone);
  layer["fd.queries"] = ops(sim::OpClass::kFdQuery);
}

}  // namespace wfd::bench::suite
