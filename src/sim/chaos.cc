#include "sim/chaos.h"

#include <algorithm>
#include <string>
#include <variant>

#include "common/rng.h"
#include "fd/axioms.h"

namespace wfd::sim {

bool glitchIsLegal(GlitchKind k) {
  switch (k) {
    case GlitchKind::kNone:
    case GlitchKind::kScrambleNoise:
    case GlitchKind::kDelayStabilization:
      return true;
    case GlitchKind::kEmptyAnswer:
    case GlitchKind::kUndersizedAnswer:
    case GlitchKind::kPostStabFlap:
    case GlitchKind::kStabToCorrect:
    case GlitchKind::kStabExcludeCorrect:
      return false;
  }
  return false;
}

const char* glitchName(GlitchKind k) {
  switch (k) {
    case GlitchKind::kNone: return "none";
    case GlitchKind::kScrambleNoise: return "scramble-noise";
    case GlitchKind::kDelayStabilization: return "delay-stabilization";
    case GlitchKind::kEmptyAnswer: return "empty-answer";
    case GlitchKind::kUndersizedAnswer: return "undersized-answer";
    case GlitchKind::kPostStabFlap: return "post-stab-flap";
    case GlitchKind::kStabToCorrect: return "stab-to-correct";
    case GlitchKind::kStabExcludeCorrect: return "stab-exclude-correct";
  }
  return "?";
}

namespace {

using fd::AxiomSpec;

// The glitch wrapper. Forwards the inner detector's AxiomSpec so the
// online checker judges the perturbed history against the inner claim;
// kDelayStabilization is the one glitch that changes stabilizationTime()
// (honestly — that is what keeps it legal).
class ChaosFd final : public fd::FailureDetector {
 public:
  ChaosFd(fd::FdPtr inner, FdGlitch g, FailurePattern fp, int n_plus_1,
          std::uint64_t engine_seed)
      : inner_(std::move(inner)),
        g_(g),
        fp_(std::move(fp)),
        n_(n_plus_1),
        noise_seed_(g.seed ^ (engine_seed * 0x9E3779B97F4A7C15ULL)) {}

  ProcSet query(Pid p, Time t) const override {
    const ProcSet inner = inner_->query(p, t);
    const AxiomSpec spec = inner_->axioms();
    const Time tau = inner_->stabilizationTime();
    switch (g_.kind) {
      case GlitchKind::kNone:
        return inner;
      case GlitchKind::kScrambleNoise:
        if (spec.family == AxiomSpec::Family::kNone || t >= tau) return inner;
        return noise(spec, p, t);
      case GlitchKind::kDelayStabilization:
        if (spec.family == AxiomSpec::Family::kNone) return inner;
        if (t < tau + g_.delay) return noise(spec, p, t);
        return inner;  // t >= tau + delay >= tau: the inner stable value
      case GlitchKind::kEmptyAnswer:
        return {};
      case GlitchKind::kUndersizedAnswer: {
        const int target = std::max(0, fd::minLegalSize(spec, n_) - 1);
        ProcSet s = inner;
        while (s.size() > target) s.erase(s.min());
        return s;
      }
      case GlitchKind::kPostStabFlap: {
        if (t < tau || t % 2 == 0) return inner;
        ProcSet s;  // rotate the stable set on odd times: constancy breaks
        for (Pid m : inner.members()) s.insert((m + 1) % n_);
        return s;
      }
      case GlitchKind::kStabToCorrect:
        // Upsilon control: the one stable value Upsilon forbids.
        return t >= tau ? fp_.correct() : inner;
      case GlitchKind::kStabExcludeCorrect: {
        // Omega^k control: a stable k-set of faulty processes only.
        if (t < tau) return inner;
        const int want = spec.family == AxiomSpec::Family::kOmegaK
                             ? fd::minLegalSize(spec, n_)
                             : std::max(1, inner.size());
        ProcSet s;
        for (Pid m : fp_.faulty().members()) {
          if (s.size() >= want) break;
          s.insert(m);
        }
        // Pad from Pi if the pattern lacks enough faulty processes (the
        // control is then weakened; configurations pre-seed crashes).
        for (Pid m = 0; m < n_ && s.size() < want; ++m) s.insert(m);
        return s;
      }
    }
    return inner;
  }

  [[nodiscard]] std::string name() const override {
    return std::string("Chaos[") + glitchName(g_.kind) + "](" +
           inner_->name() + ")";
  }

  [[nodiscard]] Time stabilizationTime() const override {
    const Time tau = inner_->stabilizationTime();
    if (g_.kind != GlitchKind::kDelayStabilization) return tau;
    return tau > kNeverCrashes - g_.delay ? kNeverCrashes : tau + g_.delay;
  }

  [[nodiscard]] AxiomSpec axioms() const override { return inner_->axioms(); }

 private:
  // Fresh in-range noise for (p, t), salted per process like UpsilonFd's.
  ProcSet noise(const AxiomSpec& spec, Pid p, Time t) const {
    return fd::legalNoise(spec, n_, noise_seed_,
                          static_cast<std::uint64_t>(p) + 1, t);
  }

  fd::FdPtr inner_;
  FdGlitch g_;
  FailurePattern fp_;
  int n_;
  std::uint64_t noise_seed_;
};

}  // namespace

fd::FdPtr ChaosEngine::wrapFd(fd::FdPtr inner, const FailurePattern& fp,
                              int n_plus_1) const {
  if (inner == nullptr || cfg_.glitch.kind == GlitchKind::kNone) return inner;
  return std::make_shared<ChaosFd>(std::move(inner), cfg_.glitch, fp, n_plus_1,
                                   cfg_.seed);
}

RunConfig ChaosEngine::arm(RunConfig cfg) const {
  if (cfg_.glitch.kind != GlitchKind::kNone) {
    cfg.fd = wrapFd(std::move(cfg.fd),
                    cfg.fp.value_or(FailurePattern::failureFree(cfg.n_plus_1)),
                    cfg.n_plus_1);
  }
  if (!cfg.audit.has_value()) cfg.audit = AuditMode::kThrow;
  return cfg;
}

void ChaosEngine::plan(World& world) {
  planned_ = true;
  const int n = world.nProcs();
  std::size_t idx = 0;
  for (const CrashInjection& c : cfg_.crashes) {
    ++idx;
    switch (c.strategy) {
      case CrashInjection::Strategy::kAtTime:
        timed_.push_back({c.at, c.victim, false});
        break;
      case CrashInjection::Strategy::kRandom: {
        Rng rng(cfg_.seed ^ c.seed ^ (idx * 0xA24BAED4963EE407ULL));
        for (int i = 0; i < c.count; ++i) {
          const Pid victim =
              static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)));
          const Time at = rng.range(0, std::max<Time>(c.horizon, 0));
          timed_.push_back({at, victim, false});
        }
        break;
      }
      case CrashInjection::Strategy::kFdLeader:
        leader_.push_back({c.at, false});
        break;
      case CrashInjection::Strategy::kOnDecide:
        on_decide_left_ += c.count;
        break;
    }
  }
}

bool ChaosEngine::tryCrash(World& world, Pid victim) {
  if (victim < 0 || victim >= world.nProcs()) return false;
  if (cfg_.max_faulty <= 0) return false;
  if (cfg_.protected_pids.contains(victim)) return false;
  const FailurePattern& fp = world.pattern();
  if (fp.crashTime(victim) <= world.now()) return false;  // already down
  if (fp.isCorrect(victim)) {
    // Turning a correct process faulty must respect the environment:
    // |faulty(F')| <= max_faulty and at least one correct process left.
    if (fp.faulty().size() + 1 > cfg_.max_faulty) return false;
    if (fp.correct().size() <= 1) return false;
  }
  // else: the victim was already scheduled to crash later; advancing its
  // crash to now leaves faulty(F') unchanged — always within budget.
  world.injectCrash(victim);
  ++crashes_injected_;
  return true;
}

void ChaosEngine::captureScans(World& world, const Scheduler& sched) {
  const StaleSnapshot& ss = *cfg_.stale_snapshot;
  for (Pid p = 0; p < world.nProcs(); ++p) {
    const ProcCtx& c = sched.ctx(p);
    if (c.done || !c.pending.has_value()) continue;
    const auto* s = std::get_if<OpSnapScan>(&*c.pending);
    if (s == nullptr) continue;
    const auto key = std::make_pair(p, s->obj);
    // One decision per scan REQUEST: the owner's step count is frozen
    // until the scan executes, so it identifies the request however many
    // beforeStep calls see it pending. The first call runs before any
    // other process steps after the request, so the captured view IS the
    // request-time memory.
    if (const auto it = scan_decided_.find(key);
        it != scan_decided_.end() && it->second == c.steps) {
      continue;
    }
    scan_decided_[key] = c.steps;
    if (hashedUniform(cfg_.seed ^ ss.seed ^ 0x5CA1E5CA1ED0ULL,
                      static_cast<std::uint64_t>(p) + 1,
                      static_cast<std::uint64_t>(c.steps) * 0x100001B3ULL +
                          static_cast<std::uint64_t>(s->obj),
                      1000) >= static_cast<std::uint64_t>(ss.permille)) {
      continue;
    }
    SlotArray view = world.objectsConst().peekSlots(s->obj);
    SlotArray serve = view;
    if (ss.illegal_past) {
      // Negative control: serve the view captured at this process's
      // previous overridden scan of the object — possibly older than
      // updates that completed before this scan began.
      if (const auto pit = scan_prev_.find(key); pit != scan_prev_.end()) {
        serve = pit->second;
      }
    }
    scan_prev_[key] = view;
    world.serveScan(p, s->obj, std::move(serve), std::move(view));
  }
}

void ChaosEngine::beforeStep(World& world, const Scheduler& sched) {
  if (!planned_) plan(world);
  const Time now = world.now();
  if (wantsStaleScans()) captureScans(world, sched);

  for (TimedCrash& c : timed_) {
    if (!c.fired && c.at <= now) {
      c.fired = true;
      tryCrash(world, c.victim);
    }
  }

  for (LeaderCrash& c : leader_) {
    if (c.fired || c.at > now) continue;
    c.fired = true;
    if (world.fd() == nullptr) continue;
    // The adversary reads the current FD output as the smallest live
    // process sees it (zero simulated cost: the adversary sees
    // everything) and kills the smallest member — the pid an adopt-min
    // k-converge round is about to crown leader.
    const Pid observer = world.pattern().crashedBy(now).complement(
        world.nProcs()).min();
    if (observer < 0) continue;
    const ProcSet out = world.fd()->query(observer, now);
    for (Pid m : out.members()) {
      if (tryCrash(world, m)) break;
    }
  }

  if (on_decide_left_ > 0) {
    // Re-read the events every pass: a crash records a note, which may
    // move the trace to a fresh event vector.
    for (; decide_scan_ < world.trace().events().size(); ++decide_scan_) {
      const Event& e = world.trace().events()[decide_scan_];
      if (e.kind == EventKind::kDecide && on_decide_left_ > 0 &&
          tryCrash(world, e.pid)) {
        --on_decide_left_;
      }
    }
  }
}

ProcSet ChaosEngine::filter(const ProcSet& runnable, const World& world,
                            const Scheduler& sched) const {
  ProcSet out = runnable;
  const Time now = world.now();
  for (const StarvationWindow& w : cfg_.starvation) {
    if (now >= w.from && now < w.from + w.length) out = out.minus(w.victims);
  }
  if (cfg_.op_delay.has_value()) {
    const OpDelay& d = *cfg_.op_delay;
    const Time period = std::max<Time>(d.period, 1);
    if (now % period < d.hold) {
      const auto window = static_cast<std::uint64_t>(now / period);
      for (Pid p : out.members()) {
        const std::optional<Op>& pending = sched.ctx(p).pending;
        if (!pending.has_value()) continue;
        const bool shared_mem = !std::holds_alternative<OpNoop>(*pending) &&
                                !std::holds_alternative<OpFdQuery>(*pending);
        if (!shared_mem) continue;
        if (hashedUniform(d.seed ^ cfg_.seed,
                          static_cast<std::uint64_t>(p) + 1, window, 2) == 0) {
          out.erase(p);
        }
      }
    }
  }
  // Bias, not deadlock: if every runnable process is being starved the
  // filter yields (the model's schedules always pick SOME live process).
  return out.empty() ? runnable : out;
}

RunReport runChaosTask(const RunConfig& cfg, const ChaosConfig& chaos,
                       const WatchdogConfig& wd, const AlgoFn& algo,
                       const std::vector<Value>& proposals) {
  ChaosEngine engine(chaos);
  Run run(engine.arm(cfg), algo, proposals);
  const std::unique_ptr<SchedulePolicy> policy = makePolicy(cfg.policy);
  return driveWatched(run, *policy, wd, &engine);
}

}  // namespace wfd::sim
