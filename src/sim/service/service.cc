#include "sim/service/service.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/omega_k_set_agreement.h"
#include "core/upsilon_f_set_agreement.h"
#include "core/upsilon_set_agreement.h"
#include "fd/omega.h"
#include "fd/upsilon.h"

namespace wfd::sim::service {

namespace {

// Client command encoding: client c's i-th accepted command is
// c * kCmdStride + i — globally unique and human-decodable in dumps.
constexpr Value kCmdStride = 1'000'000;
// kLogDivergence corruption offset: far outside the command space, so a
// corrupted entry can never collide with a legitimately proposed command
// (which would mask the seeded bug from the validity check).
constexpr Value kBugOffset = 1'000'000'000'000LL;

// Which chaos injector a segment fires (docs/SERVICE.md campaign matrix).
enum class Injector { kNone, kCrash, kStarve, kGlitch, kLink, kStale };

const char* injectorName(Injector i) {
  switch (i) {
    case Injector::kNone: return "none";
    case Injector::kCrash: return "crash";
    case Injector::kStarve: return "starvation";
    case Injector::kGlitch: return "fd_glitch";
    case Injector::kLink: return "link_faults";
    case Injector::kStale: return "stale_snapshot";
  }
  return "?";
}

// ---- Segment algorithm ---------------------------------------------------

// Every replica slot runs its per-instance proposals in order through the
// protocol's instance form (object keys carry the GLOBAL instance index,
// so a retried instance in a fresh world reuses its index safely) and
// notes each decided value as "c<local_index>". The service commits from
// these notes; env.decide is deliberately not used — per-instance safety
// is the service checker's job, with the watchdog's one-shot safety_k
// semantics disabled.
// A free coroutine, NOT a coroutine lambda: its parameters are copied
// into the coroutine frame, so the frames stay valid however the AlgoFn
// closure that spawned them is moved or destroyed.
Coro<Unit> serviceWorker(
    Env& env, Protocol proto, int f, long long base,
    std::shared_ptr<const std::vector<std::vector<Value>>> props) {
  {
    const auto& mine = (*props)[static_cast<std::size_t>(env.me())];
    for (std::size_t s = 0; s < mine.size(); ++s) {
      const int inst = static_cast<int>(base + static_cast<long long>(s));
      Value got = kBottomValue;
      switch (proto) {
        case Protocol::kOmegaConsensus:
          got = co_await core::omegaKSetAgreementInstance(env, 1, inst,
                                                          mine[s]);
          break;
        case Protocol::kFig1Upsilon:
          got = co_await core::upsilonSetAgreementInstance(env, inst, mine[s]);
          break;
        case Protocol::kFig2UpsilonF:
          got = co_await core::upsilonFSetAgreementInstance(env, f, inst,
                                                            mine[s]);
          break;
      }
      env.note("c" + std::to_string(s), RegVal(got));
    }
  }
  co_return Unit{};
}

AlgoFn makeServiceAlgo(
    Protocol proto, int f, long long base,
    std::shared_ptr<const std::vector<std::vector<Value>>> props) {
  return [proto, f, base, props](Env& env, Value) {
    return serviceWorker(env, proto, f, base, props);
  };
}

// ---- Segment driver ------------------------------------------------------

// Prepared, drivable segment attempt: `len` instances proposing
// props[slot][s], the optional chaos engine armed into the Run, and the
// schedule policy that drives it.
struct Segment {
  int len = 0;
  Injector injector = Injector::kNone;
  std::shared_ptr<std::vector<std::vector<Value>>> props;  // [slot][s]
  std::unique_ptr<ChaosEngine> engine;
  std::unique_ptr<Run> run;
  std::unique_ptr<SchedulePolicy> policy;
};

struct SegmentOutcome {
  RunVerdict verdict = RunVerdict::kOk;
  std::string detail;
  Time steps = 0;
  std::uint64_t trace_hash = 0;
  std::optional<FailurePattern> fp;  // pattern at segment end
  // noted[slot][s]: decided value (kBottomValue = never noted) and the
  // world time the note landed.
  std::vector<std::vector<Value>> noted;
  std::vector<std::vector<Time>> note_step;
};

// Drives a segment that is `done_steps` steps in to a verdict, then reads
// the commit notes ("c<s>", s < len; the last one per slot and instance
// wins) off the finished trace. The budget counts from segment start, so
// a sweep variant resumed at a boundary gets what the base pass had left
// there; its restored trace already holds the prefix's notes.
SegmentOutcome driveSegment(Segment& seg, WatchdogConfig wd,
                            Time done_steps = 0) {
  wd.step_budget -= done_steps;
  const RunReport rep =
      driveToVerdict(*seg.run, *seg.policy, wd, seg.engine.get());
  const World& world = seg.run->world();
  const auto len = static_cast<std::size_t>(seg.len);
  const std::size_t group = seg.props->size();
  SegmentOutcome out{rep.verdict,
                     rep.detail,
                     done_steps + rep.steps,
                     world.trace().hash64(),
                     world.pattern(),
                     std::vector(group, std::vector<Value>(len, kBottomValue)),
                     std::vector(group, std::vector<Time>(len, 0))};
  for (const Event& e : world.trace().events()) {
    if (e.kind != EventKind::kNote || !e.label.starts_with('c')) continue;
    const char* end = e.label.data() + e.label.size();
    std::size_t s = 0;
    const auto [ptr, ec] = std::from_chars(e.label.data() + 1, end, s);
    if (ec != std::errc{} || ptr != end || s >= len) continue;
    const auto slot = static_cast<std::size_t>(e.pid);
    out.noted[slot][s] = e.value.asInt();
    out.note_step[slot][s] = e.time;
  }
  return out;
}

// ---- Service driver ------------------------------------------------------

class ServiceDriver {
 public:
  // Everything mutable lives in State so the crash sweep can snapshot and
  // fork the whole service at a segment boundary with one copy.
  struct State {
    std::deque<Value> inbox;
    std::vector<long long> next_seq;  // per client
    std::vector<int> active;          // slot -> rid
    int next_rid = 0;
    std::vector<ReplicaLog> logs;  // indexed by rid
    std::vector<Value> canonical;
    long long committed = 0;
    long long seg_counter = 0;  // segment ATTEMPTS (retries included)
    int retries_here = 0;       // consecutive retries at this commit point
    std::vector<long long> latencies;
    ServiceStats stats;
    std::uint64_t hash = 0;
    ServiceVerdict verdict = ServiceVerdict::kOk;
    std::string detail;
  };

  explicit ServiceDriver(const ServiceConfig& cfg) : cfg_(cfg) {
    validate();
    st_.next_seq.assign(static_cast<std::size_t>(cfg_.clients), 0);
    st_.hash = mixDigest(0x5EAC, cfg_.digest());
    for (int slot = 0; slot < cfg_.group; ++slot) {
      st_.active.push_back(slot);
      st_.logs.push_back(ReplicaLog{slot, slot, 0, {}, false});
    }
    st_.next_rid = cfg_.group;
  }

  State& state() { return st_; }
  const ServiceConfig& config() const { return cfg_; }

  void runToCompletion(State& st) {
    while (st.verdict == ServiceVerdict::kOk && st.committed < cfg_.instances) {
      runOneSegment(st);
    }
  }

  void runOneSegment(State& st) {
    refillInbox(st);
    Segment seg = prepareSegment(st);
    harvestSegment(st, seg, driveSegment(seg, segmentWatchdog(seg.len)));
  }

  // Clients collectively offer one inbox-capacity worth of commands per
  // segment attempt; whatever the bounded inbox cannot admit is rejected
  // (backpressure). A command value is only minted on admission, so
  // rejected offers do not consume sequence numbers.
  void refillInbox(State& st) {
    const auto cap = static_cast<long long>(cfg_.segment_len) * cfg_.group;
    for (long long i = 0; i < cap; ++i) {
      const auto c = static_cast<std::size_t>(
          (st.seg_counter + i) % static_cast<long long>(cfg_.clients));
      ++st.stats.submitted;
      if (static_cast<long long>(st.inbox.size()) < cap) {
        st.inbox.push_back(static_cast<Value>(c) * kCmdStride +
                           st.next_seq[c]++);
        ++st.stats.accepted;
      } else {
        ++st.stats.rejected;
      }
    }
  }

  // A segment gets slack + len * instance budget steps, and livelocks
  // when a whole instance budget passes with no new trace event.
  [[nodiscard]] WatchdogConfig segmentWatchdog(int len) const {
    WatchdogConfig wd;
    wd.step_budget = cfg_.segment_budget_slack +
                     cfg_.instance_step_budget * static_cast<Time>(len);
    wd.livelock_window = cfg_.instance_step_budget;
    return wd;
  }

  // Pure function of (cfg, st): build the next segment attempt. Instance
  // s of the segment proposes the pairwise-disjoint inbox slice
  // inbox[s*group .. s*group+group-1], one command per replica slot, so
  // no command can commit twice within a segment.
  [[nodiscard]] Segment prepareSegment(const State& st) {
    Segment seg;
    RunConfig run_cfg;
    seg.len = static_cast<int>(
        std::min<long long>(cfg_.segment_len, cfg_.instances - st.committed));
    assert(static_cast<long long>(st.inbox.size()) >=
           static_cast<long long>(seg.len) * cfg_.group);

    seg.props = std::make_shared<std::vector<std::vector<Value>>>(
        static_cast<std::size_t>(cfg_.group),
        std::vector<Value>(static_cast<std::size_t>(seg.len), 0));
    for (int s = 0; s < seg.len; ++s) {
      for (int slot = 0; slot < cfg_.group; ++slot) {
        (*seg.props)[static_cast<std::size_t>(slot)]
                    [static_cast<std::size_t>(s)] =
            st.inbox[static_cast<std::size_t>(s) *
                         static_cast<std::size_t>(cfg_.group) +
                     static_cast<std::size_t>(slot)];
      }
    }

    const std::uint64_t sseed =
        mixDigest(cfg_.seed, static_cast<std::uint64_t>(st.seg_counter) + 1);
    run_cfg.n_plus_1 = cfg_.group;
    run_cfg.seed = sseed;
    run_cfg.max_steps = segmentWatchdog(seg.len).step_budget;
    run_cfg.policy = PolicyKind::kRandom;

    // Injector cadence: one legal injector per `period` attempts,
    // rotating through the enabled kinds.
    seg.injector = pickInjector(st.seg_counter);
    const std::uint64_t iseed =
        mixDigest(cfg_.chaos.seed ^ 0xAB1E,
                  static_cast<std::uint64_t>(st.seg_counter));

    // Failure pattern. Crash segments in the Upsilon protocols pre-seed
    // one crash so the detector's stable set is Pi — then Pi != correct(F')
    // survives ANY further injected crash (the D(F') legality side of the
    // chaos contract; fd/upsilon.h defaultStableSet). Omega crash segments
    // instead protect the stable leader (lowest id, pid 0).
    const bool upsilon_family = cfg_.protocol != Protocol::kOmegaConsensus;
    const bool preseed = seg.injector == Injector::kCrash && upsilon_family;
    FailurePattern fp =
        preseed ? FailurePattern::withCrashes(cfg_.group, {{cfg_.group - 1, 60}})
                : FailurePattern::failureFree(cfg_.group);
    run_cfg.fp = fp;

    // Detector. Realized histories are cached per (pattern, NetConfig):
    // every ordinary segment of a realized stream shares ONE heartbeat
    // simulation; only link-fault segments pay for a fresh one.
    if (cfg_.detector == DetectorSource::kConstructed) {
      const std::uint64_t nseed = mixDigest(sseed, 0xFD);
      switch (cfg_.protocol) {
        case Protocol::kOmegaConsensus:
          run_cfg.fd = fd::makeOmega(fp, cfg_.stab, nseed);
          break;
        case Protocol::kFig1Upsilon:
          run_cfg.fd = fd::makeUpsilon(fp, cfg_.stab, nseed);
          break;
        case Protocol::kFig2UpsilonF:
          run_cfg.fd = fd::makeUpsilonF(fp, cfg_.f, cfg_.stab, nseed);
          break;
      }
    } else {
      net::NetConfig nc = cfg_.net;
      if (seg.injector == Injector::kLink) {
        nc.faults.drop_permille = std::min(
            1000, nc.faults.drop_permille + 120 + static_cast<int>(iseed % 180));
        nc.faults.partitions += 1 + static_cast<int>((iseed >> 8) % 2);
      }
      switch (cfg_.protocol) {
        case Protocol::kOmegaConsensus:
          run_cfg.fd = cache_.netOmega(fp, nc);
          break;
        case Protocol::kFig1Upsilon:
          run_cfg.fd = cache_.netUpsilonF(fp, cfg_.group - 1, nc);
          break;
        case Protocol::kFig2UpsilonF:
          run_cfg.fd = cache_.netUpsilonF(fp, cfg_.f, nc);
          break;
      }
    }

    // Chaos engine configuration per injector kind.
    if (seg.injector != Injector::kNone && seg.injector != Injector::kLink) {
      ChaosConfig cc;
      cc.seed = iseed;
      switch (seg.injector) {
        case Injector::kCrash: {
          cc.max_faulty = cfg_.f;
          if (!upsilon_family) cc.protected_pids = ProcSet::singleton(0);
          const int count = upsilon_family ? cfg_.f - 1 : cfg_.f;
          if (count > 0) {
            // Horizon scaled to the segment's expected step count so the
            // seeded crash time usually lands while the segment is live.
            const Time horizon =
                60 + 20 * static_cast<Time>(seg.len);
            cc.crashes.push_back({CrashInjection::Strategy::kRandom, -1, 0,
                                  horizon, count, mixDigest(iseed, 0xC4)});
          }
          break;
        }
        case Injector::kStarve: {
          const Pid victim =
              static_cast<Pid>(iseed % static_cast<std::uint64_t>(cfg_.group));
          cc.starvation.push_back(
              {ProcSet::singleton(victim),
               static_cast<Time>(200 + iseed % 1500),
               static_cast<Time>(300 + (iseed >> 8) % 600)});
          break;
        }
        case Injector::kGlitch:
          cc.glitch = {((iseed >> 4) & 1) != 0
                           ? GlitchKind::kScrambleNoise
                           : GlitchKind::kDelayStabilization,
                       /*delay=*/96, mixDigest(iseed, 0x61)};
          break;
        case Injector::kStale:
          cc.stale_snapshot =
              StaleSnapshot{250, mixDigest(iseed, 0x57), false};
          break;
        default:
          break;
      }
      assert(cc.legal());
      seg.engine = std::make_unique<ChaosEngine>(cc);
      run_cfg = seg.engine->arm(run_cfg);
    }

    const AlgoFn algo = makeServiceAlgo(cfg_.protocol, cfg_.f, st.committed,
                                        seg.props);
    std::vector<Value> inputs;
    for (int slot = 0; slot < cfg_.group; ++slot) {
      inputs.push_back((*seg.props)[static_cast<std::size_t>(slot)][0]);
    }
    seg.run = std::make_unique<Run>(run_cfg, algo, inputs);
    seg.policy = makePolicy(run_cfg.policy);
    return seg;
  }

  // Externalize the all-live-committed prefix of the segment, check log
  // safety, retire/replace crashed replicas, and schedule retries.
  void harvestSegment(State& st, const Segment& seg,
                      const SegmentOutcome& out) {
    ++st.seg_counter;
    ++st.stats.segments;
    st.stats.steps += out.steps;
    st.hash = mixDigest(st.hash, out.trace_hash);
    if (seg.injector != Injector::kNone) {
      ++st.stats.injector_fires[injectorName(seg.injector)];
    }
    if (seg.engine != nullptr) {
      st.stats.injected_crashes += seg.engine->crashesInjected();
    }

    if (out.verdict == RunVerdict::kAxiomViolation ||
        out.verdict == RunVerdict::kSafetyViolation) {
      st.verdict = ServiceVerdict::kInstanceViolation;
      st.detail = std::string("inner run flagged (") +
                  runVerdictName(out.verdict) + "): " + out.detail;
      return;
    }

    std::vector<int> live;
    std::vector<int> crashed;
    for (int slot = 0; slot < cfg_.group; ++slot) {
      if (out.fp->isCorrect(slot)) {
        live.push_back(slot);
      } else {
        crashed.push_back(slot);
      }
    }

    // Commit point: the prefix every LIVE replica has applied.
    int m = 0;
    while (m < seg.len) {
      bool all = true;
      for (const int slot : live) {
        if (out.noted[static_cast<std::size_t>(slot)]
                     [static_cast<std::size_t>(m)] == kBottomValue) {
          all = false;
          break;
        }
      }
      if (!all) break;
      ++m;
    }

    const int k_bound = cfg_.kBound();
    Time prev_tick = 0;
    for (int s = 0; s < m; ++s) {
      const long long g = st.committed + static_cast<long long>(s);
      // All applied values for this instance — crashed replicas included:
      // a decide-then-die value is externalized too and must obey the
      // same bound (uniform agreement, like core/checkers.h).
      std::vector<std::pair<int, Value>> vals;  // (slot, value)
      for (int slot = 0; slot < cfg_.group; ++slot) {
        const Value v = out.noted[static_cast<std::size_t>(slot)]
                                 [static_cast<std::size_t>(s)];
        if (v != kBottomValue) vals.emplace_back(slot, v);
      }
      // Seeded negative-control defect: corrupt the first live replica's
      // applied value at the target instance BEFORE the checks run.
      if (cfg_.bug == ServiceBug::kLogDivergence &&
          g == static_cast<long long>(
                   cfg_.bug_seed %
                   static_cast<std::uint64_t>(cfg_.instances))) {
        for (auto& sv : vals) {
          if (out.fp->isCorrect(sv.first)) {
            sv.second += kBugOffset;
            break;
          }
        }
      }

      // Log safety: <= k distinct applied values, each actually proposed
      // for this instance.
      std::vector<Value> distinct;
      for (const auto& sv : vals) {
        if (std::find(distinct.begin(), distinct.end(), sv.second) ==
            distinct.end()) {
          distinct.push_back(sv.second);
        }
      }
      if (static_cast<int>(distinct.size()) > k_bound) {
        st.verdict = ServiceVerdict::kLogDivergence;
        st.detail = "instance " + std::to_string(g) + " committed " +
                    std::to_string(distinct.size()) +
                    " distinct values (k bound " + std::to_string(k_bound) +
                    ")";
        return;
      }
      for (const auto& sv : vals) {
        bool proposed = false;
        for (int slot = 0; slot < cfg_.group; ++slot) {
          if ((*seg.props)[static_cast<std::size_t>(slot)]
                          [static_cast<std::size_t>(s)] == sv.second) {
            proposed = true;
            break;
          }
        }
        if (!proposed) {
          st.verdict = ServiceVerdict::kLogDivergence;
          st.detail = "instance " + std::to_string(g) + ": replica slot " +
                      std::to_string(sv.first) +
                      " applied a value never proposed for it";
          return;
        }
      }

      // Externalize: canonical entry is the minimum applied value (the
      // unique value for k = 1); each replica's log gets ITS OWN applied
      // value, so k > 1 logs legitimately differ within the bound.
      Value entry = vals.front().second;
      for (const auto& sv : vals) entry = std::min(entry, sv.second);
      st.canonical.push_back(entry);
      st.hash = mixDigest(st.hash, static_cast<std::uint64_t>(g));
      Time tick = 0;
      for (const auto& sv : vals) {
        st.logs[static_cast<std::size_t>(
                    st.active[static_cast<std::size_t>(sv.first)])]
            .entries.push_back(sv.second);
        ++st.stats.replica_decisions;
        st.hash = mixDigest(st.hash, static_cast<std::uint64_t>(sv.second));
      }
      for (const int slot : live) {
        tick = std::max(tick, out.note_step[static_cast<std::size_t>(slot)]
                                           [static_cast<std::size_t>(s)]);
      }
      st.latencies.push_back(static_cast<long long>(tick - prev_tick));
      prev_tick = tick;
      // Consume committed commands; undecided proposals stay pending and
      // are re-proposed by a later segment.
      for (const Value v : distinct) {
        const auto it = std::find(st.inbox.begin(), st.inbox.end(), v);
        if (it != st.inbox.end()) st.inbox.erase(it);
      }
    }
    st.committed += m;

    // Replacement accounting: crashed replicas are retired; fresh replica
    // ids join at the current commit index (state transfer: the canonical
    // prefix is implicit in ReplicaLog::start).
    if (static_cast<int>(crashed.size()) > cfg_.f) {
      st.verdict = ServiceVerdict::kReplacementOverrun;
      st.detail = std::to_string(crashed.size()) +
                  " replicas crashed in one segment (f budget " +
                  std::to_string(cfg_.f) + ")";
      return;
    }
    for (const int slot : crashed) {
      st.logs[static_cast<std::size_t>(
                  st.active[static_cast<std::size_t>(slot)])]
          .retired = true;
      const int rid = st.next_rid++;
      st.logs.push_back(ReplicaLog{rid, slot, st.committed, {}, false});
      st.active[static_cast<std::size_t>(slot)] = rid;
      ++st.stats.replacements;
      st.hash = mixDigest(mixDigest(st.hash, 0x9E9),
                          static_cast<std::uint64_t>(rid));
    }

    // No-gap liveness: a partial commit is retried (bumped seed via
    // seg_counter) until the commit point moves past the segment, at most
    // max_retries consecutive times.
    if (m < seg.len) {
      if (++st.retries_here > cfg_.max_retries) {
        st.verdict = ServiceVerdict::kStalled;
        st.detail = "commit point stuck at instance " +
                    std::to_string(st.committed) + " after " +
                    std::to_string(cfg_.max_retries) +
                    " retries (last segment: " + runVerdictName(out.verdict) +
                    ")";
        return;
      }
      ++st.stats.retries;
    } else {
      st.retries_here = 0;
    }
  }

  [[nodiscard]] ServiceReport finalize(const State& st) const {
    ServiceReport rep;
    rep.verdict = st.verdict;
    rep.detail = st.detail;
    rep.stats = st.stats;
    rep.stats.committed = st.committed;
    rep.canonical = st.canonical;
    rep.logs = st.logs;

    // Belt-and-braces final check (consensus streams): every replica log
    // must be the canonical-log slice [start, start + entries).
    if (rep.verdict == ServiceVerdict::kOk && cfg_.kBound() == 1) {
      for (const ReplicaLog& rl : rep.logs) {
        if (rl.start + static_cast<long long>(rl.entries.size()) >
            static_cast<long long>(rep.canonical.size())) {
          rep.verdict = ServiceVerdict::kLogDivergence;
          rep.detail = "replica r" + std::to_string(rl.rid) +
                       " log runs past the canonical log";
          break;
        }
        for (std::size_t i = 0; i < rl.entries.size(); ++i) {
          if (rl.entries[i] !=
              rep.canonical[static_cast<std::size_t>(rl.start) + i]) {
            rep.verdict = ServiceVerdict::kLogDivergence;
            rep.detail = "replica r" + std::to_string(rl.rid) +
                         " diverges from the canonical log at index " +
                         std::to_string(rl.start +
                                        static_cast<long long>(i));
            break;
          }
        }
        if (rep.verdict != ServiceVerdict::kOk) break;
      }
    }

    std::vector<long long> lat = st.latencies;
    std::sort(lat.begin(), lat.end());
    rep.stats.lat_p50 = percentile(lat, 0.50);
    rep.stats.lat_p99 = percentile(lat, 0.99);
    rep.service_hash =
        mixDigest(mixDigest(st.hash, static_cast<std::uint64_t>(st.committed)),
                  static_cast<std::uint64_t>(rep.verdict));
    return rep;
  }

 private:
  void validate() const {
    if (cfg_.group < 2 || cfg_.group > kMaxProcs) {
      throw SimAbort("service: group must be in [2, kMaxProcs]");
    }
    if (cfg_.f < 1 || cfg_.f > cfg_.group - 1) {
      throw SimAbort("service: f must be in [1, group-1]");
    }
    if (cfg_.instances < 1 || cfg_.segment_len < 1 || cfg_.clients < 1) {
      throw SimAbort("service: instances, segment_len, clients must be >= 1");
    }
  }

  [[nodiscard]] Injector pickInjector(long long seg_counter) const {
    const ChaosPlan& cp = cfg_.chaos;
    if (cp.period <= 0 || (seg_counter % cp.period) != cp.period - 1) {
      return Injector::kNone;
    }
    std::vector<Injector> kinds;
    // Crash legality needs either a constructed detector (stable set
    // pinned by the pre-seeded crash / protected leader) or the realized
    // Omega lens (eventual leader 0 protected); realized Upsilon streams
    // skip crash segments rather than risk an illegal history.
    const bool crash_ok =
        cfg_.detector == DetectorSource::kConstructed ||
        cfg_.protocol == Protocol::kOmegaConsensus;
    if (crash_ok) kinds.push_back(Injector::kCrash);
    kinds.push_back(Injector::kStarve);
    kinds.push_back(Injector::kGlitch);
    if (cfg_.detector == DetectorSource::kRealizedNet) {
      kinds.push_back(Injector::kLink);
    }
    if (cp.stale_snapshot) kinds.push_back(Injector::kStale);
    return kinds[static_cast<std::size_t>(
        (seg_counter / cp.period) %
        static_cast<long long>(kinds.size()))];
  }

  static double percentile(const std::vector<long long>& sorted, double p) {
    if (sorted.empty()) return 0;
    const auto idx = static_cast<std::size_t>(
        (static_cast<double>(sorted.size() - 1)) * p + 0.5);
    return static_cast<double>(sorted[idx]);
  }

  const ServiceConfig cfg_;
  FdCache cache_;
  State st_;
};

}  // namespace

const char* serviceVerdictName(ServiceVerdict v) {
  switch (v) {
    case ServiceVerdict::kOk: return "ok";
    case ServiceVerdict::kLogDivergence: return "log_divergence";
    case ServiceVerdict::kInstanceViolation: return "instance_violation";
    case ServiceVerdict::kStalled: return "stalled";
    case ServiceVerdict::kReplacementOverrun: return "replacement_overrun";
  }
  return "?";
}

ServiceReport runService(const ServiceConfig& cfg) {
  ServiceDriver d(cfg);
  d.runToCompletion(d.state());
  return d.finalize(d.state());
}

bool SweepReport::allOk() const {
  for (const SweepVariant& v : variants) {
    if (v.verdict != ServiceVerdict::kOk) return false;
  }
  return !variants.empty();
}

SweepReport runCrashSweep(const ServiceConfig& cfg) {
  if (cfg.protocol != Protocol::kOmegaConsensus ||
      cfg.detector != DetectorSource::kConstructed ||
      cfg.chaos.period != 0 || cfg.bug != ServiceBug::kNone) {
    throw SimAbort(
        "runCrashSweep requires kOmegaConsensus + kConstructed, no chaos "
        "plan and no seeded bug");
  }
  ServiceDriver d(cfg);
  SweepReport rep;
  ServiceDriver::State& st = d.state();
  while (st.verdict == ServiceVerdict::kOk && st.committed < cfg.instances) {
    d.refillInbox(st);
    const ServiceDriver::State entry = st;  // fork point for the variants
    Segment seg = d.prepareSegment(entry);
    const WatchdogConfig wd = d.segmentWatchdog(seg.len);
    const SegmentOutcome base_out = driveSegment(seg, wd);
    if (base_out.verdict != RunVerdict::kOk) {
      // A clean base stream is the sweep's precondition; report it as a
      // single failed variant rather than asserting.
      SweepVariant v;
      v.crash_index = entry.committed;
      v.verdict = ServiceVerdict::kInstanceViolation;
      v.detail = std::string("base segment not clean: ") +
                 runVerdictName(base_out.verdict) + ": " + base_out.detail;
      rep.variants.push_back(v);
      break;
    }
    // Re-drive the segment on a checkpointing Run and mark boundary b,
    // the state right after the step that landed instance b-1's last note
    // (a note at world time t lands in step t + 1). A watched run without
    // chaos takes the plain loop's schedule, so the marks lie on the base
    // pass.
    Segment redo = d.prepareSegment(entry);
    redo.run->enableCheckpoints();
    std::vector<std::pair<Time, RunCheckpoint>> marks;
    marks.emplace_back(0, redo.run->checkpoint());
    for (std::size_t b = 1; b < static_cast<std::size_t>(seg.len); ++b) {
      const Time done = marks.back().first;
      Time at = done;
      for (const auto& steps : base_out.note_step) {
        at = std::max(at, steps[b - 1] + 1);
      }
      redo.run->scheduler().run(*redo.policy, at - done);
      marks.emplace_back(at, redo.run->checkpoint());
    }
    // One variant per instance of this segment: restore the shared prefix
    // (b instances committed), crash a seeded non-leader replica, drive
    // the segment suffix, then run the rest of the stream normally.
    for (int b = 0; b < seg.len; ++b) {
      const long long g = entry.committed + static_cast<long long>(b);
      const Pid victim =
          1 + static_cast<Pid>(
                  mixDigest(cfg.seed ^ 0x5EED,
                            static_cast<std::uint64_t>(g)) %
                  static_cast<std::uint64_t>(cfg.group - 1));
      const auto& [at, ck] = marks[static_cast<std::size_t>(b)];
      redo.run->restore(ck);
      ++rep.restores;
      redo.run->world().injectCrash(victim);
      ServiceDriver::State vst = entry;
      d.harvestSegment(vst, redo, driveSegment(redo, wd, at));
      d.runToCompletion(vst);
      const ServiceReport vrep = d.finalize(vst);
      SweepVariant v;
      v.crash_index = g;
      v.victim_slot = victim;
      v.verdict = vrep.verdict;
      v.detail = vrep.detail;
      v.committed = vrep.stats.committed;
      v.replacements = vrep.stats.replacements;
      v.service_hash = vrep.service_hash;
      rep.variants.push_back(v);
    }
    d.harvestSegment(st, seg, base_out);
  }
  rep.base_hash = d.finalize(st).service_hash;
  return rep;
}

CellResult runServiceCell(const ServiceConfig& cfg, std::size_t index) {
  CellResult out;
  out.index = index;
  const ServiceReport rep = runService(cfg);
  switch (rep.verdict) {
    case ServiceVerdict::kOk:
      out.verdict = RunVerdict::kOk;
      break;
    case ServiceVerdict::kLogDivergence:
      out.verdict = RunVerdict::kSafetyViolation;
      break;
    case ServiceVerdict::kInstanceViolation:
      out.verdict = RunVerdict::kAxiomViolation;
      break;
    case ServiceVerdict::kStalled:
      out.verdict = RunVerdict::kLivelock;
      break;
    case ServiceVerdict::kReplacementOverrun:
      out.verdict = RunVerdict::kBudgetExhausted;
      break;
  }
  out.detail = rep.detail;
  out.error = false;
  out.all_correct_done = rep.ok();
  out.steps = rep.stats.steps;
  out.distinct_decisions = 0;
  out.trace_hash = rep.service_hash;
  out.check_ok = rep.ok();
  out.check_detail = std::string("service: ") + serviceVerdictName(rep.verdict) +
                     (rep.detail.empty() ? "" : (": " + rep.detail));
  out.metrics["instances"] = static_cast<double>(rep.stats.committed);
  out.metrics["replica_decisions"] =
      static_cast<double>(rep.stats.replica_decisions);
  out.metrics["segments"] = static_cast<double>(rep.stats.segments);
  out.metrics["retries"] = static_cast<double>(rep.stats.retries);
  out.metrics["replacements"] = static_cast<double>(rep.stats.replacements);
  out.metrics["injected_crashes"] =
      static_cast<double>(rep.stats.injected_crashes);
  out.metrics["rejected"] = static_cast<double>(rep.stats.rejected);
  out.metrics["lat_p50"] = rep.stats.lat_p50;
  out.metrics["lat_p99"] = rep.stats.lat_p99;
  for (const auto& [name, n] : rep.stats.injector_fires) {
    out.metrics["inj_" + name] = static_cast<double>(n);
  }
  return out;
}

}  // namespace wfd::sim::service
