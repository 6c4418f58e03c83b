#include "sim/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>
#include <optional>

#include "fd/failure_detector.h"
#include "sim/codec.h"
#include "sim/digest_set.h"
#include "sim/report_cache.h"
#include "sim/steal_pool.h"

namespace wfd::sim {

namespace {

// FNV-1a over a label string: stable, cheap, no libstdc++ hash involved.
std::uint64_t labelHash(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

// One executed step of the current DFS path, and one sleep-set entry:
// process `pid`'s next transition as observed when it was explored (or
// skipped) at some ancestor node. The footprint and output visibility of
// a process's next step are functions of its local state alone, and the
// sleep discipline only carries an entry across steps INDEPENDENT of it —
// which leave that local state's inputs untouched — so the recorded
// values stay exact for the entry's lifetime. That includes the refined
// fd_epoch classification: an entry's causal past can only grow through
// steps DEPENDENT with it, so a query certified stable when the entry was
// recorded stays stable wherever the entry is carried.
struct Step {
  Pid pid = -1;
  OpFootprint fp;
  bool visible = false;  // emitted a kDecide/kPublish event
};

// One branch point: the state BEFORE choosing a step at this depth.
// Nodes are recycled (see StateSpace): clear() empties one for the next
// push at its depth, dropping every reference its checkpoint held while
// keeping the capacity of its vectors, the sleep set's included.
struct Node {
  RunCheckpoint ckpt;
  ProcSet enabled;
  ProcSet to_explore;  // kDpor: dynamically grown backtrack set
  ProcSet done;        // explored (or sleep-skipped) from here
  std::vector<Step> sleep;   // kDpor
  std::uint64_t digest = 0;  // kDag memo key

  void clear() {
    ckpt.release();
    enabled = to_explore = done = ProcSet{};
    sleep.clear();
    digest = 0;
  }
};

// Two steps must keep their relative order iff they are dependent: either
// fails to commute by footprint, or either is output-visible (decides and
// published FD-output emulations are ordered events of the run).
bool dependent(const Step& a, const Step& b) {
  return a.visible || b.visible || !footprintsCommute(a.fp, b.fp);
}

// ---- Incremental state digests (kDag memo keys) ---------------------------
//
// The digest of the CURRENT global state is an XOR of independent salted
// components — the clock, the object table (ObjectTable::xorContentsDigest,
// which re-hashes on read only the objects mutated since the last read),
// and one component per process's local state — so one executed step
// re-mixes only the two components it can change (the clock and the
// stepping process) plus the objects that step touched, instead of
// re-hashing every object and every process. Order-insensitive across the
// schedules that reach the state, like the full recompute below, so kDag
// can unify converging schedules.

std::uint64_t clockComponent(Time now) {
  return mixDigest(0x243F6A8885A308D3ULL, static_cast<std::uint64_t>(now));
}

// A process's local state is {steps, resultDigest}: a deterministic
// automaton's frame, and so whether it has returned and what it has
// published, is a function of the results it consumed. That is what lets
// the walk name a successor before resuming its frame.
std::uint64_t procComponent(Pid p, Time steps, std::uint64_t result_digest) {
  std::uint64_t h =
      mixDigest(0x3C6EF372FE94F82BULL, static_cast<std::uint64_t>(p) + 1);
  h = mixDigest(h, static_cast<std::uint64_t>(steps));
  return mixDigest(h, result_digest);
}

std::uint64_t procComponent(Run& run, Pid p) {
  return procComponent(p, run.scheduler().ctx(p).steps,
                       run.scheduler().resultDigest(p));
}

// The two non-clock, non-table components one step can change.
std::uint64_t stepLocalComponent(Run& run, Pid p) {
  return clockComponent(run.world().now()) ^
         run.world().objectsConst().xorContentsDigest() ^
         procComponent(run, p);
}

std::uint64_t fullStateDigest(Run& run, int n, bool audit_table) {
  std::uint64_t h = audit_table
                        ? run.world().objectsConst().xorContentsDigestFull()
                        : run.world().objectsConst().xorContentsDigest();
  h ^= clockComponent(run.world().now());
  for (Pid p = 0; p < n; ++p) h ^= procComponent(run, p);
  return h;
}

// A terminal state's observable outcome is all recorded events grouped per
// process (program order within a process; pid order across). Most
// terminals repeat an outcome already seen, so the signature is hashed in
// place first and the outcome is built only for a new signature.
std::uint64_t outcomeSig(const std::vector<Event>& events, int n) {
  std::uint64_t h = 0x452821E638D01377ULL;
  for (int p = 0; p < n; ++p) {
    h = mixDigest(h, static_cast<std::uint64_t>(p) + 0xABCDULL);
    for (const Event& e : events) {
      if (e.pid != p) continue;
      h = mixDigest(h, static_cast<std::uint64_t>(e.kind) + 1);
      h = mixDigest(h, labelHash(e.label));
      h = mixDigest(h, e.value.hash64());
    }
  }
  return h;
}

ExploreOutcome harvestOutcome(const std::vector<Event>& events, int n,
                              std::uint64_t sig) {
  ExploreOutcome o;
  o.sig = sig;
  for (int p = 0; p < n; ++p) {
    for (const Event& e : events) {
      if (e.pid != p) continue;
      if (e.kind == EventKind::kDecide) o.decisions[p] = e.value.asInt();
      o.events.push_back(e);
    }
  }
  return o;
}

// ---- The engine: one DFS over a state space, two strategies --------------
//
// search() runs one depth-first loop over a StateSpace and binds a strategy
// as a template parameter: Dpor (dynamic backtracking, sleep sets, clock
// rows) or Dag (the digest memo). A walk's role is set by its inputs only:
//   * classic     — the full single-phase serial search (jobs = 0): an
//     empty job, no capture depth;
//   * coordinator — phase 1 of the frontier engine: an empty job and a
//     capture depth. Dpor seeds every node EAGERLY, and a state reached at
//     the capture depth becomes a job (step/clock stack + frontier sleep
//     set) instead of a subtree;
//   * worker      — phase 2: replays one captured job's prefix, then runs
//     the normal lazy engine below the frontier.

struct CapturedJob {
  std::vector<Step> steps;      // the prefix step stack, pids included
  std::vector<int> clock_rows;  // kDpor: the prefix steps' clock rows
  std::vector<Step> sleep;      // frontier node's sleep set
};

struct WalkSpec {
  const ExploreConfig* cfg = nullptr;
  const AlgoFn* algo = nullptr;
  const std::vector<Value>* proposals = nullptr;
  // kDpor's stability-epoch classification of FD queries (docs/EXPLORE.md):
  // the detector's stabilizationTime() when it can be pinned (overrides
  // keyDigest); kNeverCrashes turns the classification off.
  Time tau = kNeverCrashes;
};

struct WalkOut {
  ExploreResult res;
  std::vector<CapturedJob> jobs;  // coordinator captures, DFS order
};

constexpr int kNoCapture = std::numeric_limits<int>::max();

// What the state after a step is: interior, final (every correct process
// done, or none runnable: harvest it), or cut by max_depth.
enum class Leaf { kInterior, kFinal, kCut };

// The searched state space: one live Run, the stack of branch points over
// it, and the executed-step stack. path[0, depth) are the live nodes. A
// popped node stays in `path`, cleared, and is refilled by the next push
// at its depth, so a push allocates nothing once the walk has been that
// deep before.
struct StateSpace {
  StateSpace(const WalkSpec& spec, const CapturedJob& job)
      : cfg(*spec.cfg),
        n(cfg.run.n_plus_1),
        base(static_cast<int>(job.steps.size())),
        audit(resolvedAuditMode(cfg.run.audit).has_value()),
        run(cfg.run, *spec.algo, *spec.proposals),
        steps(job.steps) {
    run.enableCheckpoints();
    // Replay the captured prefix by stepping: a worker owns a fresh
    // Run/World/Scheduler stack, so the replay is this job's only
    // coupling to the coordinator — a pid sequence, nothing shared.
    for (const Step& s : job.steps) run.scheduler().step(s.pid);
    out.res.steps_executed += static_cast<std::uint64_t>(base);
  }

  // Opens a node at the next depth on the live state.
  Node& push() {
    if (depth == path.size()) path.emplace_back();  // first visit this deep
    Node& node = path[depth++];
    run.checkpoint(node.ckpt);
    node.enabled = run.scheduler().runnable();
    return node;
  }

  // Prefix sharing: rewind the single live Run to the branch point at
  // local depth d instead of replaying the whole schedule from step 0.
  void rewind(const Node& node, int d) {
    if (live_depth == d) return;
    out.res.steps_rebuilt += run.restore(node.ckpt);
    ++out.res.restores;
    out.res.steps_replayed += static_cast<std::uint64_t>(base + d);
    live_depth = d;
  }

  // The step p just took: its footprint, and whether it recorded an event
  // past `ev_before` that orders it (a decide or a publish).
  Step observe(Pid p, std::size_t ev_before) {
    Step s{p, run.world().lastFootprint(), false};
    const auto& events = run.world().trace().events();
    for (std::size_t i = ev_before; i < events.size(); ++i) {
      s.visible = s.visible || events[i].kind == EventKind::kDecide ||
                  events[i].kind == EventKind::kPublish;
    }
    return s;
  }

  // The live state, reached by a step from local depth d.
  Leaf leaf(int d) {
    Scheduler& sched = run.scheduler();
    if (sched.allCorrectDone() || sched.runnable().empty()) return Leaf::kFinal;
    return base + d + 1 >= cfg.max_depth ? Leaf::kCut : Leaf::kInterior;
  }

  // A frontier job for the live state: its step stack; the strategy adds
  // its own part.
  CapturedJob& capture() {
    CapturedJob& job = out.jobs.emplace_back();
    job.steps = steps;
    return job;
  }

  // Records the live terminal state's outcome. Returns true when the
  // property failed and the whole walk must stop.
  bool harvest() {
    ExploreResult& res = out.res;
    const std::vector<Event>& events = run.world().trace().events();
    const std::uint64_t sig = outcomeSig(events, n);
    ++res.schedules_explored;
    auto it = res.outcomes.lower_bound(sig);
    if (it == res.outcomes.end() || it->first != sig) {
      it = res.outcomes.emplace_hint(it, sig, harvestOutcome(events, n, sig));
    }
    if (!cfg.property) return false;
    std::string v = cfg.property(it->second);
    if (v.empty()) return false;
    res.verdict = ExploreVerdict::kViolation;
    res.violation = std::move(v);
    for (const Step& s : steps) res.counterexample.push_back(s.pid);
    return true;
  }

  const ExploreConfig& cfg;
  const int n;
  const int base;  // captured prefix length: global depth of path[0]
  const bool audit;
  Run run;
  WalkOut out;
  std::vector<Node> path;
  std::size_t depth = 0;
  std::vector<Step> steps;
  int live_depth = 0;  // LOCAL depth the live Run currently corresponds to
};

// kDpor: Flanagan–Godefroid dynamic backtracking with sleep sets.
// Happens-before is kept flat: row i (n ints) of `rows_` is the vector
// clock of steps[i], inclusive of it; last_[p] is the index of p's latest
// step on the stack, or -1, and prev_ holds what last_ held before each
// step above the captured prefix (prefix steps are never popped).
class Dpor {
 public:
  Dpor(StateSpace& ss, const WalkSpec& spec, const CapturedJob& job,
       int capture_at)
      : ss_(ss),
        un_(static_cast<std::size_t>(ss.n)),
        tau_(spec.tau),
        eager_(capture_at != kNoCapture),
        rows_(job.clock_rows),
        last_(un_, -1),
        zeros_(un_, 0) {
    for (std::size_t i = 0; i < job.steps.size(); ++i) {
      last_[static_cast<std::size_t>(job.steps[i].pid)] = static_cast<int>(i);
    }
  }

  Pid pick(Node& node) {
    for (;;) {
      const std::uint64_t avail = node.to_explore.bits() & ~node.done.bits();
      if (avail == 0) return -1;
      const Pid cand = static_cast<Pid>(std::countr_zero(avail));
      if (!asleep(node, cand)) return cand;
      // Covered by a subtree explored from an ancestor: prune.
      node.done.insert(cand);
      ++ss_.out.res.sleep_set_skips;
    }
  }

  // Seeds a node entered from `parent` (null for the root) by the top step.
  void open(Node& node, const Node* parent) {
    if (parent != nullptr) carry(parent->sleep, node.sleep);
    if (eager_) {
      // Eager: schedule every non-slept enabled transition up front, so
      // later backtrack additions targeting this node are no-ops and the
      // captured job set is closed under the race rule.
      node.to_explore = node.enabled;
      return;
    }
    for (const Pid q : node.enabled) {
      if (!asleep(node, q)) {
        node.to_explore.insert(q);  // lazy: one transition per node
        break;
      }
    }
  }

  bool execute(Node& /*from*/, int /*d*/, Pid p) {
    ss_.run.scheduler().step(p);
    return true;
  }

  // Classifies the new step and folds it into happens-before, adding every
  // backtrack point it races with; returns it as recorded.
  Step record(Step s) {
    const std::size_t row = ss_.steps.size() * un_;
    rows_.resize(row + un_);
    int* clock = &rows_[row];
    const bool query = s.fp.cls == OpClass::kFdQuery && tau_ != kNeverCrashes;
    // Refined FD-independence: certify the query inside the detector's
    // post-stabilization epoch when its CAUSAL PAST alone already spans
    // stabilizationTime() steps. Every step advances the clock by one and
    // the query is answered at the pre-advance clock, so a step's global
    // time equals its 0-based schedule position, which in EVERY
    // linearization of the trace class is >= the size of the step's causal
    // past. The past is computed under the TENTATIVE stable classification
    // (epoch 0) — using the coarse relation here would inflate the past
    // with steps a stable query does not depend on and certify queries the
    // refined relation then reorders. A certified query keeps that fold; an
    // unstable one depends on every step, so its fold is redone (the races
    // the first pass added are a subset of the second's).
    if (query) s.fp.fd_epoch = 0;
    fold(s, clock);
    if (query) {
      long long past_steps = 0;
      for (std::size_t q = 0; q < un_; ++q) past_steps += clock[q];
      if (past_steps < tau_) {
        s.fp.fd_epoch = kFdEpochUnstable;
        fold(s, clock);
      }
    }
    const auto up = static_cast<std::size_t>(s.pid);
    clock[up] += 1;
    prev_.push_back(last_[up]);
    last_[up] = static_cast<int>(ss_.steps.size());
    return s;
  }

  void capture(CapturedJob& job, const Node& from) {
    job.clock_rows = rows_;
    carry(from.sleep, job.sleep);
  }

  bool admit() { return true; }

  // Retires the top step, explored from `from`, into from's sleep set.
  void pop(Node& from, const Step& s) {
    from.sleep.push_back(s);
    last_[static_cast<std::size_t>(s.pid)] = prev_.back();
    prev_.pop_back();
    rows_.resize(rows_.size() - un_);
  }

  void exhausted(const Node& /*node*/) {}
  void finish() {}

 private:
  static bool asleep(const Node& node, Pid p) {
    return std::any_of(node.sleep.begin(), node.sleep.end(),
                       [p](const Step& se) { return se.pid == p; });
  }

  // Wakes the sleepers dependent with the top step; the rest remain
  // covered by the subtrees explored from the ancestors.
  void carry(const std::vector<Step>& sleep, std::vector<Step>& into) const {
    const Step& in = ss_.steps.back();
    for (const Step& se : sleep) {
      if (!dependent(se, in)) into.push_back(se);
    }
  }

  // Sets `clock` to s.pid's clock before step s (its latest step's row, or
  // 0s) joined with the row of every earlier step dependent with s. Each
  // such step that does not happen before s's transition is a genuine race:
  // the pre-state of that step schedules s.pid too.
  void fold(const Step& s, int* clock) {
    const int lp = last_[static_cast<std::size_t>(s.pid)];
    const int* pre =
        lp < 0 ? zeros_.data() : &rows_[static_cast<std::size_t>(lp) * un_];
    std::copy(pre, pre + un_, clock);
    const std::vector<Step>& steps = ss_.steps;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Step& si = steps[i];
      if (si.pid == s.pid) continue;  // program order is already in pre
      if (!dependent(si, s)) continue;
      const int* ci = &rows_[i * un_];
      for (std::size_t q = 0; q < un_; ++q) {
        clock[q] = std::max(clock[q], ci[q]);
      }
      const auto sq = static_cast<std::size_t>(si.pid);
      if (pre[sq] >= ci[sq]) {
        continue;  // si happens-before the transition: order is forced
      }
      if (i < static_cast<std::size_t>(ss_.base)) {
        // Prefix node: the coordinator seeded it with its FULL enabled
        // set, so the addition is a no-op by construction.
        continue;
      }
      Node& nj = ss_.path[i - static_cast<std::size_t>(ss_.base)];
      if (nj.enabled.contains(s.pid)) {
        nj.to_explore.insert(s.pid);
      } else {
        // s.pid was not enabled there: conservatively schedule everything.
        nj.to_explore = nj.to_explore.unionWith(nj.enabled);
      }
    }
  }

  StateSpace& ss_;
  const std::size_t un_;
  const Time tau_;
  const bool eager_;
  std::vector<int> rows_;
  std::vector<int> last_;
  std::vector<int> prev_;
  const std::vector<int> zeros_;  // the clock before a process's first step
};

// kDag: every enabled transition from every state, with the memo of fully
// explored states keyed by the incremental digest (none in phase 1, whose
// subtrees are captured, not explored, so a node popped there was never
// fully explored, as a memo entry claims).
class Dag {
 public:
  Dag(StateSpace& ss, const WalkSpec& /*spec*/, const CapturedJob& /*job*/,
      int capture_at)
      : ss_(ss), use_memo_(ss.cfg.memoize && capture_at == kNoCapture) {
    if (use_memo_) live_ = fullStateDigest(ss.run, ss.n, /*audit_table=*/false);
  }

  static Pid pick(const Node& node) {
    const std::uint64_t avail = node.to_explore.bits() & ~node.done.bits();
    return avail == 0 ? -1 : static_cast<Pid>(std::countr_zero(avail));
  }

  void open(Node& node, const Node* /*parent*/) {
    node.digest = live_;
    node.to_explore = node.enabled;
  }

  // Steps p from `from` (at local depth d). Returns false when the memo
  // answered the step's subtree and the live state is `from` again.
  bool execute(Node& from, int d, Pid p) {
    Run& run = ss_.run;
    Scheduler& sched = run.scheduler();
    live_ = from.digest;  // the live state is `from`'s, rewound or not
    const std::uint64_t pre = use_memo_ ? stepLocalComponent(run, p) : 0;
    if (!use_memo_ || !sched.ctx(p).pending.has_value()) {
      // kDag without the memo, and a process's first step, which runs its
      // prologue and so cannot be probed: one call.
      sched.step(p);
      if (use_memo_) live_ ^= pre ^ stepLocalComponent(run, p);
      return true;
    }
    // Probe the memo before p's frame moves: once its parked op has run on
    // the world, the successor's key is known — clock + 1, the new table,
    // and p's {steps + 1, resultDigest + this result}.
    sched.execute(p);
    const std::uint64_t table = run.world().objectsConst().xorContentsDigest();
    const std::uint64_t next_proc = procComponent(
        p, sched.ctx(p).steps + 1,
        mixDigest(sched.resultDigest(p), run.world().lastResultSignature()));
    const std::uint64_t next_clock = clockComponent(run.world().now() + 1);
    const std::uint64_t probe = live_ ^ pre ^ next_clock ^ table ^ next_proc;
    if (ss_.audit) {
      // The table and every other process re-hashed from scratch; the
      // clock and p swapped for their successor components.
      const std::uint64_t full =
          fullStateDigest(run, ss_.n, /*audit_table=*/true) ^
          clockComponent(run.world().now()) ^ next_clock ^
          procComponent(run, p) ^ next_proc;
      if (probe != full) {
        throw SimAbort(
            "explore: incremental probe digest diverged from full recompute");
      }
    }
    if (!memo_.contains(probe)) {
      sched.resume(p);
      // The resume may name new objects, so the table's part is re-read.
      live_ = probe ^ table ^ run.world().objectsConst().xorContentsDigest();
      return true;
    }
    ++ss_.out.res.memo_hits;
    if (!ss_.audit) {
      // Only the world moved: p's log head and steps did not, so the
      // rollback is the world's alone and every frame is kept.
      run.world().restore(from.ckpt.world);
      return false;
    }
    // Audited: confirm the hit with the real resume. The resumed state
    // must be a memoized interior state, as the probe claimed.
    sched.resume(p);
    if (ss_.leaf(d) != Leaf::kInterior ||
        !memo_.contains(fullStateDigest(run, ss_.n, /*audit_table=*/true))) {
      throw SimAbort("explore: a memo probe hit that the resumed step refutes");
    }
    run.restore(from.ckpt);  // a probe rollback, not a counted rewind
    return false;
  }

  static Step record(Step s) { return s; }
  void capture(CapturedJob& /*job*/, const Node& /*from*/) {}

  // Whether the live interior state needs a node: false when the memo
  // already answers its subtree.
  bool admit() {
    if (!use_memo_) return true;
    if (ss_.audit &&
        live_ != fullStateDigest(ss_.run, ss_.n, /*audit_table=*/true)) {
      throw SimAbort(
          "explore: incremental state digest diverged from full recompute");
    }
    if (!memo_.contains(live_)) return true;
    ++ss_.out.res.memo_hits;
    return false;
  }

  void pop(Node& /*from*/, const Step& /*s*/) {}

  void exhausted(const Node& node) {
    if (use_memo_) memo_.insert(node.digest);
  }

  void finish() {
    if (use_memo_) ss_.out.res.states_memoized = memo_.size();
  }

 private:
  StateSpace& ss_;
  const bool use_memo_;
  std::uint64_t live_ = 0;  // digest of the live state (0 without the memo)
  // The digests of states whose subtree is fully explored. A hit's
  // outcomes are already in res.outcomes, found earlier in this walk, so
  // the memo keeps no outcome sets. Frontier workers each hold a private
  // memo so every counter is a pure function of the job, never of worker
  // scheduling. A flat digest table (sim/digest_set.h): only
  // contains/insert/size, never iterated, so its order cannot leak into
  // any result.
  DigestSet memo_;
};

template <class Strategy>
WalkOut dfs(const WalkSpec& spec, const CapturedJob& job, int capture_at) {
  StateSpace ss(spec, job);
  Strategy strategy(ss, spec, job, capture_at);
  ExploreResult& res = ss.out.res;

  Node& root = ss.push();
  root.sleep = job.sleep;
  strategy.open(root, nullptr);
  // A run can be terminal before its first step only in degenerate
  // configurations (no processes).
  if (ss.run.scheduler().allCorrectDone() || root.enabled.empty()) {
    ss.harvest();
    ss.depth = 0;
  }

  const auto popStep = [&](Node& from) {
    strategy.pop(from, ss.steps.back());
    ss.steps.pop_back();
  };
  while (ss.depth > 0) {
    Node& cur = ss.path[ss.depth - 1];
    const int d = static_cast<int>(ss.depth) - 1;
    const Pid p = strategy.pick(cur);
    if (p < 0) {
      strategy.exhausted(cur);
      if (d > 0) popStep(ss.path[static_cast<std::size_t>(d) - 1]);
      cur.clear();
      --ss.depth;
      continue;
    }

    cur.done.insert(p);
    ss.rewind(cur, d);
    res.max_depth_seen = std::max(res.max_depth_seen, ss.base + d + 1);
    const std::size_t ev_before = ss.run.world().trace().events().size();
    if (!strategy.execute(cur, d, p)) continue;
    ++res.steps_executed;
    ss.live_depth = d + 1;
    ss.steps.push_back(strategy.record(ss.observe(p, ev_before)));

    const Leaf leaf = ss.leaf(d);
    if (leaf != Leaf::kInterior) {
      const bool violated = leaf == Leaf::kFinal && ss.harvest();
      if (leaf == Leaf::kCut) res.complete = false;  // cut, not verified
      popStep(cur);
      if (violated) break;
      if (res.schedules_explored >= ss.cfg.max_schedules) {
        res.complete = false;
        break;
      }
      continue;  // live state is past cur; next execute will restore
    }
    if (d + 1 >= capture_at) {
      // Frontier: capture a subtree job instead of recursing, and account
      // the subtree as explored — phase 2 explores it for real, in
      // job-creation order.
      strategy.capture(ss.capture(), cur);
      popStep(cur);
      continue;
    }
    if (!strategy.admit()) {
      popStep(cur);
      continue;
    }
    Node& child = ss.push();  // may move `cur`
    strategy.open(child, &ss.path[ss.depth - 2]);
  }
  // The one exit: a finished, cut or violating walk reports its counters.
  strategy.finish();
  return std::move(ss.out);
}

WalkOut search(const WalkSpec& spec, const CapturedJob& job = {},
               int capture_at = kNoCapture) {
  return spec.cfg->mode == ExploreMode::kDpor
             ? dfs<Dpor>(spec, job, capture_at)
             : dfs<Dag>(spec, job, capture_at);
}

// ---- Persistent exploration certificates ----------------------------------
//
// A certificate is one typed byte record, the same kind for a whole config
// and for each frontier job (docs/EXPLORE.md gives the layout). The store
// keeps it as opaque bytes; decodeCert rejects anything that is not
// exactly one well-formed record, so a foreign, torn or stale payload is a
// cold miss, never a wrong hit. A schema bump changes the tag AND the key
// salt, so records of an older schema are never even looked up.

// Schema v5: this byte record, whose kDag states_memoized is reported by
// every walk, also one cut by max_schedules or stopped by a violation (v4
// records hold 0 there; v3 records the counts of the resume-then-probe
// walk).
constexpr std::uint32_t kCertTag = 0x35435857u;  // "WXC5"
constexpr std::uint64_t kCertSchemaSalt = 0x91C4E3A75B20D6F7ULL;

// The eight search counters, in record order; the frontier merge sums the
// same list and ExploreResult::sameSearch compares it.
constexpr std::uint64_t ExploreResult::*kSearchCounters[] = {
    &ExploreResult::schedules_explored, &ExploreResult::sleep_set_skips,
    &ExploreResult::states_memoized,    &ExploreResult::memo_hits,
    &ExploreResult::steps_executed,     &ExploreResult::steps_replayed,
    &ExploreResult::steps_rebuilt,      &ExploreResult::restores};

void encodeCert(ByteWriter& w, const ExploreResult& r) {
  w.u32(kCertTag);
  w.u8(r.verdict == ExploreVerdict::kViolation ? 1 : 0);
  w.u8(r.complete ? 1 : 0);
  w.str(r.violation);
  w.u32(static_cast<std::uint32_t>(r.counterexample.size()));
  for (const Pid p : r.counterexample) w.u32(static_cast<std::uint32_t>(p));
  w.u32(static_cast<std::uint32_t>(r.outcomes.size()));
  for (const auto& [sig, o] : r.outcomes) w.u64(sig);  // ascending
  for (const auto counter : kSearchCounters) w.u64(r.*counter);
  w.u32(static_cast<std::uint32_t>(r.max_depth_seen));
  w.u64(r.frontier_jobs);
  w.u32(static_cast<std::uint32_t>(r.frontier_depth));
  w.u32(static_cast<std::uint32_t>(r.worker_steps.size()));
  for (const long long s : r.worker_steps) w.i64(s);
}

// The record's result with from_cache set, or nullopt unless `bytes` is
// exactly one canonical record: right tag, flags of 0 or 1, signatures
// strictly ascending, no count larger than the bytes left can hold, no
// underrun and no trailing byte.
std::optional<ExploreResult> decodeCert(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader rd(bytes.data(), bytes.size());
  if (rd.u32() != kCertTag) return std::nullopt;
  const std::uint8_t verdict = rd.u8();
  const std::uint8_t complete = rd.u8();
  if (verdict > 1 || complete > 1) return std::nullopt;
  ExploreResult r;
  r.from_cache = true;
  r.verdict = verdict == 1 ? ExploreVerdict::kViolation
                           : ExploreVerdict::kVerified;
  r.complete = complete == 1;
  r.violation = rd.str();
  // Checked before anything is sized by it: a corrupt count is a miss,
  // not a huge allocation.
  const auto count = [&rd](std::size_t width) -> std::uint32_t {
    const std::uint32_t c = rd.u32();
    if (c > rd.remaining() / width) rd.fail();
    return rd.ok() ? c : 0;
  };
  r.counterexample.resize(count(4));
  for (Pid& p : r.counterexample) p = static_cast<Pid>(rd.u32());
  const std::uint32_t n_sigs = count(8);
  for (std::uint32_t i = 0; rd.ok() && i < n_sigs; ++i) {
    ExploreOutcome o;
    o.sig = rd.u64();
    if (!r.outcomes.empty() && o.sig <= r.outcomes.rbegin()->first) rd.fail();
    r.outcomes.emplace_hint(r.outcomes.end(), o.sig, std::move(o));
  }
  for (const auto counter : kSearchCounters) r.*counter = rd.u64();
  r.max_depth_seen = static_cast<int>(rd.u32());
  r.frontier_jobs = rd.u64();
  r.frontier_depth = static_cast<int>(rd.u32());
  r.worker_steps.resize(count(8));
  for (long long& s : r.worker_steps) s = rd.i64();
  if (!rd.ok() || !rd.atEnd()) return std::nullopt;
  return r;
}

std::optional<ExploreResult> loadCert(ResultStore& store, std::uint64_t key) {
  const std::optional<std::vector<std::uint8_t>> bytes = store.load(key);
  return bytes.has_value() ? decodeCert(*bytes) : std::nullopt;
}

void saveCert(ResultStore& store, std::uint64_t key, const ExploreResult& r) {
  ByteWriter w;
  encodeCert(w, r);
  store.save(key, w.bytes());
}

// Digest of every field that determines an exploration's outcome, or 0
// when the config is uncacheable (the sim/report_cache.h rules: a family
// must name the opaque callables, the detector must be pinnable, audited
// runs are never answered from a store).
std::uint64_t certConfigKey(const ExploreConfig& cfg,
                            const std::vector<Value>& proposals) {
  if (cfg.certificates == nullptr || cfg.cert_family.empty()) return 0;
  if (resolvedAuditMode(cfg.run.audit).has_value()) return 0;
  std::uint64_t fd_digest = 0;
  if (cfg.run.fd) {
    fd_digest = cfg.run.fd->keyDigest();
    if (fd_digest == fd::kOpaqueFdDigest) return 0;
  }
  const int n = cfg.run.n_plus_1;
  std::uint64_t h = mixDigest(kCertSchemaSalt, 0x45584C52ULL);  // "EXLR"
  h = digestString(h, cfg.cert_family);
  h = mixDigest(h, static_cast<std::uint64_t>(n));
  const FailurePattern fp =
      cfg.run.fp.has_value() ? *cfg.run.fp : FailurePattern::failureFree(n);
  h = fd::digestPattern(h, fp);
  h = mixDigest(h, static_cast<std::uint64_t>(cfg.run.flavor));
  h = mixDigest(h, static_cast<std::uint64_t>(cfg.run.max_steps));
  h = mixDigest(h, cfg.run.fd ? 1u : 0u);
  h = mixDigest(h, fd_digest);
  h = mixDigest(h, proposals.size());
  for (const Value v : proposals) {
    h = mixDigest(h, static_cast<std::uint64_t>(v));
  }
  h = mixDigest(h, static_cast<std::uint64_t>(cfg.mode));
  h = mixDigest(h, cfg.memoize ? 1u : 0u);
  h = mixDigest(h, cfg.max_schedules);
  h = mixDigest(h, static_cast<std::uint64_t>(cfg.max_depth));
  h = mixDigest(h, 1u);  // stop_on_violation, always 1: keeps stored keys
  // The engine shape: classic and frontier runs count differently, and
  // the REQUESTED frontier depth pins the auto-deepening result.
  h = mixDigest(h, cfg.jobs > 0 ? 1u : 0u);
  h = mixDigest(h, static_cast<std::uint64_t>(cfg.frontier_depth));
  if (h == 0) h = 1;
  return h;
}

std::uint64_t certJobKey(std::uint64_t config_key, std::size_t job_index,
                         const CapturedJob& job) {
  if (config_key == 0) return 0;
  std::uint64_t h = mixDigest(config_key, 0x6A09E667F3BCC909ULL);
  h = mixDigest(h, job_index + 1);
  h = mixDigest(h, job.steps.size());
  for (const Step& s : job.steps) {
    h = mixDigest(h, static_cast<std::uint64_t>(s.pid) + 1);
  }
  if (h == 0) h = 1;
  return h;
}

// ---- The parallel frontier ------------------------------------------------

ExploreResult exploreFrontier(const WalkSpec& spec, std::uint64_t cert_key) {
  const ExploreConfig& cfg = *spec.cfg;
  const int n = std::max(2, cfg.run.n_plus_1);
  // Job-count target of the auto frontier depth. Deliberately NEVER a
  // function of cfg.jobs: the job set must be identical at every worker
  // count for the determinism contract to hold.
  constexpr int kTargetJobs = 256;
  constexpr int kMaxAutoDepth = 16;

  // Phase 1: serial coordinator. With an explicit frontier_depth, run it
  // once; in auto mode, deepen the frontier (re-running the cheap prefix
  // expansion from scratch, counters reset) until the tree yields enough
  // jobs to balance — a pure function of the search tree, not of timing.
  int F = cfg.frontier_depth;
  if (F <= 0) {
    F = 1;
    long long width = n;  // ~n^F frontier states
    while (width < kTargetJobs && F < kMaxAutoDepth) {
      ++F;
      width *= n;
    }
  }
  F = std::max(1, std::min(F, cfg.max_depth - 1));
  WalkOut ph1;
  for (;;) {
    ph1 = search(spec, CapturedJob{}, F);
    if (cfg.frontier_depth > 0) break;  // explicit depth: no deepening
    if (!ph1.res.complete) break;       // phase-1 budget cut
    if (ph1.res.verdict == ExploreVerdict::kViolation) break;
    if (ph1.jobs.empty()) break;  // tree exhausted above the frontier
    if (static_cast<int>(ph1.jobs.size()) >= kTargetJobs) break;
    if (F >= std::min(cfg.max_depth - 1, kMaxAutoDepth)) break;
    ++F;
  }

  ExploreResult res = std::move(ph1.res);
  res.frontier_depth = F;
  res.frontier_jobs = ph1.jobs.size();
  if (res.verdict == ExploreVerdict::kViolation) {
    // A phase-1 terminal violated: the serial prefix expansion found it
    // before any job existed in DFS order, so the whole search stops
    // here — no job runs, at any worker count.
    return res;
  }
  const std::vector<CapturedJob>& jobs = ph1.jobs;
  if (jobs.empty()) return res;

  // Phase 2: the job fleet. Results land in job-index slots; scheduling
  // (any worker count) never touches anything merged. An empty slot is a
  // job skipped because a lower-index job violated.
  const int workers = std::max(1, cfg.jobs);
  res.jobs_used = std::min<int>(workers, static_cast<int>(jobs.size()));
  std::vector<std::optional<ExploreResult>> slots(jobs.size());
  std::atomic<std::size_t> min_violating{
      std::numeric_limits<std::size_t>::max()};

  const auto body = [&](std::size_t j, int /*worker*/) {
    if (j > min_violating.load(std::memory_order_relaxed)) {
      return;  // a lower-index job already violated: j is never merged
    }
    const std::uint64_t jkey = certJobKey(cert_key, j, jobs[j]);
    std::optional<ExploreResult> out;
    if (jkey != 0) out = loadCert(*cfg.certificates, jkey);
    if (!out.has_value()) {
      out = std::move(search(spec, jobs[j]).res);
      if (jkey != 0) {
        saveCert(*cfg.certificates, jkey, *out);
        out->cert_saves = 1;
      }
    }
    const bool violated = out->verdict == ExploreVerdict::kViolation;
    slots[j] = std::move(out);
    if (violated) {
      std::size_t cur = min_violating.load(std::memory_order_relaxed);
      while (j < cur && !min_violating.compare_exchange_weak(
                            cur, j, std::memory_order_relaxed)) {
      }
    }
  };

  res.steal_ops =
      runPool(jobs.size(), workers, /*steal=*/true, body).steal_ops;

  // Deterministic merge, in job-index (= DFS) order, up to the LOWEST
  // violating index (every slot up to it is filled): a speculatively
  // completed higher job must not leak into any counter, or jobs=N would
  // differ from jobs=1. The load profile list-schedules the merged jobs'
  // step costs (job-index order, least-loaded worker first) instead of
  // sampling the racy actual placement, so stepMakespan() is bit-stable
  // across runs and steal timing. Job costs are each slot's steps_executed
  // (prefix replay included), which certificates preserve — warm runs
  // report the same profile the cold run earned.
  res.worker_steps.assign(static_cast<std::size_t>(workers), 0);
  for (std::optional<ExploreResult>& slot : slots) {
    assert(slot.has_value());
    ExploreResult& jr = *slot;
    for (const auto counter : kSearchCounters) res.*counter += jr.*counter;
    res.max_depth_seen = std::max(res.max_depth_seen, jr.max_depth_seen);
    res.complete = res.complete && jr.complete;
    if (jr.from_cache) ++res.cert_job_hits;
    res.cert_saves += jr.cert_saves;
    for (auto& [sig, o] : jr.outcomes) {
      res.outcomes.try_emplace(sig, std::move(o));
    }
    *std::min_element(res.worker_steps.begin(), res.worker_steps.end()) +=
        static_cast<long long>(jr.steps_executed);
    if (jr.verdict == ExploreVerdict::kViolation) {
      // Phase 1 found no violation (else no job ran), so this is the first
      // violation in DFS order.
      res.verdict = ExploreVerdict::kViolation;
      res.violation = std::move(jr.violation);
      res.counterexample = std::move(jr.counterexample);
      break;
    }
  }
  return res;
}

}  // namespace

long long ExploreResult::stepMakespan() const {
  return sim::stepMakespan(worker_steps);
}

double ExploreResult::stepUtilization() const {
  return sim::stepUtilization(worker_steps);
}

std::set<std::uint64_t> ExploreResult::outcomeSigs() const {
  std::set<std::uint64_t> sigs;
  for (const auto& [sig, o] : outcomes) sigs.insert(sig);
  return sigs;
}

bool ExploreResult::sameSearch(const ExploreResult& other) const {
  for (const auto counter : kSearchCounters) {
    if (this->*counter != other.*counter) return false;
  }
  return verdict == other.verdict && violation == other.violation &&
         counterexample == other.counterexample &&
         max_depth_seen == other.max_depth_seen && complete == other.complete &&
         frontier_jobs == other.frontier_jobs &&
         frontier_depth == other.frontier_depth &&
         outcomeSigs() == other.outcomeSigs();
}

std::string ExploreResult::counterexampleString() const {
  std::string s;
  for (const Pid p : counterexample) {
    if (!s.empty()) s += ' ';
    s += 'p';
    s += std::to_string(p + 1);
  }
  return s;
}

ExploreResult explore(const ExploreConfig& cfg, const AlgoFn& algo,
                      const std::vector<Value>& proposals) {
  const bool dpor = cfg.mode == ExploreMode::kDpor;
  // Commutation of adjacent independent steps assumes swapping them
  // changes neither step's behavior. A time-triggered crash breaks that:
  // the swap moves a step across a crash time, changing which processes
  // are enabled. kDag has no such assumption.
  if (dpor && cfg.run.fp.has_value() && !cfg.run.fp->faulty().empty()) {
    throw SimAbort(
        "explore: kDpor requires a failure-free pattern (crashes break "
        "step commutation); use ExploreMode::kDag for this pattern");
  }

  WalkSpec spec{&cfg, &algo, &proposals};
  if (dpor && cfg.run.fd && cfg.run.fd->keyDigest() != fd::kOpaqueFdDigest) {
    spec.tau = cfg.run.fd->stabilizationTime();
  }

  const std::uint64_t cert_key = certConfigKey(cfg, proposals);
  if (cert_key != 0) {
    if (auto cached = loadCert(*cfg.certificates, cert_key)) {
      return std::move(*cached);
    }
  }

  ExploreResult res = cfg.jobs <= 0 ? std::move(search(spec).res)
                                    : exploreFrontier(spec, cert_key);

  // Only COMPLETE searches become whole-config certificates: a budget-cut
  // result is a partial answer whose per-job records (frontier mode)
  // already let the next identical run resume past the finished jobs.
  if (cert_key != 0 && res.complete) {
    saveCert(*cfg.certificates, cert_key, res);
    ++res.cert_saves;
  }
  return res;
}

}  // namespace wfd::sim
