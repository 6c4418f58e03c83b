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

// A sleep-set entry: process `pid`'s next transition as observed when it
// was explored (or skipped) at some ancestor node. The footprint and
// output visibility of a process's next step are functions of its local
// state alone, and the sleep discipline only carries an entry across
// steps INDEPENDENT of it — which leave that local state's inputs
// untouched — so the recorded values stay exact for the entry's lifetime.
// That includes the refined fd_epoch classification: an entry's causal
// past can only grow through steps DEPENDENT with it, so a query
// certified stable when the entry was recorded stays stable wherever the
// entry is carried.
struct SleepEnt {
  Pid pid = -1;
  OpFootprint fp;
  bool visible = false;
};

bool inSleep(const std::vector<SleepEnt>& sleep, Pid p) {
  return std::any_of(sleep.begin(), sleep.end(),
                     [p](const SleepEnt& se) { return se.pid == p; });
}

// One executed step on the current DFS path. Its kDpor vector clock is a
// row of the walk's flat clock array (see walk).
struct StepX {
  Pid pid = -1;
  OpFootprint fp;
  bool visible = false;  // emitted a kDecide/kPublish event
  int prev_step = -1;    // kDpor: pid's previous step on the stack, or -1
};

// One branch point: the state BEFORE choosing a step at this depth.
// Nodes are recycled (see walk): clear() empties one for the next push at
// its depth, dropping every reference its checkpoint held while keeping
// the capacity of its vectors, the sleep set's included.
struct Node {
  RunCheckpoint ckpt;
  ProcSet enabled;
  ProcSet to_explore;  // kDpor: dynamically grown backtrack set
  ProcSet done;        // explored (or sleep-skipped) from here
  std::vector<SleepEnt> sleep;
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
bool dependent(const OpFootprint& a, bool a_vis, const OpFootprint& b,
               bool b_vis) {
  return a_vis || b_vis || !footprintsCommute(a, b);
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

// ---- The DFS walker -------------------------------------------------------
//
// One function runs all three engine roles:
//   * classic   — the full single-phase serial search (jobs = 0);
//   * coordinator — phase 1 of the frontier engine: EAGER candidate
//     seeding above capture_depth, and reaching capture_depth captures a
//     job (step/clock stack + frontier sleep set) instead of recursing;
//   * worker    — phase 2: replay one captured prefix, then run the
//     normal lazy engine below the frontier. Backtrack additions whose
//     race partner sits inside the prefix are dropped: the coordinator
//     seeded every prefix node with its FULL enabled set, so the
//     addition is a no-op by construction.

// Stability-epoch classification of FD queries (docs/EXPLORE.md): enabled
// only when the run's detector can be pinned (overrides keyDigest) and
// promises a finite stabilizationTime tau.
struct FdEpochCtx {
  bool enabled = false;
  Time tau = 0;
};

struct CapturedJob {
  std::vector<StepX> steps;     // the prefix step stack, pids included
  std::vector<int> clock_rows;  // kDpor: the prefix steps' clock rows
  std::vector<SleepEnt> sleep;  // frontier node's sleep set
};

struct WalkSpec {
  const ExploreConfig* cfg = nullptr;
  const AlgoFn* algo = nullptr;
  const std::vector<Value>* proposals = nullptr;
  FdEpochCtx fdctx;
  int capture_depth = -1;          // >= 1: coordinator role, capture here
  const CapturedJob* job = nullptr;  // non-null: worker role
};

struct WalkOut {
  ExploreResult res;
  std::vector<CapturedJob> jobs;  // coordinator captures, DFS order
};

WalkOut walk(const WalkSpec& spec) {
  const ExploreConfig& cfg = *spec.cfg;
  const int n = cfg.run.n_plus_1;
  const bool dpor = cfg.mode == ExploreMode::kDpor;
  const bool capture = spec.capture_depth >= 1;
  // Phase 1 must not memoize: its subtrees are captured, not explored, so
  // a node popped there was never fully explored, as a memo entry claims.
  const bool use_memo = !dpor && cfg.memoize && !capture;
  const bool audit = resolvedAuditMode(cfg.run.audit).has_value();
  const int base =
      spec.job == nullptr ? 0 : static_cast<int>(spec.job->steps.size());

  WalkOut out;
  ExploreResult& res = out.res;

  Run run(cfg.run, *spec.algo, *spec.proposals);
  run.enableCheckpoints();

  // The DFS stack: path[0, depth) are the live nodes. A popped node stays
  // in `path`, cleared, and is refilled by the next push at its depth, so
  // a push allocates nothing once the walk has been that deep before.
  std::vector<Node> path;
  std::size_t depth = 0;
  std::vector<StepX> steps;
  // kDpor happens-before, flat: row i (n ints) of `clock_rows` is the
  // vector clock of steps[i], inclusive of it, and last[p] is the index of
  // p's latest step on the stack, or -1. kDag keeps no clocks.
  const auto un = static_cast<std::size_t>(n);
  std::vector<int> clock_rows;
  std::vector<int> last(un, -1);
  std::vector<int> past(un);  // scratch of the stability-epoch test
  if (spec.job != nullptr) {
    // Replay the captured prefix by stepping: the worker owns a fresh
    // Run/World/Scheduler stack, so the replay is this job's only
    // coupling to the coordinator — a pid sequence, nothing shared.
    for (const StepX& s : spec.job->steps) run.scheduler().step(s.pid);
    res.steps_executed += static_cast<std::uint64_t>(base);
    steps = spec.job->steps;
    clock_rows = spec.job->clock_rows;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      last[static_cast<std::size_t>(steps[i].pid)] = static_cast<int>(i);
    }
  }
  // kDag memo: the digests of states whose subtree is fully explored. A
  // hit's outcomes are already in res.outcomes, found earlier in this
  // walk, so the memo keeps no outcome sets. Frontier workers each hold a
  // private memo so every counter is a pure function of the job, never of
  // worker scheduling. A flat digest table (sim/digest_set.h): only
  // contains/insert/size, never iterated, so its order cannot leak into
  // any result.
  DigestSet memo;
  int live_depth = 0;  // LOCAL depth the live Run currently corresponds to
  std::uint64_t live_digest = 0;

  const auto harvestTerminal = [&]() -> bool {
    // Returns true when the caller should abort the whole walk.
    const std::vector<Event>& events = run.world().trace().events();
    const std::uint64_t sig = outcomeSig(events, n);
    ++res.schedules_explored;
    auto it = res.outcomes.lower_bound(sig);
    if (it == res.outcomes.end() || it->first != sig) {
      it = res.outcomes.emplace_hint(it, sig, harvestOutcome(events, n, sig));
    }
    bool violated = false;
    if (cfg.property && res.verdict == ExploreVerdict::kVerified) {
      const std::string v = cfg.property(it->second);
      if (!v.empty()) {
        violated = true;
        res.verdict = ExploreVerdict::kViolation;
        res.violation = v;
        res.counterexample.reserve(steps.size());
        for (const StepX& s : steps) res.counterexample.push_back(s.pid);
      }
    }
    return violated;
  };

  const auto seedDpor = [&](Node& node) {
    if (capture) {
      // Eager: schedule every non-slept enabled transition up front, so
      // later backtrack additions targeting this node are no-ops and the
      // captured job set is closed under the race rule.
      node.to_explore = node.enabled;
      return;
    }
    for (const Pid q : node.enabled) {
      if (!inSleep(node.sleep, q)) {
        node.to_explore.insert(q);  // lazy: one transition per node
        break;
      }
    }
  };

  // Initial node. A run can be terminal before its first step only in
  // degenerate configurations (no processes).
  {
    Node& root = path.emplace_back();
    run.checkpoint(root.ckpt);
    root.enabled = run.scheduler().runnable();
    if (spec.job != nullptr) root.sleep = spec.job->sleep;
    if (!dpor) {
      root.to_explore = root.enabled;
      if (use_memo) {
        live_digest = fullStateDigest(run, n, /*audit_table=*/false);
        root.digest = live_digest;
      }
    } else {
      seedDpor(root);
    }
    if (run.scheduler().allCorrectDone() || root.enabled.empty()) {
      harvestTerminal();
      return out;
    }
    depth = 1;
  }

  // Writes p's clock before its next step: its latest step's row, or 0s.
  const auto preClock = [&](Pid p, int* out) {
    const int lp = last[static_cast<std::size_t>(p)];
    for (std::size_t q = 0; q < un; ++q) {
      out[q] = lp < 0 ? 0 : clock_rows[static_cast<std::size_t>(lp) * un + q];
    }
  };
  const auto popStep = [&] {
    const StepX& in = steps.back();
    if (dpor) {
      last[static_cast<std::size_t>(in.pid)] = in.prev_step;
      clock_rows.resize(clock_rows.size() - un);
    }
    steps.pop_back();
  };

  while (depth > 0) {
    Node& cur = path[depth - 1];
    const int d = static_cast<int>(depth) - 1;

    // Pick the next candidate transition at this node.
    Pid p = -1;
    for (;;) {
      const std::uint64_t avail = cur.to_explore.bits() & ~cur.done.bits();
      if (avail == 0) break;
      const Pid cand = static_cast<Pid>(std::countr_zero(avail));
      if (dpor && inSleep(cur.sleep, cand)) {
        // Covered by a subtree explored from an ancestor: prune.
        cur.done.insert(cand);
        ++res.sleep_set_skips;
        continue;
      }
      p = cand;
      break;
    }

    if (p < 0) {
      // Node exhausted: memoize (kDag), pop.
      if (use_memo) memo.insert(cur.digest);
      if (d > 0) {
        Node& parent = path[static_cast<std::size_t>(d) - 1];
        const StepX& in = steps.back();
        if (dpor) parent.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
        popStep();
      }
      cur.clear();
      --depth;
      continue;
    }

    cur.done.insert(p);
    if (live_depth != d) {
      // Prefix sharing: rewind the single live Run to this branch point
      // instead of replaying the whole schedule from step 0.
      res.steps_rebuilt += run.restore(cur.ckpt);
      ++res.restores;
      res.steps_replayed += static_cast<std::uint64_t>(base + d);
      live_depth = d;
      live_digest = cur.digest;
    }

    res.max_depth_seen = std::max(res.max_depth_seen, base + d + 1);
    const std::size_t ev_before = run.world().trace().events().size();
    Scheduler& sched = run.scheduler();
    const std::uint64_t dig_pre = use_memo ? stepLocalComponent(run, p) : 0;
    if (use_memo && sched.ctx(p).pending.has_value()) {
      // Probe the memo before p's frame moves: once its parked op has run
      // on the world, the successor's key is known — clock + 1, the new
      // table, and p's {steps + 1, resultDigest + this result}.
      sched.execute(p);
      const std::uint64_t table =
          run.world().objectsConst().xorContentsDigest();
      const std::uint64_t next_proc = procComponent(
          p, sched.ctx(p).steps + 1,
          mixDigest(sched.resultDigest(p), run.world().lastResultSignature()));
      const std::uint64_t next_clock = clockComponent(run.world().now() + 1);
      const std::uint64_t probe =
          live_digest ^ dig_pre ^ next_clock ^ table ^ next_proc;
      if (audit) {
        // The table and every other process re-hashed from scratch; the
        // clock and p swapped for their successor components.
        const std::uint64_t full =
            fullStateDigest(run, n, /*audit_table=*/true) ^
            clockComponent(run.world().now()) ^ next_clock ^
            procComponent(run, p) ^ next_proc;
        if (probe != full) {
          throw SimAbort(
              "explore: incremental probe digest diverged from full "
              "recompute");
        }
      }
      if (memo.contains(probe)) {
        ++res.memo_hits;
        if (!audit) {
          // Only the world moved: p's log head and steps did not, so the
          // rollback is the world's alone and every frame is kept.
          run.world().restore(cur.ckpt.world);
          continue;
        }
        // Audited: confirm the hit with the real resume. The resumed state
        // must be a memoized interior state, as the probe claimed.
        sched.resume(p);
        const bool terminal = sched.allCorrectDone() ||
                              sched.runnable().empty() ||
                              base + d + 1 >= cfg.max_depth;
        if (terminal ||
            !memo.contains(fullStateDigest(run, n, /*audit_table=*/true))) {
          throw SimAbort(
              "explore: a memo probe hit that the resumed step refutes");
        }
        run.restore(cur.ckpt);  // a probe rollback, not a counted rewind
        continue;
      }
      sched.resume(p);
      // The resume may name new objects, so the table's part is re-read.
      live_digest =
          probe ^ table ^ run.world().objectsConst().xorContentsDigest();
    } else {
      // kDag without the memo, kDpor, and a process's first step, which
      // runs its prologue and so cannot be probed: one call.
      sched.step(p);
      if (use_memo) live_digest ^= dig_pre ^ stepLocalComponent(run, p);
    }
    ++res.steps_executed;
    live_depth = d + 1;

    OpFootprint fp = run.world().lastFootprint();
    bool visible = false;
    {
      const auto& events = run.world().trace().events();
      for (std::size_t i = ev_before; i < events.size(); ++i) {
        if (events[i].kind == EventKind::kDecide ||
            events[i].kind == EventKind::kPublish) {
          visible = true;
        }
      }
    }

    if (fp.cls == OpClass::kFdQuery && spec.fdctx.enabled) {
      // Refined FD-independence: certify the query inside the detector's
      // post-stabilization epoch when its CAUSAL PAST alone already
      // spans stabilizationTime() steps. Every step advances the clock
      // by one and the query is answered at the pre-advance clock, so a
      // step's global time equals its 0-based schedule position, which
      // in EVERY linearization of the trace class is >= the size of the
      // step's causal past. The past is computed under the TENTATIVE
      // stable classification (epoch 0) — using the coarse relation here
      // would inflate the past with steps a stable query does not depend
      // on and certify queries the refined relation then reorders.
      assert(dpor);  // the clock rows exist only in kDpor
      fp.fd_epoch = 0;
      preClock(p, past.data());
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const StepX& si = steps[i];
        if (si.pid == p) continue;  // program order is already in `past`
        if (!dependent(si.fp, si.visible, fp, visible)) continue;
        const int* ci = &clock_rows[i * un];
        for (std::size_t q = 0; q < un; ++q) past[q] = std::max(past[q], ci[q]);
      }
      long long past_steps = 0;
      for (const int c : past) past_steps += c;
      if (past_steps < spec.fdctx.tau) fp.fd_epoch = kFdEpochUnstable;
    }

    StepX st;
    st.pid = p;
    st.fp = fp;
    st.visible = visible;
    if (dpor) {
      // Vector-clock happens-before pass over the executed prefix, plus
      // Flanagan–Godefroid dynamic backtracking: for every earlier step
      // dependent with this one but not ordered before it by the prefix's
      // happens-before relation, the reversal is a genuine race — make
      // the pre-state of that step schedule this process too. The new
      // step's row starts as p's clock before it (pre), and the rows of
      // the steps p depends on are folded in.
      const std::size_t row = steps.size() * un;
      clock_rows.resize(row + un);
      int* now_clock = &clock_rows[row];
      preClock(p, now_clock);
      const int lp = last[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const StepX& si = steps[i];
        if (si.pid == p) continue;  // program order is already in pre
        if (!dependent(si.fp, si.visible, fp, visible)) continue;
        const int* ci = &clock_rows[i * un];
        for (std::size_t q = 0; q < un; ++q) {
          now_clock[q] = std::max(now_clock[q], ci[q]);
        }
        const auto sq = static_cast<std::size_t>(si.pid);
        const int pre_seen =
            lp < 0 ? 0 : clock_rows[static_cast<std::size_t>(lp) * un + sq];
        if (pre_seen >= ci[sq]) {
          continue;  // si happens-before p's transition: order is forced
        }
        if (i < static_cast<std::size_t>(base)) {
          continue;  // prefix node: eagerly seeded, the addition is a no-op
        }
        Node& nj = path[i - static_cast<std::size_t>(base)];
        if (nj.enabled.contains(p)) {
          nj.to_explore.insert(p);
        } else {
          // p was not enabled there: conservatively schedule everything.
          nj.to_explore = nj.to_explore.unionWith(nj.enabled);
        }
      }
      now_clock[static_cast<std::size_t>(p)] += 1;
      st.prev_step = lp;
      last[static_cast<std::size_t>(p)] = static_cast<int>(steps.size());
    }
    steps.push_back(st);

    const bool all_done = run.scheduler().allCorrectDone();
    const bool blocked = !all_done && run.scheduler().runnable().empty();
    const bool too_deep =
        !all_done && !blocked && base + d + 1 >= cfg.max_depth;
    if (all_done || blocked || too_deep) {
      bool abort_search = false;
      if (too_deep) {
        res.complete = false;  // this branch was cut, not verified
      } else {
        abort_search = harvestTerminal();
      }
      const StepX& in = steps.back();
      if (dpor) cur.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
      popStep();
      if (abort_search) return out;
      if (res.schedules_explored >= cfg.max_schedules) {
        res.complete = false;
        return out;
      }
      continue;  // live state is past cur; next execute will restore
    }

    // Interior state at the frontier: capture a subtree job instead of
    // recursing, and account the subtree as explored (sleep entry at the
    // parent) — phase 2 explores it for real, in job-creation order.
    if (capture && d + 1 >= spec.capture_depth) {
      CapturedJob job;
      job.steps = steps;
      job.clock_rows = clock_rows;
      const StepX& in = steps.back();
      if (dpor) {
        for (const SleepEnt& se : cur.sleep) {
          if (!dependent(se.fp, se.visible, in.fp, in.visible)) {
            job.sleep.push_back(se);
          }
        }
        cur.sleep.push_back(SleepEnt{in.pid, in.fp, in.visible});
      }
      out.jobs.push_back(std::move(job));
      popStep();
      continue;
    }

    // Interior state: answer from the memo (kDag) or push a child node.
    std::uint64_t digest = 0;
    if (use_memo) {
      digest = live_digest;
      if (audit && digest != fullStateDigest(run, n, /*audit_table=*/true)) {
        throw SimAbort(
            "explore: incremental state digest diverged from full recompute");
      }
      if (memo.contains(digest)) {
        ++res.memo_hits;
        popStep();
        continue;
      }
    }
    if (depth == path.size()) path.emplace_back();  // first visit this deep
    Node& parent = path[depth - 1];  // the emplace may have moved `cur`
    Node& child = path[depth++];
    run.checkpoint(child.ckpt);
    child.enabled = run.scheduler().runnable();
    child.digest = digest;
    if (dpor) {
      const StepX& in = steps.back();
      for (const SleepEnt& se : parent.sleep) {
        // Wake sleepers dependent with the step just taken; the rest
        // remain covered by the subtrees explored from the ancestors.
        if (!dependent(se.fp, se.visible, in.fp, in.visible)) {
          child.sleep.push_back(se);
        }
      }
      seedDpor(child);
    } else {
      child.to_explore = child.enabled;
    }
  }

  if (use_memo) res.states_memoized = memo.size();
  return out;
}

// ---- Persistent exploration certificates ----------------------------------
//
// A certificate is one typed byte record, the same kind for a whole config
// and for each frontier job (docs/EXPLORE.md gives the layout). The store
// keeps it as opaque bytes; decodeCert rejects anything that is not
// exactly one well-formed record, so a foreign, torn or stale payload is a
// cold miss, never a wrong hit. A schema bump changes the tag AND the key
// salt, so records of an older schema are never even looked up.

// Schema v4: this byte record, with kDag counters of the walk that probes
// its memo before resuming a frame (v3 records hold the older counts).
constexpr std::uint32_t kCertTag = 0x34435857u;  // "WXC4"
constexpr std::uint64_t kCertSchemaSalt = 0x5E2A7C91D04B3F18ULL;

// The eight search counters, in record order; the frontier merge sums the
// same list.
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
  for (const StepX& s : job.steps) {
    h = mixDigest(h, static_cast<std::uint64_t>(s.pid) + 1);
  }
  if (h == 0) h = 1;
  return h;
}

// ---- The parallel frontier ------------------------------------------------

ExploreResult exploreFrontier(const ExploreConfig& cfg, const AlgoFn& algo,
                              const std::vector<Value>& proposals,
                              const FdEpochCtx& fdctx,
                              std::uint64_t cert_key) {
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
  WalkSpec spec;
  spec.cfg = &cfg;
  spec.algo = &algo;
  spec.proposals = &proposals;
  spec.fdctx = fdctx;
  WalkOut ph1;
  for (;;) {
    spec.capture_depth = F;
    ph1 = walk(spec);
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
      WalkSpec ws;
      ws.cfg = &cfg;
      ws.algo = &algo;
      ws.proposals = &proposals;
      ws.fdctx = fdctx;
      ws.job = &jobs[j];
      out = std::move(walk(ws).res);
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

  // Deterministic merge, in job-index (= DFS) order. Only jobs up to the
  // LOWEST violating index are merged: a speculatively-completed higher
  // job must not leak into any counter, or jobs=N would differ from
  // jobs=1.
  std::size_t cutoff = jobs.size();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (slots[j].has_value() &&
        slots[j]->verdict == ExploreVerdict::kViolation) {
      cutoff = j + 1;
      break;
    }
  }
  for (std::size_t j = 0; j < cutoff; ++j) {
    assert(slots[j].has_value());
    ExploreResult& jr = *slots[j];
    for (const auto counter : kSearchCounters) res.*counter += jr.*counter;
    res.max_depth_seen = std::max(res.max_depth_seen, jr.max_depth_seen);
    res.complete = res.complete && jr.complete;
    if (jr.from_cache) ++res.cert_job_hits;
    res.cert_saves += jr.cert_saves;
    for (auto& [sig, o] : jr.outcomes) {
      res.outcomes.try_emplace(sig, std::move(o));
    }
  }
  // Deterministic load profile: list-schedule the merged jobs' step costs
  // (job-index order, least-loaded worker first) instead of sampling the
  // racy actual placement, so stepMakespan() is bit-stable across runs
  // and steal timing. Job costs are each slot's steps_executed (prefix
  // replay included), which certificates preserve — warm runs report the
  // same profile the cold run earned.
  res.worker_steps.assign(static_cast<std::size_t>(workers), 0);
  for (std::size_t j = 0; j < cutoff; ++j) {
    auto it = std::min_element(res.worker_steps.begin(),
                               res.worker_steps.end());
    *it += static_cast<long long>(slots[j]->steps_executed);
  }
  // The lowest violating job, if any, is the last one merged. Phase 1
  // found no violation (else no job ran), so this is the first violation
  // in DFS order.
  if (ExploreResult& jr = *slots[cutoff - 1];
      jr.verdict == ExploreVerdict::kViolation) {
    res.verdict = ExploreVerdict::kViolation;
    res.violation = std::move(jr.violation);
    res.counterexample = std::move(jr.counterexample);
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
  const int n = cfg.run.n_plus_1;
  const bool dpor = cfg.mode == ExploreMode::kDpor;

  if (dpor) {
    // Commutation of adjacent independent steps assumes swapping them
    // changes neither step's behavior. A time-triggered crash breaks
    // that: the swap moves a step across a crash time, changing which
    // processes are enabled. kDag has no such assumption.
    const FailurePattern fp =
        cfg.run.fp.has_value() ? *cfg.run.fp : FailurePattern::failureFree(n);
    for (Pid p = 0; p < n; ++p) {
      if (fp.crashTime(p) != kNeverCrashes) {
        throw SimAbort(
            "explore: kDpor requires a failure-free pattern (crashes break "
            "step commutation); use ExploreMode::kDag for this pattern");
      }
    }
  }

  FdEpochCtx fdctx;
  if (dpor && cfg.run.fd) {
    const Time tau = cfg.run.fd->stabilizationTime();
    if (cfg.run.fd->keyDigest() != fd::kOpaqueFdDigest &&
        tau != kNeverCrashes) {
      fdctx.enabled = true;
      fdctx.tau = tau;
    }
  }

  const std::uint64_t cert_key = certConfigKey(cfg, proposals);
  if (cert_key != 0) {
    if (auto cached = loadCert(*cfg.certificates, cert_key)) {
      return std::move(*cached);
    }
  }

  ExploreResult res;
  if (cfg.jobs <= 0) {
    WalkSpec spec;
    spec.cfg = &cfg;
    spec.algo = &algo;
    spec.proposals = &proposals;
    spec.fdctx = fdctx;
    res = std::move(walk(spec).res);
  } else {
    res = exploreFrontier(cfg, algo, proposals, fdctx, cert_key);
  }

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
