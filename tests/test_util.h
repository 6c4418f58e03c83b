// Shared harness helpers: the tests, the benches (bench/) and the tools
// (tools/determinism_check) all include this one header, so a proposal
// vector, a brute-force oracle or the seeded-bug workload is written once.
// gtest-free on purpose.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "wfd.h"

namespace wfd::test {

// Distinct proposals 100, 101, ..., so every decision is attributable.
inline std::vector<Value> distinctProposals(int n_plus_1) {
  std::vector<Value> v(static_cast<std::size_t>(n_plus_1));
  for (int i = 0; i < n_plus_1; ++i) v[static_cast<std::size_t>(i)] = 100 + i;
  return v;
}

// Proposals with exactly `k` distinct values (cyclic assignment).
inline std::vector<Value> proposalsWithDistinct(int n_plus_1, int k) {
  std::vector<Value> v(static_cast<std::size_t>(n_plus_1));
  for (int i = 0; i < n_plus_1; ++i) {
    v[static_cast<std::size_t>(i)] = 100 + (i % k);
  }
  return v;
}

// Every distinct interleaving of fixed per-process step counts: the
// distinct permutations of the multiset holding counts[p] copies of each
// pid p, in lexicographic order. The explorer's brute-force oracle, run
// schedule by schedule through runScheduled.
inline void forEachInterleaving(
    std::vector<int> counts,
    const std::function<void(const std::vector<Pid>&)>& fn) {
  int total = 0;
  for (const int c : counts) total += c;
  std::vector<Pid> seq;
  const std::function<void()> rec = [&] {
    if (static_cast<int>(seq.size()) == total) {
      fn(seq);
      return;
    }
    for (Pid p = 0; p < static_cast<Pid>(counts.size()); ++p) {
      if (counts[static_cast<std::size_t>(p)] == 0) continue;
      --counts[static_cast<std::size_t>(p)];
      seq.push_back(p);
      rec();
      seq.pop_back();
      ++counts[static_cast<std::size_t>(p)];
    }
  };
  rec();
}

// One run of `algo` along the pid sequence `seq` (round-robin once the
// script runs out), for at most cfg.max_steps steps, then harvested; the
// RunResult's `steps` is the number taken. cfg.policy is ignored.
inline sim::RunResult runScheduled(const sim::RunConfig& cfg,
                                   const sim::AlgoFn& algo,
                                   const std::vector<Value>& proposals,
                                   const std::vector<Pid>& seq) {
  sim::Run run(cfg, algo, proposals);
  sim::ScriptedPolicy policy(seq, std::make_unique<sim::RoundRobinPolicy>());
  return run.finish(run.scheduler().run(policy, cfg.max_steps));
}

// The seeded negative control: a commit-adopt that publishes and observes
// like kConvergeTask's phase 1 but, on disagreement, ADOPTS ITS OWN value
// instead of one from the observed set. A solo-first schedule lets the
// early process commit while a later one keeps its own different value,
// so checkKConverge reports a C-Agreement violation at k = 1.
inline sim::Coro<sim::Unit> buggyOneShot(sim::Env& env, Value v) {
  env.propose(v);
  const mem::SnapshotHandle s =
      mem::makeSnapshot(env, sim::ObjKey{"x.bug"}, env.nProcs());
  co_await mem::snapshotUpdate(env, s, env.me(), RegVal(v));
  const SlotArray view = co_await mem::snapshotScan(env, s);
  const bool commit = mem::distinctValues(view).size() <= 1;
  env.note(commit ? "commit" : "adopt", RegVal(v));  // bug: always own v
  env.decide(v);
  co_return sim::Unit{};
}

}  // namespace wfd::test
