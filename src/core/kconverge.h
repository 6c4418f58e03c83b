// k-converge (Yang, Neiger, Gafni [21]) — the agreement primitive both of
// the paper's set-agreement protocols are built from.
//
// A process invokes k-converge with a value v in V and gets back (v', c):
// it "picks" v' and, if c, "commits" v'. Properties (paper Sect. 5.1):
//   C-Termination: every correct process picks some value.
//   C-Validity:    picked values were input by some process.
//   C-Agreement:   if some process commits, at most k values are picked.
//   Convergence:   if at most k distinct values are input, every picker
//                  commits.
// By definition 0-converge(v) always returns (v, false).
//
// Construction (two snapshot objects A, B per instance):
//   1. A.update(i, v); U_i := distinct values in A.snapshot().
//   2. tag_i := C if |U_i| <= k else A;
//      B.update(i, (tag_i, v, U_i)); sb_i := B.snapshot().
//   3. commit v iff tag_i = C and sb_i holds only C entries; otherwise
//      adopt min(U*) where U* is the largest committed set in sb_i (own v
//      if sb_i holds no C entry).
// Why it works: snapshots of A are related by containment, so committed
// U-sets form a chain; every committer's own value lies in the largest
// committed set U_max with |U_max| <= k. If anyone commits, an adopter
// that wrote an A-tagged entry cannot have scanned B before that
// committer's B-write (the committer would have seen the A tag), so its
// B-snapshot contains a C entry and it adopts inside U_max. With <= k
// distinct inputs every tag is C and everyone commits.
#pragma once

#include "memory/snapshot.h"
#include "sim/env.h"

namespace wfd::core {

using sim::Coro;
using sim::Env;
using sim::ObjKey;
using sim::Unit;

struct Pick {
  Value value = kBottomValue;
  bool committed = false;

  friend auto operator<=>(const Pick&, const Pick&) = default;
};

// One invocation of instance `key` with convergence parameter k.
// Each process must invoke a given instance at most once.
Coro<Pick> kConverge(Env& env, ObjKey key, int k, Value v);

// The one-shot k-converge task the tests, benches and tools share:
// propose v, invoke instance "x.conv" once, note the pick as "commit" or
// "adopt" with its value, and decide it. checkKConverge and picksOf
// (core/checkers.h) read the notes back.
Coro<Unit> kConvergeTask(Env& env, int k, Value v);

}  // namespace wfd::core
