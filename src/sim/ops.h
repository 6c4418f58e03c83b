// Atomic operations a process can perform in one step.
//
// Matches the paper's step definition (Sect. 3.3): in each step a process
// either invokes one operation on one shared object, or queries its
// failure detector module. OpNoop models a pure local step (used by
// reductions that must "take a step" without touching memory).
#pragma once

#include <cstdint>
#include <variant>

#include "common/reg_val.h"
#include "common/slot_array.h"
#include "common/types.h"

namespace wfd::sim {

using wfd::ObjId;
using wfd::Pid;
using wfd::RegVal;
using wfd::SlotArray;
using wfd::Time;

struct OpRead {
  ObjId obj;
};
struct OpWrite {
  ObjId obj;
  RegVal val;
};
struct OpSnapUpdate {
  ObjId obj;
  int slot;
  RegVal val;
};
struct OpSnapScan {
  ObjId obj;
};
struct OpFdQuery {};
struct OpNoop {};
// One-shot consensus base object: the first proposal wins; every
// propose() returns the winner. The object enforces its port limit (an
// m-process consensus object accepts proposals from at most m distinct
// processes) — the resource the boosting question of Corollary 4 is
// about.
struct OpConsPropose {
  ObjId obj;
  RegVal val;
};

using Op = std::variant<OpRead, OpWrite, OpSnapUpdate, OpSnapScan, OpFdQuery,
                        OpNoop, OpConsPropose>;

struct OpResult {
  RegVal scalar;       // read result / FD output
  SlotArray snapshot;  // scan result: the scanned object's cells, shared
};

// ---- Step footprints (sim/explore.h) --------------------------------------
//
// A footprint is the commutativity-relevant abstraction of one executed
// operation: which object it touched and how. The schedule explorer derives
// its independence relation from footprints; World records the footprint of
// every executed op so the explorer never re-parses the Op variant.

enum class OpClass : std::uint8_t {
  kNone,     // OpNoop: a pure local step, commutes with everything
  kRead,     // register read
  kWrite,    // register write
  kScan,     // snapshot scan
  kUpdate,   // snapshot update (slot-disjoint updates commute)
  kPropose,  // consensus proposal (first wins: never commutes on one object)
  kFdQuery,  // FD answers are functions of global time; see fd_epoch below
};

// FD stability-epoch classification of one executed query (kFdQuery only).
// kFdEpochUnstable means "no stability interval could be certified for
// this query": its answer may depend on the exact global time of the
// querying step, so it stays dependent with everything — the original,
// conservative relation. A non-negative epoch asserts the query's answer
// is CONSTANT over every global time the step can occupy within its
// Mazurkiewicz trace class (today the only certified interval is epoch 0,
// the post-stabilizationTime() tail, where the online axiom checker
// already enforces H(p, t) = H(q, t') for all t, t' >= tau). The explorer
// fills this in from the detector's metadata plus the step's causal past;
// World::execute always reports kFdEpochUnstable.
inline constexpr int kFdEpochUnstable = -1;

struct OpFootprint {
  OpClass cls = OpClass::kNone;
  ObjId obj = -1;
  int slot = -1;      // OpSnapUpdate only
  int fd_epoch = kFdEpochUnstable;  // OpFdQuery only
};

[[nodiscard]] inline OpFootprint footprintOf(const Op& op) {
  if (const auto* r = std::get_if<OpRead>(&op)) {
    return {OpClass::kRead, r->obj, -1};
  }
  if (const auto* w = std::get_if<OpWrite>(&op)) {
    return {OpClass::kWrite, w->obj, -1};
  }
  if (const auto* u = std::get_if<OpSnapUpdate>(&op)) {
    return {OpClass::kUpdate, u->obj, u->slot};
  }
  if (const auto* s = std::get_if<OpSnapScan>(&op)) {
    return {OpClass::kScan, s->obj, -1};
  }
  if (std::holds_alternative<OpFdQuery>(op)) {
    return {OpClass::kFdQuery, -1, -1};
  }
  if (const auto* c = std::get_if<OpConsPropose>(&op)) {
    return {OpClass::kPropose, c->obj, -1};
  }
  return {OpClass::kNone, -1, -1};  // OpNoop
}

// The independence relation (DESIGN.md / docs/EXPLORE.md): two steps commute
// iff swapping adjacent occurrences cannot change either step's result or
// the resulting memory state. Conservative on purpose — anything not proven
// independent is treated as dependent.
[[nodiscard]] inline bool footprintsCommute(const OpFootprint& a,
                                            const OpFootprint& b) {
  // FD answers depend on the global clock position of the querying step,
  // and every step advances the clock: an UNSTABLE query (fd_epoch < 0)
  // never reorders across anything. A query certified inside a stability
  // interval answers a constant of that interval, touches no shared
  // memory, and no memory operation's result depends on time — so it
  // commutes with every non-query step, and two certified queries commute
  // with each other iff they sit in the SAME interval of the one
  // detector history a run carries (docs/EXPLORE.md soundness argument).
  if (a.cls == OpClass::kFdQuery && b.cls == OpClass::kFdQuery) {
    return a.fd_epoch >= 0 && a.fd_epoch == b.fd_epoch;
  }
  if (a.cls == OpClass::kFdQuery) return a.fd_epoch >= 0;
  if (b.cls == OpClass::kFdQuery) return b.fd_epoch >= 0;
  if (a.cls == OpClass::kNone || b.cls == OpClass::kNone) return true;
  if (a.obj != b.obj) return true;  // disjoint objects always commute
  if (a.cls == OpClass::kRead && b.cls == OpClass::kRead) return true;
  if (a.cls == OpClass::kScan && b.cls == OpClass::kScan) return true;
  if (a.cls == OpClass::kUpdate && b.cls == OpClass::kUpdate) {
    return a.slot != b.slot;  // single-writer slots: disjoint cells commute
  }
  return false;
}

// ---- Stable signatures ----------------------------------------------------
//
// Cheap stable signature of one executed operation, folded into the trace's
// op digest (Trace::mixOp) and into the explorer's state digests. Covers the
// op kind, target object, slot, and argument value — enough that any
// divergence in the executed op stream (a different schedule, a
// nondeterministic argument) changes the run's trace hash.
[[nodiscard]] inline std::uint64_t opSignature(const Op& op) {
  std::uint64_t h = 0x100000001B3ULL * (op.index() + 1);
  if (const auto* w = std::get_if<OpWrite>(&op)) {
    h ^= static_cast<std::uint64_t>(w->obj) * 0x9E3779B97F4A7C15ULL;
    h ^= w->val.hash64();
  } else if (const auto* r = std::get_if<OpRead>(&op)) {
    h ^= static_cast<std::uint64_t>(r->obj) * 0x9E3779B97F4A7C15ULL;
  } else if (const auto* u = std::get_if<OpSnapUpdate>(&op)) {
    h ^= static_cast<std::uint64_t>(u->obj) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(u->slot) << 32;
    h ^= u->val.hash64();
  } else if (const auto* s = std::get_if<OpSnapScan>(&op)) {
    h ^= static_cast<std::uint64_t>(s->obj) * 0x9E3779B97F4A7C15ULL;
  } else if (const auto* c = std::get_if<OpConsPropose>(&op)) {
    h ^= static_cast<std::uint64_t>(c->obj) * 0x9E3779B97F4A7C15ULL;
    h ^= c->val.hash64();
  }
  return h;
}

// Stable signature of an operation's RESULT, folded into the op digest
// alongside the op signature (and into the explorer's per-process local
// state digests). Covers read values, scan views, consensus winners and FD
// answers, so a nondeterministic object implementation — or an
// injected-delay bug — is caught even when the executed op stream is
// identical.
[[nodiscard]] inline std::uint64_t resultSignature(const OpResult& res) {
  std::uint64_t h = 0x27D4EB2F165667C5ULL;
  h ^= res.scalar.hash64();
  for (const RegVal& v : res.snapshot) {
    h = (h ^ v.hash64()) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace wfd::sim
