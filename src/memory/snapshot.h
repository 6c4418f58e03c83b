// Atomic snapshot objects (Afek, Attiya, Dolev, Gafni, Merritt, Shavit).
//
// Fig. 2 of the paper relies on single-writer atomic snapshots, and on the
// fact that they are implementable from registers alone. We provide both:
//   * kNative — the object is a base shared object; update and scan each
//     cost one atomic step (the idealized oracle-like object).
//   * kAfek   — the wait-free construction from registers: scans are
//     double collects, with "borrowed" embedded scans after a writer is
//     observed moving twice. This is the implementation that discharges
//     the paper's "atomic snapshots can be implemented from registers"
//     assumption ([1] in the paper).
// Both flavors guarantee that scans are related by containment, which is
// the property the Fig. 2 termination proof leans on.
//
// Slots are single-writer: slot i is only ever updated by process p_i
// (matching the paper's A[r][k][i] usage).
#pragma once

#include <coroutine>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/env.h"

namespace wfd::mem {

using sim::Coro;
using sim::Env;
using sim::ObjKey;
using sim::SnapshotFlavor;
using sim::Unit;

struct SnapshotHandle {
  ObjKey key;
  int slots = 0;
  SnapshotFlavor flavor = SnapshotFlavor::kNative;
  // The native object's id, cached by the first update or scan through
  // this handle (-1 until then). The key is still resolved at its first
  // reference, so ObjIds come out in the same order as without the cache.
  // A handle names an object of one world: keep it in the coroutine frame
  // that uses it, never share one across runs.
  mutable sim::ObjId id = -1;
};
// Coroutines take handles by reference and copy them freely; see the
// ObjKey comment in sim/object_table.h.
static_assert(std::is_trivially_copyable_v<SnapshotHandle>);

// Handle construction is free (naming, not memory access). The 2-argument
// form uses the world's configured default flavor.
SnapshotHandle makeSnapshot(Env& env, ObjKey key, int slots);
SnapshotHandle makeSnapshot(ObjKey key, int slots, SnapshotFlavor flavor);

// What snapshotUpdate/snapshotScan return: one awaitable that is either
// the native object's atomic step itself (an OpAwait, no child frame) or
// the Afek construction's coroutine (C its result, converted to T).
// Await it in the full expression that made it, as every call site does.
template <class T, class C = T>
class SnapAwait {
 public:
  explicit SnapAwait(sim::OpAwait op) : op_(std::move(op)) {}
  explicit SnapAwait(Coro<C> coro) : coro_(std::move(coro)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    if (coro_.handle()) {
      coro_.await_suspend(h);
    } else {
      op_.await_suspend(h);
    }
  }
  T await_resume() {
    if (coro_.handle()) return T(coro_.await_resume());
    if constexpr (std::is_same_v<T, SlotArray>) {
      return std::move(op_.await_resume().snapshot);
    } else {
      (void)op_.await_resume();
      return T{};
    }
  }

 private:
  sim::OpAwait op_;  // the native step (unused for Afek)
  Coro<C> coro_;     // the Afek coroutine (empty for native)
};

// update(i, v) / scan() per the paper's object definition. A native op
// names its object when it is called and copies v into the step's op, so
// naming happens at the same point of the caller's program as the step.
// The Afek construction takes v by const& (coroutine parameters must be
// trivially copyable or references — see sim/object_table.h); the
// referenced value only needs to live until the awaitable is awaited,
// which every call site does within the same full expression.
SnapAwait<Unit> snapshotUpdate(Env& env, const SnapshotHandle& h, int slot,
                               const RegVal& v);
// A native scan shares the object's cells (one count increment); an Afek
// scan wraps the cells its collects built.
SnapAwait<SlotArray, std::vector<RegVal>> snapshotScan(
    Env& env, const SnapshotHandle& h);

// ---- Small helpers over scan results (a SlotArray or any vector) ----
int nonBottomCount(std::span<const RegVal> slots);
// The int cells' values, ascending, each once (⊥ and non-int cells skipped).
std::vector<Value> distinctValues(std::span<const RegVal> slots);
// The same, written to the front of `buf` (at least slots.size() long)
// without allocating; returns that prefix.
std::span<const Value> distinctValuesInto(std::span<const RegVal> slots,
                                          std::span<Value> buf);
Value minValue(std::span<const RegVal> slots);  // kBottomValue if empty

}  // namespace wfd::mem
