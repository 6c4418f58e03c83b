#include "core/kconverge.h"

#include <array>
#include <cassert>

namespace wfd::core {

namespace {

using mem::SnapshotHandle;

// The B entry of a process with input v that scanned `sa` in phase 1:
// (committed-tag, v, U as a tuple of ints), where U is the set of inputs
// in `sa` and the tag is |U| <= k. Two tuples; a plain function, so U's
// buffer sits on the stack, out of the coroutine frame and off the heap.
RegVal makeEntry(std::span<const RegVal> sa, int k, Value v) {
  assert(sa.size() <= static_cast<std::size_t>(kMaxProcs));
  std::array<Value, kMaxProcs> buf;
  const std::span<const Value> u = mem::distinctValuesInto(sa, buf);
  const bool tag_c = static_cast<int>(u.size()) <= k;
  return RegVal::tuple({RegVal(tag_c), RegVal(v), RegVal::tuple(u)});
}

ObjKey subKey(ObjKey key, const char* suffix) {
  key.append(suffix);
  return key;
}

}  // namespace

Coro<Pick> kConverge(Env& env, ObjKey key, int k, Value v) {
  assert(v != kBottomValue);
  assert(k >= 0);
  if (k == 0) co_return Pick{v, false};  // 0-converge by definition

  const int m = env.nProcs();
  const SnapshotHandle a = mem::makeSnapshot(env, subKey(key, ".A"), m);
  const SnapshotHandle b = mem::makeSnapshot(env, subKey(key, ".B"), m);

  // Phase 1: publish the input, observe the input set so far.
  co_await mem::snapshotUpdate(env, a, env.me(), RegVal(v));
  const SlotArray sa = co_await mem::snapshotScan(env, a);
  const RegVal entry = makeEntry(sa, k, v);

  // Phase 2: publish the tagged entry, observe everyone's tags.
  const bool tag_c = entry.asTuple()[0].asBool();
  co_await mem::snapshotUpdate(env, b, env.me(), entry);
  const SlotArray sb = co_await mem::snapshotScan(env, b);

  bool all_c = true;
  std::size_t best_size = 0;
  Value adopt = v;  // falls back to own value if no C entry is visible
  for (const auto& cell : sb) {
    if (cell.isBottom()) continue;
    const auto& e = cell.asTuple();
    if (!e[0].asBool()) {
      all_c = false;
      continue;
    }
    const auto& uset = e[2].asTuple();
    if (uset.size() > best_size) {
      best_size = uset.size();
      Value mn = uset[0].asInt();
      for (const auto& x : uset) mn = std::min(mn, x.asInt());
      adopt = mn;
    }
  }

  if (tag_c && all_c) co_return Pick{v, true};
  co_return Pick{adopt, false};
}

Coro<Unit> kConvergeTask(Env& env, int k, Value v) {
  env.propose(v);
  const Pick p = co_await kConverge(env, ObjKey{"x.conv"}, k, v);
  env.note(p.committed ? "commit" : "adopt", RegVal(p.value));
  env.decide(p.value);
  co_return Unit{};
}

}  // namespace wfd::core
