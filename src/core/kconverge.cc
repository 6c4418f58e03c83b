#include "core/kconverge.h"

#include <cassert>

namespace wfd::core {

namespace {

using mem::SnapshotHandle;

// B-entry layout: (committed-tag, value, U-set as tuple of ints). Two
// allocations; a plain function, so the braced list stays out of the
// coroutine frame.
RegVal makeEntry(bool tag_c, Value v, const std::vector<Value>& u) {
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
  const std::vector<Value> u = mem::distinctValues(sa);

  // Phase 2: publish the tagged entry, observe everyone's tags.
  const bool tag_c = static_cast<int>(u.size()) <= k;
  co_await mem::snapshotUpdate(env, b, env.me(), makeEntry(tag_c, v, u));
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

}  // namespace wfd::core
