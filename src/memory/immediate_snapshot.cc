#include "memory/immediate_snapshot.h"

#include <string>

namespace wfd::mem {

namespace {

sim::ObjId cellReg(Env& env, const ObjKey& key, int j) {
  ObjKey k = key;
  k.append("#is");
  k.append(j);
  return env.reg(k);
}

// Cell layout: (value, level). A plain function, so the braced list stays
// out of the coroutine frame.
RegVal makeCell(const RegVal& v, int level) {
  return RegVal::tuple({v, RegVal(static_cast<Value>(level))});
}

}  // namespace

Coro<std::vector<RegVal>> immediateSnapshot(Env& env, ObjKey key,
                                            const RegVal& v) {
  const int m = env.nProcs();
  int level = m + 1;
  for (;;) {
    --level;
    co_await env.write(cellReg(env, key, env.me()), makeCell(v, level));
    // Collect: who is at or below my level?
    std::vector<RegVal> view(static_cast<std::size_t>(m));
    int at_or_below = 0;
    for (int j = 0; j < m; ++j) {
      const RegVal c = (co_await env.read(cellReg(env, key, j))).scalar;
      if (c.isBottom()) continue;
      const auto& t = c.asTuple();
      if (t[1].asInt() <= level) {
        view[static_cast<std::size_t>(j)] = t[0];
        ++at_or_below;
      }
    }
    if (at_or_below >= level) co_return view;
    // Not enough company at this level: descend. level >= 1 always
    // terminates (self counts at level 1).
  }
}

}  // namespace wfd::mem
