#include "memory/mwmr.h"

namespace wfd::mem {

namespace {

sim::ObjId cellReg(Env& env, const ObjKey& key, int j) {
  ObjKey k = key;
  k.append("#mw");
  k.append(j);
  return env.reg(k);
}

struct Max {
  std::int64_t ts = 0;
  Pid writer = -1;
  RegVal value;
};

// Collect all cells and return the (ts, writer)-maximal entry.
Coro<Max> collectMax(Env& env, const ObjKey& key) {
  Max best;
  const int m = env.nProcs();
  for (int j = 0; j < m; ++j) {
    const RegVal c = (co_await env.read(cellReg(env, key, j))).scalar;
    if (c.isBottom()) continue;
    const auto& t = c.asTuple();
    const std::int64_t ts = t[0].asInt();
    const Pid w = static_cast<Pid>(t[1].asInt());
    if (ts > best.ts || (ts == best.ts && w > best.writer)) {
      best.ts = ts;
      best.writer = w;
      best.value = t[2];
    }
  }
  co_return best;
}

// Cell layout: (ts, writer, value). A plain function, so the braced list
// stays out of the coroutine frame.
RegVal makeCell(std::int64_t ts, Pid writer, const RegVal& v) {
  return RegVal::tuple({RegVal(ts), RegVal(static_cast<Value>(writer)), v});
}

}  // namespace

Coro<Unit> mwmrWrite(Env& env, ObjKey key, const RegVal& v) {
  const Max cur = co_await collectMax(env, key);
  co_await env.write(cellReg(env, key, env.me()),
                     makeCell(cur.ts + 1, env.me(), v));
  co_return Unit{};
}

Coro<MwmrRead> mwmrRead(Env& env, ObjKey key) {
  const Max cur = co_await collectMax(env, key);
  MwmrRead out;
  if (cur.writer >= 0) {
    // Write back what we are about to return: a later-starting read must
    // not see an older value than ours (atomicity of concurrent reads).
    co_await env.write(cellReg(env, key, env.me()),
                       makeCell(cur.ts, cur.writer, cur.value));
    out.value = cur.value;
    out.ts = cur.ts;
    out.writer = cur.writer;
  }
  co_return out;
}

}  // namespace wfd::mem
