#include "core/upsilon_f_set_agreement.h"

#include <cassert>

#include "core/kconverge.h"
#include "memory/snapshot.h"

namespace wfd::core {

Coro<Value> upsilonFSetAgreementInstance(Env& env, int f, int instance,
                                         Value v) {
  const int n_plus_1 = env.nProcs();
  assert(f >= 1 && f <= n_plus_1 - 1);
  const sim::ObjId d_reg = env.reg(sim::ObjKey{"fig2.D", instance});

  for (int r = 1;; ++r) {
    // Round opener: f-convergence; a commit is decided through D.
    const Pick p =
        co_await kConverge(env, sim::ObjKey{"fig2.conv", r, instance}, f, v);
    v = p.value;
    if (p.committed) {
      co_await env.write(d_reg, RegVal(v));
      co_return v;
    }
    {
      const RegVal d = (co_await env.read(d_reg)).scalar;
      if (!d.isBottom()) co_return d.asInt();
    }

    ProcSet prev_u = (co_await env.queryFd()).scalar.asSet();

    const sim::ObjId dr_reg = env.reg(sim::ObjKey{"fig2.Dr", r, instance});
    const sim::ObjId st_reg =
        env.reg(sim::ObjKey{"fig2.Stable", r, instance});
    for (int k = 1;; ++k) {
      const ProcSet u = (co_await env.queryFd()).scalar.asSet();
      if (u != prev_u) {
        co_await env.write(st_reg, RegVal(true));
        break;
      }
      if (!u.contains(env.me())) {
        // Citizen: write the value in D[r] (line 11) and advance.
        env.note("citizen", u);
        co_await env.write(dr_reg, RegVal(v));
        break;
      }

      // Gladiator (lines 15-30): publish the value in snapshot A[r][k]...
      env.note("gladiator", u);
      const auto a = mem::makeSnapshot(
          env, sim::ObjKey{"fig2.A", r, k, instance}, n_plus_1);
      co_await mem::snapshotUpdate(env, a, env.me(), RegVal(v));

      // ...then repeatedly snapshot until at least n+1-f non-⊥ entries
      // are visible (lines 17-19). The loop must stay escapable: it polls
      // D[r] (adopt), D (decide), Stable[r] (advance) and the detector
      // (instability), per the Theorem 6 liveness argument.
      SlotArray view;
      bool escaped = false;
      bool decided = false;
      Value decided_value = kBottomValue;
      for (;;) {
        view = co_await mem::snapshotScan(env, a);
        if (mem::nonBottomCount(view) >= n_plus_1 - f) break;
        const RegVal dr = (co_await env.read(dr_reg)).scalar;
        if (!dr.isBottom()) {
          v = dr.asInt();  // line 23: adopt and move to round r+1
          escaped = true;
          break;
        }
        const RegVal d = (co_await env.read(d_reg)).scalar;
        if (!d.isBottom()) {
          decided_value = d.asInt();
          decided = true;
          break;
        }
        if ((co_await env.read(st_reg)).scalar == RegVal(true)) {
          escaped = true;
          break;
        }
        const ProcSet u2 = (co_await env.queryFd()).scalar.asSet();
        if (u2 != u) {
          co_await env.write(st_reg, RegVal(true));
          escaped = true;
          break;
        }
      }
      if (decided) co_return decided_value;
      if (escaped) break;

      // Line 25: adopt the minimal value of the latest snapshot; line 26:
      // (|U|+f-n-1)-converge on it. Snapshot containment caps the number
      // of distinct adopted values at |U|+f-n-1 in the critical case.
      const Value adopted = mem::minValue(view);
      assert(adopted != kBottomValue);
      v = adopted;
      const int kk = u.size() + f - n_plus_1;  // |U| + f - (n+1)
      const Pick g = co_await kConverge(
          env, sim::ObjKey{"fig2.sub", r, k, instance}, kk, v);
      v = g.value;
      if (g.committed) {
        co_await env.write(dr_reg, RegVal(v));
        break;
      }

      if ((co_await env.read(st_reg)).scalar == RegVal(true)) break;
      if (!(co_await env.read(dr_reg)).scalar.isBottom()) break;
      const RegVal d = (co_await env.read(d_reg)).scalar;
      if (!d.isBottom()) co_return d.asInt();
    }

    const RegVal d = (co_await env.read(d_reg)).scalar;
    if (!d.isBottom()) co_return d.asInt();
    // Line 33: adopt D[r] if non-⊥ before entering round r+1.
    const RegVal dr = (co_await env.read(dr_reg)).scalar;
    if (!dr.isBottom()) v = dr.asInt();
  }
}

Coro<Unit> upsilonFSetAgreement(Env& env, int f, Value v) {
  env.propose(v);
  const Value got = co_await upsilonFSetAgreementInstance(env, f, -1, v);
  env.decide(got);
  co_return Unit{};
}

}  // namespace wfd::core
