#include "core/omega_k_set_agreement.h"

#include <array>
#include <cassert>

#include "core/kconverge.h"

namespace wfd::core {

Coro<Value> omegaKSetAgreementInstance(Env& env, int k, int instance,
                                       Value v) {
  assert(k >= 1);
  const sim::ObjId d_reg = env.reg(sim::ObjKey{"omk.D", instance});
  // The current round's Ann[r+1][q] ids, cleared when the round starts and
  // each resolved once, at its first reference (which keeps the ObjId
  // creation order of resolving on every read). A fixed array in the
  // frame, so an instance allocates nothing for it.
  assert(env.nProcs() <= kMaxProcs);
  std::array<sim::ObjId, kMaxProcs> ann;
  ann.fill(-1);
  const auto annId = [&](int round, Pid q) {
    sim::ObjId& id = ann[static_cast<std::size_t>(q)];
    if (id < 0) id = env.reg(sim::ObjKey{"omk.Ann", round, q, instance});
    return id;
  };

  for (int r = 1;; ++r) {
    const Pick p =
        co_await kConverge(env, sim::ObjKey{"omk.conv", r, instance}, k, v);
    v = p.value;
    if (p.committed) {
      co_await env.write(d_reg, RegVal(v));
      co_return v;
    }
    {
      const RegVal d = (co_await env.read(d_reg)).scalar;
      if (!d.isBottom()) co_return d.asInt();
    }

    // Leader phase for round r+1. Announcements are PER ROUND and carry
    // the leader's post-converge pick: every value entering round r+1 is
    // a round-r pick, so once any round commits, C-Agreement's <= k
    // picked values bound every later value in the system. (A write-once
    // announcement would leak pre-elimination values back in and break
    // agreement — caught by the randomized soak tests.)
    const ProcSet leaders = (co_await env.queryFd()).scalar.asSet();
    ann.fill(-1);
    if (leaders.contains(env.me())) {
      co_await env.write(annId(r + 1, env.me()), RegVal(v));
    }
    // Adopt some leader's round-r+1 announcement; at most k exist, and
    // after the detector stabilizes one of them is written by a correct
    // leader every round, so all correct processes enter round r+1 with
    // <= k distinct values and k-converge commits. While waiting,
    // re-check the detector (pre-stabilization junk must not block) and
    // D (a decision releases everyone).
    for (;;) {
      bool adopted = false;
      for (Pid q : leaders) {
        const RegVal a = (co_await env.read(annId(r + 1, q))).scalar;
        if (!a.isBottom()) {
          v = a.asInt();
          adopted = true;
          break;
        }
      }
      if (adopted) break;
      const RegVal d = (co_await env.read(d_reg)).scalar;
      if (!d.isBottom()) co_return d.asInt();
      const ProcSet l2 = (co_await env.queryFd()).scalar.asSet();
      if (l2 != leaders) break;  // not stable yet: keep own pick
    }
  }
}

Coro<Unit> omegaKSetAgreement(Env& env, int k, Value v) {
  env.propose(v);
  const Value got = co_await omegaKSetAgreementInstance(env, k, -1, v);
  env.decide(got);
  co_return Unit{};
}

Coro<Unit> omegaConsensus(Env& env, Value v) {
  return omegaKSetAgreement(env, 1, v);
}

}  // namespace wfd::core
