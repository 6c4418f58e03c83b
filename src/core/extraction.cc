#include "core/extraction.h"

#include <vector>

namespace wfd::core {

namespace {

// Heartbeat cell: (D's value, fresh timestamp). A plain function, so the
// braced list stays out of the coroutine frame.
RegVal heartbeat(const ProcSet& d, std::int64_t ts) {
  return RegVal::tuple({RegVal(d), RegVal(ts)});
}

}  // namespace

Coro<Unit> extractUpsilonF(Env& env, PhiPtr phi) {
  const int n_plus_1 = env.nProcs();
  const ProcSet pi_all = ProcSet::full(n_plus_1);
  const auto n = static_cast<std::size_t>(n_plus_1);
  // R[j] and Obs[j], each resolved once, at its first reference (which
  // keeps the ObjId creation order of resolving on every access).
  std::vector<sim::ObjId> r_ids(n, -1);
  std::vector<sim::ObjId> obs_ids(n, -1);
  const auto idOf = [&env](std::vector<sim::ObjId>& ids, const char* tag,
                           Pid j) {
    sim::ObjId& id = ids[static_cast<std::size_t>(j)];
    if (id < 0) id = env.reg(sim::ObjKey{tag, j});
    return id;
  };
  const sim::ObjId own_r = idOf(r_ids, "fig3.R", env.me());

  std::int64_t ts = 0;

  // Round state (reset whenever a value != d is reported).
  bool have_candidate = false;
  ProcSet d;                       // the candidate stable value of D
  const PhiResult* phi_d = nullptr;  // (S, w) = phi_D(d)
  bool output_is_s = false;        // line 19/20 reached
  int batches_done = 0;
  std::vector<std::int64_t> last_ts(static_cast<std::size_t>(n_plus_1), -1);
  std::vector<int> fresh(static_cast<std::size_t>(n_plus_1), 0);

  env.publishIfChanged(RegVal(pi_all));

  auto startRound = [&](const ProcSet& new_d) {
    have_candidate = true;
    d = new_d;
    phi_d = phi->find(d);
    if (phi_d == nullptr) {
      throw sim::SimAbort("fig3: phi_D designates nothing for " +
                          d.toString());
    }
    output_is_s = false;
    batches_done = 0;
    std::fill(fresh.begin(), fresh.end(), 0);
    // Line 8: in the beginning of the round the output is Pi.
    env.publishIfChanged(RegVal(pi_all));
  };

  for (;;) {
    // ---- Task 1 heartbeat: query D, report (value, fresh timestamp).
    const ProcSet my_d = (co_await env.queryFd()).scalar.asSet();
    ++ts;
    co_await env.write(own_r, heartbeat(my_d, ts));

    if (!have_candidate || my_d != d) {
      // Own module changed: new round with the new value.
      startRound(my_d);
      continue;
    }

    // ---- Task 2: collect everyone's reports.
    bool restarted = false;
    for (Pid j = 0; j < n_plus_1 && !restarted; ++j) {
      const RegVal cell =
          (co_await env.read(idOf(r_ids, "fig3.R", j))).scalar;
      if (cell.isBottom()) continue;
      const auto& t = cell.asTuple();
      const ProcSet dj = t[0].asSet();
      const std::int64_t tsj = t[1].asInt();
      const auto ji = static_cast<std::size_t>(j);
      if (tsj <= last_ts[ji]) continue;  // nothing new from p_j
      last_ts[ji] = tsj;
      if (dj != d) {
        // Line 18: some process reports D has not stabilized on d yet.
        startRound(my_d);
        restarted = true;
        break;
      }
      // A fresh report of d: one more observed query-step with value d.
      if (fresh[ji] < 2) ++fresh[ji];
    }
    if (restarted || output_is_s) continue;

    if (phi_d->correct_sigma == pi_all) {
      // S = Pi: the output is already Pi; block in line 21 (i.e. keep
      // heartbeating until a different value shows up).
      continue;
    }

    // Line 15: batch accounting — a batch completes when every process
    // has reported d with a fresh timestamp at least twice.
    bool batch_complete = true;
    for (int j = 0; j < n_plus_1; ++j) {
      if (fresh[static_cast<std::size_t>(j)] < 2) {
        batch_complete = false;
        break;
      }
    }
    if (batch_complete) {
      ++batches_done;
      std::fill(fresh.begin(), fresh.end(), 0);
    }

    if (batches_done >= phi_d->w) {
      // Observed w(sigma) batches myself: record it for the others
      // (line 19) and adopt S (line 20).
      co_await env.write(idOf(obs_ids, "fig3.Obs", env.me()), RegVal(d));
      output_is_s = true;
      env.publishIfChanged(RegVal(phi_d->correct_sigma));
      continue;
    }

    // Or adopt another process's completed observation for this d.
    for (Pid j = 0; j < n_plus_1; ++j) {
      const RegVal obs =
          (co_await env.read(idOf(obs_ids, "fig3.Obs", j))).scalar;
      if (obs == RegVal(d)) {
        output_is_s = true;
        env.publishIfChanged(RegVal(phi_d->correct_sigma));
        break;
      }
    }
  }
}

}  // namespace wfd::core
