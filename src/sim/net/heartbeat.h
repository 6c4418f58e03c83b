// The increasing-timeout heartbeat detector over a seed-deterministic
// faulty network (docs/NET.md), and the execution record it leaves.
//
// The protocol is the classic ◊P construction for partial synchrony
// (Chandra–Toueg [4]; the technique of SNIPPETS.md's
// EventuallyStrongDetector): every process broadcasts a heartbeat each
// `period` ticks and keeps one suspicion deadline per peer. Silence past
// the peer's current timeout => suspect; a heartbeat from a suspected
// peer => un-suspect AND raise that peer's timeout by `timeout_increment`
// (additive backoff).
//
// Convergence after GST: a live peer's heartbeats arrive at most
// period + delta apart, and each false suspicion permanently grows the
// timeout, so after finitely many mistakes timeout > period + delta and
// the peer is never suspected again. A crashed peer falls silent, its
// deadline passes, and the suspicion is permanent. Hence the suspicion
// sets of all live processes converge to exactly faulty(F) — the
// realized ◊P history that realized_fd.h certifies and lenses into Omega
// and Upsilon.
//
// The simulation runs in lockstep ticks. Tick 0 starts every live
// process (it publishes the empty suspicion set, broadcasts, and arms
// its deadlines). Each later tick, in this fixed order: (1) heartbeats
// due at the tick are delivered in (receiver, send sequence) order;
// (2) deadlines that expire fire in pid order, and within a pid the peer
// deadlines in peer order, then the send deadline. Every event is
// folded into NetCounters::trace_hash, so one (NetConfig, FailurePattern)
// pair names exactly one execution, bit for bit.
//
// Link fates are *stateless* functions of (seed, link, sequence) via
// hashedUniform — the same discipline FD histories use (common/rng.h) —
// so no drop/delay draw depends on simulation order. Before GST a
// heartbeat may be dropped (drop_permille), cut by a transient
// partition, or delayed arbitrarily within the envelope clamp; from GST
// on every heartbeat between live processes arrives within [1, delta]
// ticks. One due after the horizon is never delivered.
//
// Crashes come from the same FailurePattern the shared-memory world
// uses: a process with crashTime <= tick takes no actions (no sends, no
// deadlines) and deliveries to it are discarded; its heartbeats already
// in flight still arrive — exactly the asynchronous model's "crash =
// silence from then on".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/proc_set.h"
#include "common/types.h"
#include "sim/net/net_config.h"

namespace wfd::sim::net {

using wfd::ProcSet;

// One process's recorded output history: value `out` holds from `at`
// until the next switch (or the horizon). Lists are per-process and
// time-sorted by construction.
struct OutputSwitch {
  Time at = 0;
  ProcSet out;
};

struct NetCounters {
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;            // drop_permille fates
  std::int64_t partition_dropped = 0;  // partition-cut fates
  std::int64_t to_crashed = 0;         // deliveries discarded at a crashed pid
  std::int64_t timers_fired = 0;       // expired suspicion and send deadlines
  std::int64_t output_switches = 0;
  // Largest delivery delay of any heartbeat sent at or after GST — the
  // envelope contract says this never exceeds delta.
  Time max_post_gst_lag = 0;
  std::uint64_t trace_hash = 0;  // order-sensitive hash of every event
};

// One complete simulated heartbeat execution, shared by every lens cut
// from it (immutable after construction; safe across threads).
struct NetHistory {
  int n_plus_1 = 0;
  FailurePattern fp;
  NetConfig cfg;
  Time horizon = 0;
  std::vector<std::vector<OutputSwitch>> switches;  // per pid, time-sorted
  NetCounters counters;
  std::uint64_t digest = 0;  // pins (cfg, fp)

  // suspected_p(min(t, horizon)): binary search over p's switch list.
  [[nodiscard]] ProcSet suspectedAt(Pid p, Time t) const;

  NetHistory(int n, FailurePattern pattern, const NetConfig& config)
      : n_plus_1(n), fp(std::move(pattern)), cfg(config) {}
};

using NetHistoryPtr = std::shared_ptr<const NetHistory>;

// Run the heartbeat protocol from tick 0 through cfg.resolvedHorizon(fp)
// and record the execution. Throws SimAbort if any correct process's
// final suspicion set differs from faulty(fp) at the horizon.
[[nodiscard]] NetHistoryPtr simulateHeartbeats(const FailurePattern& fp,
                                               const NetConfig& cfg);

}  // namespace wfd::sim::net
