// Configuration of the message-passing substrate (docs/NET.md).
//
// The net world realizes the partial-synchrony model the literature's
// heartbeat detectors assume (Chandra–Toueg; the increasing-timeout
// technique of SNIPPETS.md's EventuallyStrongDetector): links may drop,
// reorder, and arbitrarily delay messages BEFORE an unknown global
// stabilization time GST, and are reliable with delivery bound `delta`
// AFTER it. Everything below is plain data: a NetConfig plus a
// FailurePattern is a complete, seed-deterministic description of one
// network execution, and digest() pins it for the ReportCache.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "sim/failure_pattern.h"

namespace wfd::sim::net {

using wfd::Pid;
using wfd::Time;

// The partial-synchrony envelope. Faults are injected strictly before
// `gst`; from `gst` on every message between live processes is delivered
// within `delta` ticks. Messages still in flight at GST are delivered by
// gst + delta (the envelope clamps their fate), so the contract "no
// message sent at s arrives after max(s, gst) + delta" holds globally.
struct SynchronyEnvelope {
  Time gst = 0;
  Time delta = 4;  // post-GST delivery bound; >= 1
};

// Pre-GST link behavior. All of it is *bounded by the envelope*: a
// message that escapes the drop/partition fate is delivered no later
// than gst + delta however large its drawn delay was.
struct LinkFaults {
  Time min_delay = 1;       // pre-GST delay draw, inclusive lower bound
  Time max_delay = 12;      // pre-GST delay draw, inclusive upper bound
  int drop_permille = 0;    // per-message drop probability (0..1000)
  int partitions = 0;       // transient bipartition windows before GST
  Time partition_len = 64;  // length of each partition window
};

// The heartbeat protocol's knobs (src/sim/net/heartbeat.h): broadcast a
// heartbeat every `period`; suspect a peer after `initial_timeout` ticks
// of silence; on a late heartbeat from a suspected peer, un-suspect and
// raise that peer's timeout by `timeout_increment` (per-peer additive
// backoff — eventually the timeout exceeds period + delta and the false
// suspicions stop, which is the whole convergence argument).
struct HeartbeatConfig {
  Time period = 2;
  Time initial_timeout = 4;
  Time timeout_increment = 2;
};

struct NetConfig {
  SynchronyEnvelope env;
  LinkFaults faults;
  HeartbeatConfig hb;
  std::uint64_t seed = 1;
  // Ticks to simulate; 0 derives a bound from the envelope, the protocol
  // constants, and the pattern (resolvedHorizon) that comfortably covers
  // convergence of every realized lens.
  Time horizon = 0;

  [[nodiscard]] Time resolvedHorizon(const FailurePattern& fp) const {
    if (horizon > 0) return horizon;
    Time last_crash = 0;
    for (Pid p = 0; p < fp.nProcs(); ++p) {
      if (fp.crashTime(p) != kNeverCrashes) {
        last_crash = std::max(last_crash, fp.crashTime(p));
      }
    }
    const Time base = std::max(env.gst, last_crash);
    const Time slack =
        64 * (hb.period + env.delta + hb.initial_timeout + hb.timeout_increment);
    return base + slack;
  }

  // Pins every field that can change the simulated execution. Composes
  // with fd::digestPattern so (cfg, fp) keys realized histories.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = mixDigest(0x4E455457, 0x4F524C44);  // "NETW","ORLD"
    h = mixDigest(h, static_cast<std::uint64_t>(env.gst));
    h = mixDigest(h, static_cast<std::uint64_t>(env.delta));
    h = mixDigest(h, static_cast<std::uint64_t>(faults.min_delay));
    h = mixDigest(h, static_cast<std::uint64_t>(faults.max_delay));
    h = mixDigest(h, static_cast<std::uint64_t>(faults.drop_permille));
    h = mixDigest(h, static_cast<std::uint64_t>(faults.partitions));
    h = mixDigest(h, static_cast<std::uint64_t>(faults.partition_len));
    h = mixDigest(h, static_cast<std::uint64_t>(hb.period));
    h = mixDigest(h, static_cast<std::uint64_t>(hb.initial_timeout));
    h = mixDigest(h, static_cast<std::uint64_t>(hb.timeout_increment));
    h = mixDigest(h, seed);
    h = mixDigest(h, static_cast<std::uint64_t>(horizon));
    return h;
  }
};

}  // namespace wfd::sim::net
