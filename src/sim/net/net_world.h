// NetWorld: a seed-deterministic message-passing world (docs/NET.md).
//
// A discrete-event simulation in lockstep ticks. Each tick, in this
// fixed order: (1) messages scheduled for the tick are delivered in
// canonical (receiver, sequence) order, (2) expired virtual timers fire
// in (pid, timer id) order. Processes are event-driven automata
// (NetProcess) that may send, set timers, and publish a
// failure-detector output (a ProcSet) in response; all of their actions
// are mediated by NetContext, which stamps every effect into the event
// hash — so one (NetConfig, FailurePattern) pair names exactly one
// execution, bit for bit.
//
// Link fates are *stateless* functions of (seed, link, sequence) via
// hashedUniform — the same discipline FD histories use (common/rng.h) —
// so no drop/delay draw depends on exploration order. Before GST a
// message may be dropped (drop_permille), cut by a transient partition,
// or delayed arbitrarily within the envelope clamp; from GST on every
// message between live processes arrives within [1, delta] ticks.
//
// Crashes come from the same FailurePattern the shared-memory world
// uses: a process with crashTime <= tick takes no actions (no sends, no
// timer callbacks) and deliveries to it are discarded; its messages
// already in flight still arrive — exactly the asynchronous model's
// "crash = silence from then on".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/proc_set.h"
#include "common/types.h"
#include "sim/net/net_config.h"

namespace wfd::sim::net {

using wfd::ProcSet;

// A point-to-point message. `tag`/`payload` are protocol-defined; the
// substrate never interprets them beyond hashing.
struct Message {
  Pid from = -1;
  int tag = 0;
  std::int64_t payload = 0;
};

class NetWorld;

// The capability surface a process sees while handling an event. All
// methods are valid only inside onStart/onMessage/onTimer callbacks.
class NetContext {
 public:
  [[nodiscard]] Pid me() const { return me_; }
  [[nodiscard]] int nProcs() const;
  [[nodiscard]] Time now() const;

  void send(Pid to, int tag, std::int64_t payload = 0);
  void broadcast(int tag, std::int64_t payload = 0);  // to every peer != me

  // Arm (or re-arm: same id overwrites) timer `id` to fire `delay` ticks
  // from now; delay is clamped to >= 1 so a timer never fires within the
  // tick that set it.
  void setTimer(int id, Time delay);

  // Publish this process's failure-detector module output. Recorded as a
  // switch point only when it differs from the previous output.
  void setOutput(const ProcSet& suspected);

 private:
  friend class NetWorld;
  NetContext(NetWorld* w, Pid me) : world_(w), me_(me) {}
  NetWorld* world_;
  Pid me_;
};

// An event-driven protocol automaton; one instance per process.
class NetProcess {
 public:
  virtual ~NetProcess() = default;
  virtual void onStart(NetContext& ctx) = 0;
  virtual void onMessage(NetContext& ctx, const Message& m) = 0;
  virtual void onTimer(NetContext& ctx, int timer_id) = 0;
};

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
  std::int64_t timers_fired = 0;
  std::int64_t output_switches = 0;
  // Largest delivery delay of any message sent at or after GST — the
  // envelope contract says this never exceeds delta.
  Time max_post_gst_lag = 0;
  std::uint64_t trace_hash = 0;  // order-sensitive hash of every event
};

class NetWorld {
 public:
  NetWorld(FailurePattern fp, NetConfig cfg);

  [[nodiscard]] int nProcs() const { return fp_.nProcs(); }
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const NetConfig& config() const { return cfg_; }
  [[nodiscard]] const FailurePattern& pattern() const { return fp_; }

  // Drive `procs` (one automaton per pid, in pid order) from tick 0
  // through cfg.resolvedHorizon(fp). Single-shot: a NetWorld runs once.
  void run(std::vector<std::unique_ptr<NetProcess>> procs);

  [[nodiscard]] const NetCounters& counters() const { return counters_; }
  // Per-pid output switch lists, populated by run().
  [[nodiscard]] const std::vector<std::vector<OutputSwitch>>& outputs() const {
    return outputs_;
  }

 private:
  friend class NetContext;

  struct InFlight {
    Pid to = -1;
    std::uint64_t seq = 0;  // global send sequence; canonical tie-break
    Message msg;
  };

  void doSend(Pid from, Pid to, int tag, std::int64_t payload);
  void doSetTimer(Pid p, int id, Time delay);
  void doSetOutput(Pid p, const ProcSet& suspected);
  [[nodiscard]] bool crashed(Pid p, Time t) const {
    return fp_.crashTime(p) <= t;
  }
  [[nodiscard]] bool partitionCut(Pid from, Pid to, Time t) const;
  void mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d);

  FailurePattern fp_;
  NetConfig cfg_;
  Time now_ = 0;
  Time horizon_ = 0;
  std::uint64_t next_seq_ = 0;
  bool running_ = false;
  std::vector<std::unique_ptr<NetProcess>> procs_;
  // tick -> deliveries scheduled for it, kept in canonical order.
  std::map<Time, std::vector<InFlight>> pending_;
  // Per-pid armed timers: id -> fire tick. std::map gives the canonical
  // id order when several expire on the same tick.
  std::vector<std::map<int, Time>> timers_;
  std::vector<ProcSet> current_out_;
  std::vector<bool> out_seen_;  // first setOutput always records a switch
  std::vector<std::vector<OutputSwitch>> outputs_;
  NetCounters counters_;
};

}  // namespace wfd::sim::net
