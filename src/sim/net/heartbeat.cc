#include "sim/net/heartbeat.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"
#include "fd/failure_detector.h"  // digestPattern
#include "sim/world.h"            // SimAbort

namespace wfd::sim::net {

namespace {

// Event kinds mixed into the trace hash.
constexpr std::uint64_t kEvSend = 1;
constexpr std::uint64_t kEvDeliver = 2;
constexpr std::uint64_t kEvDrop = 3;
constexpr std::uint64_t kEvPartitionDrop = 4;
constexpr std::uint64_t kEvToCrashed = 5;
constexpr std::uint64_t kEvTimer = 6;
constexpr std::uint64_t kEvOutput = 7;

// Independent stateless streams per fate dimension.
constexpr std::uint64_t kDropSalt = 0xD509CB6F2A4173E1ULL;
constexpr std::uint64_t kDelaySalt = 0x8FB1D2C4A6E09357ULL;
constexpr std::uint64_t kPartStartSalt = 0x3C79A1E5D2B48F6DULL;
constexpr std::uint64_t kPartSideSalt = 0x61E8B3A90F5C27D4ULL;

constexpr Time kDisarmed = std::numeric_limits<Time>::max();

std::uint64_t linkKey(Pid from, Pid to) {
  return static_cast<std::uint64_t>(from) * kMaxProcs +
         static_cast<std::uint64_t>(to) + 1;
}

// One heartbeat execution: flat per-process protocol state, a ring of
// per-tick delivery buckets, and what the run records.
struct Heartbeats {
  struct InFlight {
    Pid to = -1;
    Pid from = -1;
    std::uint64_t seq = 0;  // global send sequence; canonical tie-break
  };
  struct Proc {
    ProcSet suspected;
    std::vector<Time> timeout;   // per peer: the current timeout
    std::vector<Time> deadline;  // per peer: suspect at this tick, if armed
    Time send_at = kDisarmed;    // next heartbeat broadcast
  };

  Heartbeats(const FailurePattern& pattern, const NetConfig& config,
             Time until)
      : fp(pattern), cfg(config), horizon(until) {
    const auto n = static_cast<std::size_t>(fp.nProcs());
    procs.assign(n, Proc{{},
                         std::vector<Time>(n, cfg.hb.initial_timeout),
                         std::vector<Time>(n, kDisarmed)});
    switches.resize(n);
    // A heartbeat is due at most this many ticks after it is sent, so
    // bucket `t % size` holds tick t's deliveries alone.
    const Time longest = std::max({cfg.faults.min_delay, cfg.faults.max_delay,
                                   cfg.env.delta, Time{1}});
    ring.resize(static_cast<std::size_t>(longest) + 1);
  }

  [[nodiscard]] int nProcs() const { return fp.nProcs(); }
  [[nodiscard]] bool crashed(Pid p) const { return fp.crashTime(p) <= now; }

  void mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
           std::uint64_t d) {
    std::uint64_t h = counters.trace_hash;
    h = mixDigest(h, static_cast<std::uint64_t>(now));
    h = mixDigest(h, a);
    h = mixDigest(h, b);
    h = mixDigest(h, c);
    h = mixDigest(h, d);
    counters.trace_hash = h;
  }

  [[nodiscard]] bool partitionCut(Pid from, Pid to) const {
    const LinkFaults& lf = cfg.faults;
    const Time gst = cfg.env.gst;
    if (lf.partitions <= 0 || lf.partition_len <= 0 || gst <= 0) return false;
    for (int i = 0; i < lf.partitions; ++i) {
      const auto start = static_cast<Time>(
          hashedUniform(cfg.seed ^ kPartStartSalt,
                        static_cast<std::uint64_t>(i) + 1, 0,
                        static_cast<std::uint64_t>(gst)));
      if (now < start || now >= std::min(start + lf.partition_len, gst)) {
        continue;
      }
      const std::uint64_t side_from =
          hashedUniform(cfg.seed ^ kPartSideSalt,
                        static_cast<std::uint64_t>(i) + 1,
                        static_cast<std::uint64_t>(from) + 1, 2);
      const std::uint64_t side_to =
          hashedUniform(cfg.seed ^ kPartSideSalt,
                        static_cast<std::uint64_t>(i) + 1,
                        static_cast<std::uint64_t>(to) + 1, 2);
      if (side_from != side_to) return true;
    }
    return false;
  }

  void send(Pid from, Pid to) {
    const std::uint64_t seq = next_seq++;
    ++counters.sent;
    mix(kEvSend, static_cast<std::uint64_t>(from),
        static_cast<std::uint64_t>(to), seq);

    const SynchronyEnvelope& env = cfg.env;
    const LinkFaults& lf = cfg.faults;
    Time deliver_at = 0;
    if (now < env.gst) {
      if (partitionCut(from, to)) {
        ++counters.partition_dropped;
        mix(kEvPartitionDrop, static_cast<std::uint64_t>(from),
            static_cast<std::uint64_t>(to), seq);
        return;
      }
      if (lf.drop_permille > 0 &&
          hashedUniform(cfg.seed ^ kDropSalt, linkKey(from, to), seq, 1000) <
              static_cast<std::uint64_t>(lf.drop_permille)) {
        ++counters.dropped;
        mix(kEvDrop, static_cast<std::uint64_t>(from),
            static_cast<std::uint64_t>(to), seq);
        return;
      }
      const Time span = std::max<Time>(lf.max_delay - lf.min_delay, 0);
      const auto draw = static_cast<Time>(
          hashedUniform(cfg.seed ^ kDelaySalt, linkKey(from, to), seq,
                        static_cast<std::uint64_t>(span) + 1));
      const Time d = std::max<Time>(lf.min_delay + draw, 1);
      // The envelope clamp: whatever the drawn delay, nothing sent before
      // GST arrives after gst + delta.
      deliver_at = std::min(now + d, env.gst + env.delta);
    } else {
      // Post-GST: reliable, delay uniform in [1, delta].
      const auto draw = static_cast<Time>(hashedUniform(
          cfg.seed ^ kDelaySalt, linkKey(from, to), seq,
          static_cast<std::uint64_t>(std::max<Time>(env.delta, 1))));
      const Time d = 1 + draw;
      counters.max_post_gst_lag = std::max(counters.max_post_gst_lag, d);
      deliver_at = now + d;
    }
    if (deliver_at > now && deliver_at <= horizon) {
      ring[static_cast<std::size_t>(deliver_at) % ring.size()].push_back(
          {to, from, seq});
    }
  }

  void broadcast(Pid p) {
    for (Pid q = 0; q < nProcs(); ++q) {
      if (q != p) send(p, q);
    }
    procs[static_cast<std::size_t>(p)].send_at =
        now + std::max<Time>(cfg.hb.period, 1);
  }

  void armDeadline(Proc& s, Pid q) {
    const auto i = static_cast<std::size_t>(q);
    s.deadline[i] = now + std::max<Time>(s.timeout[i], 1);
  }

  // Record p's suspicion set as a switch point when it changed (the first
  // publication always records).
  void publish(Pid p) {
    const ProcSet& out = procs[static_cast<std::size_t>(p)].suspected;
    auto& sw = switches[static_cast<std::size_t>(p)];
    if (!sw.empty() && sw.back().out == out) return;
    sw.push_back({now, out});
    ++counters.output_switches;
    mix(kEvOutput, static_cast<std::uint64_t>(p), out.bits(), 0);
  }

  void start(Pid p) {
    Proc& s = procs[static_cast<std::size_t>(p)];
    publish(p);  // initially nobody is suspected
    broadcast(p);
    for (Pid q = 0; q < nProcs(); ++q) {
      if (q != p) armDeadline(s, q);
    }
  }

  void receive(const InFlight& m) {
    Proc& s = procs[static_cast<std::size_t>(m.to)];
    if (s.suspected.contains(m.from)) {
      // A late heartbeat: the suspicion was premature. Un-suspect and back
      // off — the raised timeout is what makes false suspicions finite.
      s.suspected.erase(m.from);
      s.timeout[static_cast<std::size_t>(m.from)] += cfg.hb.timeout_increment;
      publish(m.to);
    }
    armDeadline(s, m.from);
  }

  // Deadlines that expire now. The send deadline's id in the trace hash
  // is n+1, past every peer.
  void fire(Pid p) {
    Proc& s = procs[static_cast<std::size_t>(p)];
    for (Pid q = 0; q < nProcs(); ++q) {
      Time& at = s.deadline[static_cast<std::size_t>(q)];
      if (at > now) continue;
      // A full timeout of silence from q: suspect it until a heartbeat
      // arrives (which re-arms the deadline).
      at = kDisarmed;
      ++counters.timers_fired;
      mix(kEvTimer, static_cast<std::uint64_t>(p),
          static_cast<std::uint64_t>(q), 0);
      s.suspected.insert(q);
      publish(p);
    }
    if (s.send_at <= now) {
      ++counters.timers_fired;
      mix(kEvTimer, static_cast<std::uint64_t>(p),
          static_cast<std::uint64_t>(nProcs()), 0);
      broadcast(p);
    }
  }

  void run() {
    for (Pid p = 0; p < nProcs(); ++p) {
      if (!crashed(p)) start(p);
    }
    std::vector<InFlight> due;
    for (now = 1; now <= horizon; ++now) {
      due.swap(ring[static_cast<std::size_t>(now) % ring.size()]);
      std::sort(due.begin(), due.end(),
                [](const InFlight& a, const InFlight& b) {
                  return a.to != b.to ? a.to < b.to : a.seq < b.seq;
                });
      for (const InFlight& m : due) {
        if (crashed(m.to)) {
          ++counters.to_crashed;
          mix(kEvToCrashed, static_cast<std::uint64_t>(m.to), m.seq, 0);
          continue;
        }
        ++counters.delivered;
        mix(kEvDeliver, static_cast<std::uint64_t>(m.to),
            static_cast<std::uint64_t>(m.from), m.seq);
        receive(m);
      }
      due.clear();
      for (Pid p = 0; p < nProcs(); ++p) {
        if (!crashed(p)) fire(p);
      }
    }
  }

  const FailurePattern& fp;
  const NetConfig& cfg;
  const Time horizon;
  Time now = 0;
  std::uint64_t next_seq = 0;
  std::vector<Proc> procs;
  std::vector<std::vector<InFlight>> ring;  // tick % size -> deliveries
  std::vector<std::vector<OutputSwitch>> switches;  // per pid
  NetCounters counters;
};

}  // namespace

ProcSet NetHistory::suspectedAt(Pid p, Time t) const {
  const auto& sw = switches.at(static_cast<std::size_t>(p));
  if (sw.empty()) return {};
  const Time tc = std::min(t, horizon);
  // Last switch with at <= tc.
  auto it = std::upper_bound(
      sw.begin(), sw.end(), tc,
      [](Time v, const OutputSwitch& s) { return v < s.at; });
  if (it == sw.begin()) return {};  // before the first record
  return std::prev(it)->out;
}

NetHistoryPtr simulateHeartbeats(const FailurePattern& fp,
                                 const NetConfig& cfg) {
  auto h = std::make_shared<NetHistory>(fp.nProcs(), fp, cfg);
  h->horizon = cfg.resolvedHorizon(fp);
  Heartbeats exec(fp, cfg, h->horizon);
  exec.run();
  h->switches = exec.switches;  // a copy: each list exactly sized
  h->counters = exec.counters;
  h->digest = fd::digestPattern(cfg.digest(), fp);

  // The substrate's convergence guarantee, checked: every correct
  // process's suspicions must equal faulty(F) at the horizon. The lenses
  // and their computed stabilization times all build on this.
  // Post-GST heartbeats from one peer can arrive period + delta - 1 ticks
  // apart; a timeout below that which never grows keeps suspecting correct
  // peers forever, and then no horizon helps.
  const HeartbeatConfig& hb = cfg.hb;
  const Time gap =
      std::max<Time>(hb.period, 1) + std::max<Time>(cfg.env.delta, 1) - 1;
  const std::string remedy =
      hb.timeout_increment <= 0 && std::max<Time>(hb.initial_timeout, 1) < gap
          ? "timeout_increment " + std::to_string(hb.timeout_increment) +
                " never raises initial_timeout " +
                std::to_string(hb.initial_timeout) +
                " to period + delta - 1 = " + std::to_string(gap) +
                ", so false suspicions never stop"
          : "raise NetConfig::horizon";
  const ProcSet faulty = fp.faulty();
  for (Pid p = 0; p < fp.nProcs(); ++p) {
    if (!fp.isCorrect(p)) continue;
    const ProcSet final_out = h->suspectedAt(p, h->horizon);
    if (final_out != faulty) {
      throw SimAbort(
          "net heartbeat history did not converge: p" + std::to_string(p + 1) +
          " suspects " + final_out.toString() + " at the horizon t=" +
          std::to_string(h->horizon) + " but faulty(F) = " +
          faulty.toString() + " (" + remedy + ")");
    }
  }
  return h;
}

}  // namespace wfd::sim::net
