// Configuration for the replicated agreement service (sim/service).
//
// Kept separate from service.h so sim/batch.h can embed a ServiceConfig
// in a BatchCell without pulling in the service driver (service.h needs
// batch.h for FdCache/CellResult; this header needs neither).
//
// A ServiceConfig pins a whole service execution — stream length,
// replication group, protocol, detector substrate, chaos plan, seeds —
// and digest() folds every field, so the ReportCache/PersistentStore can
// key service cells exactly like one-shot run cells (docs/SERVICE.md).
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/net/net_config.h"

namespace wfd::sim::service {

// Which agreement stack decides each instance of the stream.
enum class Protocol {
  kOmegaConsensus,  // Omega-based consensus (k = 1): logs must be identical
  kFig1Upsilon,     // Fig. 1 wait-free n-set agreement (k = group - 1)
  kFig2UpsilonF,    // Fig. 2 f-resilient f-set agreement (k = f)
};

// Where the failure detector history comes from.
enum class DetectorSource {
  kConstructed,  // fd/upsilon.h + fd/omega.h constructed histories
  kRealizedNet,  // heartbeat-realized lenses (sim/net)
};

// Seeded test-only defects for the negative-control suite: the service's
// own checkers must provably catch each of them (docs/SERVICE.md).
enum class ServiceBug {
  kNone,
  // Corrupt one replica's harvested decision at a seeded (instance,
  // replica) before the log-safety check runs: the committed entry
  // diverges from the canonical log and MUST yield kLogDivergence.
  kLogDivergence,
};

// Mid-stream fault plan: every `period` segments one injector fires,
// rotating through crash injection (within the f budget), bounded
// starvation windows, legal FD glitches (scramble noise / delay stab),
// link faults (realized net only: drops/partitions pre-GST) and, when
// enabled, stale snapshots. All injectors are LEGAL (safety must survive
// them); illegal-glitch negative controls stay at the chaos layer
// (tests/chaos_test.cc) where the axiom checker is the instrument.
struct ChaosPlan {
  int period = 0;  // fire on segments seg % period == period - 1; 0 = off
  bool stale_snapshot = false;  // legal stale-but-linearizable scans
  std::uint64_t seed = 0;       // injector parameter stream

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = mixDigest(0xC4A05, static_cast<std::uint64_t>(period));
    // The enabled bits of the four always-on kinds: keeps stored keys.
    for (int kind = 0; kind < 4; ++kind) h = mixDigest(h, 2u);
    h = mixDigest(h, (stale_snapshot ? 2u : 1u));
    return mixDigest(h, seed);
  }
};

struct ServiceConfig {
  // Replication group size: the n+1 of every inner run. Crashed replicas
  // are retired after their segment and replaced by fresh replica ids,
  // so the ACTIVE group always has `group` members.
  int group = 3;
  // Per-segment crash budget (the f the protocol claims quantify over).
  int f = 1;
  Protocol protocol = Protocol::kOmegaConsensus;
  DetectorSource detector = DetectorSource::kConstructed;
  // Constructed-detector stabilization time (per segment; each segment is
  // a fresh inner run whose clock starts at 0).
  Time stab = 120;
  // Realized-detector substrate knobs (DetectorSource::kRealizedNet).
  net::NetConfig net;

  // Stream shape: total instances to decide, cut into segments of
  // `segment_len` instances — one inner Run per segment (fresh world, so
  // per-instance object keys never collide across segments and the
  // detector re-stabilizes per segment).
  long long instances = 1000;
  int segment_len = 16;

  // Client model: `clients` independent command sources feed a bounded
  // inbox refilled to capacity before each segment; commands beyond
  // capacity are rejected (backpressure, counted in ServiceStats). The
  // capacity is segment_len * group, the smallest inbox for which every
  // instance of a segment proposes pairwise-distinct commands.
  int clients = 4;

  std::uint64_t seed = 1;

  // Liveness budgets: a segment gets slack + len * instance budget steps,
  // and livelocks after one instance budget of steps with no new trace
  // event. On kBudgetExhausted/kLivelock the all-live-committed prefix is
  // kept and the rest retried with a bumped seed, at most max_retries
  // times before the service verdict degrades to kStalled.
  Time instance_step_budget = 30'000;
  Time segment_budget_slack = 200'000;
  int max_retries = 3;

  ChaosPlan chaos;

  ServiceBug bug = ServiceBug::kNone;
  std::uint64_t bug_seed = 0;

  // Max distinct per-instance decisions the protocol admits: the k the
  // log-safety checker holds every committed instance to.
  [[nodiscard]] int kBound() const {
    switch (protocol) {
      case Protocol::kOmegaConsensus: return 1;
      case Protocol::kFig1Upsilon: return std::max(1, group - 1);
      case Protocol::kFig2UpsilonF: return std::max(1, f);
    }
    return 1;
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = mixDigest(0x5E21C3, static_cast<std::uint64_t>(group));
    h = mixDigest(h, static_cast<std::uint64_t>(f));
    h = mixDigest(h, static_cast<std::uint64_t>(protocol));
    h = mixDigest(h, static_cast<std::uint64_t>(detector));
    h = mixDigest(h, static_cast<std::uint64_t>(stab));
    h = mixDigest(h, net.digest());
    h = mixDigest(h, static_cast<std::uint64_t>(instances));
    h = mixDigest(h, static_cast<std::uint64_t>(segment_len));
    h = mixDigest(h, static_cast<std::uint64_t>(clients));
    h = mixDigest(h, 0u);  // inbox_capacity, always 0: keeps stored keys
    h = mixDigest(h, seed);
    h = mixDigest(h, static_cast<std::uint64_t>(instance_step_budget));
    h = mixDigest(h, static_cast<std::uint64_t>(segment_budget_slack));
    h = mixDigest(h, static_cast<std::uint64_t>(max_retries));
    h = mixDigest(h, chaos.digest());
    h = mixDigest(h, static_cast<std::uint64_t>(bug));
    return mixDigest(h, bug_seed);
  }
};

}  // namespace wfd::sim::service
