// Replicated agreement service: a long-lived stream of sequential
// agreement instances over the simulated substrate (docs/SERVICE.md).
//
// Clients submit commands to a bounded inbox; a replication group of
// `group` replicas decides instance i via the paper's stacks — Omega
// consensus, Fig. 1 (Upsilon), or Fig. 2 (Upsilon^f) — each instance an
// invocation of the *Instance form of the protocol inside a per-segment
// inner Run; a committed log grows monotonically; crashed replicas are
// retired and replaced by fresh replica ids within the f budget; chaos
// injectors (crashes, starvation, legal FD glitches, link faults, stale
// scans) fire mid-stream on a seeded cadence.
//
// Commit rule (the determinism/safety anchor): a segment externalizes
// exactly the prefix of its instances that every replica LIVE at segment
// end has applied. Everything behind the commit point is retried with a
// bumped schedule seed (never re-externalized); everything before it is
// appended to the replica logs and to the canonical log, and the
// log-safety checker holds each committed instance to the protocol's
// k bound (k = 1: all logs identical; k > 1: <= k distinct decisions,
// each a value actually proposed for that instance).
//
// Verdict taxonomy (service-level; per-instance inner verdicts roll up):
//   kOk                  stream completed; every check clean.
//   kLogDivergence       log safety broken: an instance committed more
//                        than k distinct values, a replica applied a
//                        value never proposed for the instance, or a
//                        replica log left the canonical prefix.
//   kInstanceViolation   an inner run was flagged by the watchdog/axiom
//                        checker under a LEGAL chaos plan.
//   kStalled             no-gap liveness broken: a segment failed to
//                        advance the commit point within max_retries.
//   kReplacementOverrun  more replicas crashed in one segment than the f
//                        budget admits (replacement accounting).
//
// Determinism contract: a ServiceReport is a pure function of its
// ServiceConfig — same config, same committed log, same service_hash,
// bit-for-bit (certified by tests/service_test.cc, including through
// BatchRunner jobs=N).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "sim/service/service_config.h"

namespace wfd::sim::service {

enum class ServiceVerdict {
  kOk,
  kLogDivergence,
  kInstanceViolation,
  kStalled,
  kReplacementOverrun,
};

[[nodiscard]] const char* serviceVerdictName(ServiceVerdict v);

// One replica's committed log: the canonical-log suffix it applied,
// starting at commit index `start` (a replacement joins with the
// canonical prefix implicit — state transfer — so memory stays bounded
// by total committed entries, not replicas x entries).
struct ReplicaLog {
  int rid = 0;        // service-unique replica id (never reused)
  int slot = 0;       // group slot (the inner runs' pid for this replica)
  long long start = 0;
  std::vector<Value> entries;
  bool retired = false;  // crashed and replaced
};

struct ServiceStats {
  long long committed = 0;          // instances externalized
  long long replica_decisions = 0;  // log entries appended across replicas
  long long submitted = 0;          // commands offered by clients
  long long accepted = 0;           // admitted to the bounded inbox
  long long rejected = 0;           // backpressured away
  int segments = 0;                 // inner runs driven (retries included)
  int retries = 0;                  // segment re-drives after partial commit
  int replacements = 0;             // crashed replicas replaced
  int injected_crashes = 0;
  long long steps = 0;              // simulation steps across all segments
  std::map<std::string, long long> injector_fires;  // by injector name
  // Per-instance commit step latency: steps from the previous commit (or
  // segment start) until every live replica applied the instance.
  double lat_p50 = 0;
  double lat_p99 = 0;
};

struct ServiceReport {
  ServiceVerdict verdict = ServiceVerdict::kOk;
  std::string detail;  // empty for kOk; diagnostic otherwise
  ServiceStats stats;
  std::vector<Value> canonical;   // the committed log
  std::vector<ReplicaLog> logs;   // every replica ever active (rid order)
  // Rolling 64-bit digest of the whole execution: every segment's trace
  // hash, every committed entry, every replacement. Bit-identical replay
  // <=> equal service_hash.
  std::uint64_t service_hash = 0;

  [[nodiscard]] bool ok() const { return verdict == ServiceVerdict::kOk; }
};

// Run the full service stream described by cfg. Never throws on chaos
// outcomes (they become verdicts); SimAbort still propagates for harness
// misuse (e.g. group larger than kMaxProcs).
[[nodiscard]] ServiceReport runService(const ServiceConfig& cfg);

// ---- Exhaustive crash-and-replace sweep ---------------------------------
//
// For EVERY instance index g of the stream: replay the service, crash a
// seeded non-leader replica exactly while instance g is in flight, and
// drive the stream to completion (the victim is retired and replaced at
// the segment boundary). Cost is sublinear in variants x stream because
// each base segment is re-driven once on a checkpointing Run, with a
// mark at every instance-commit boundary, and each variant restores the
// shared prefix instead of re-executing it (sim/runner.h checkpoint
// prefix sharing).
// Requires Protocol::kOmegaConsensus + DetectorSource::kConstructed +
// no chaos plan (the sweep injects its own crashes); anything else is
// harness misuse and throws SimAbort.
struct SweepVariant {
  long long crash_index = 0;  // global instance in flight at injection
  Pid victim_slot = -1;
  ServiceVerdict verdict = ServiceVerdict::kOk;
  std::string detail;
  long long committed = 0;
  int replacements = 0;
  std::uint64_t service_hash = 0;
};

struct SweepReport {
  std::uint64_t base_hash = 0;  // untouched base stream's service_hash
  std::vector<SweepVariant> variants;  // one per instance index
  long long restores = 0;  // checkpoint restores (prefix-sharing measure)
  [[nodiscard]] bool allOk() const;
};

[[nodiscard]] SweepReport runCrashSweep(const ServiceConfig& cfg);

// ---- Batch adapter -------------------------------------------------------
//
// Execute a service cell and fold the report into a CellResult so service
// campaigns shard through BatchRunner exactly like run cells
// (sim/batch.h BatchCell::service). Verdict mapping: kLogDivergence ->
// kSafetyViolation, kInstanceViolation -> kAxiomViolation, kStalled ->
// kLivelock, kReplacementOverrun -> kBudgetExhausted; check_detail keeps
// the service-level name. trace_hash carries service_hash; metrics carry
// committed/replacements/retries/latency percentiles/injector counters.
[[nodiscard]] CellResult runServiceCell(const ServiceConfig& cfg,
                                        std::size_t index);

}  // namespace wfd::sim::service
