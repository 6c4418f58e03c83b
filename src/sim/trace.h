// Run traces (paper Sect. 3.4).
//
// A trace records the externally visible inputs/outputs of a run: task
// decisions, published failure-detector-output emulations (the paper's
// distributed variable "D-output"), plus free-form diagnostic events. The
// correctness checkers in core/checkers.h consume traces, so algorithm
// code never needs to be instrumented for a specific property.
//
// The trace also carries a stable 64-bit hash of the run (hash64): an
// FNV-1a fold over every executed atomic operation (fed by World::execute
// via mixOp) and every recorded event. Two runs of the same configuration
// must produce the same hash — the determinism contract of DESIGN.md §5.
// tools/determinism_check and tests/trace_hash_test.cc enforce it; any
// unseeded randomness, address-dependent container iteration, or
// uninitialized read that leaks into scheduling or shared-memory traffic
// shows up as a hash divergence at the source.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/local_ptr.h"
#include "common/reg_val.h"
#include "common/types.h"

namespace wfd::sim {

enum class EventKind {
  kPropose,   // process accepted its input value
  kDecide,    // process produced a decision output
  kPublish,   // process updated its emulated-FD output variable
  kNote,      // diagnostic (gladiator/citizen status, round changes, ...)
};

struct Event {
  Time time = 0;
  Pid pid = -1;
  EventKind kind = EventKind::kNote;
  std::string label;
  RegVal value;
};

// The event vector is shared copy-on-write: copies of a Trace and its
// Snapshots hold the same vector, and record() copies it first only while
// another holder still shares it. Like SlotArray (common/slot_array.h),
// the vector's holders are counted with a plain integer (a LocalPtr,
// common/local_ptr.h), and that test reads the count, so a trace and every
// copy or Snapshot of it must stay on one thread at a time.
class Trace {
 public:
  void record(Time t, Pid p, EventKind k, std::string label, RegVal v) {
    if (muted_) return;
    if (!events_) {
      events_ = LocalPtr<std::vector<Event>>::make();
      events_->reserve(kInitialEvents);
    } else if (events_.use_count() > 1) {
      events_ = LocalPtr<std::vector<Event>>::make(*events_);
    }
    events_->push_back(Event{t, p, k, std::move(label), std::move(v)});
  }

  // Checkpoint-restore support (sim/explore.h). While a restored process
  // coroutine is fast-forwarded by replaying its recorded results, its
  // free actions (propose/decide/note/publish) re-fire with meaningless
  // timestamps; the runner mutes recording for the duration. Nothing else
  // may mute a trace — a muted live run would break the determinism
  // contract.
  void setMuted(bool m) { muted_ = m; }

  class Snapshot {
   public:
    Snapshot() = default;
    // Drop this snapshot's share of the event vector, so a later record()
    // on the live trace copies nothing on its behalf.
    void release() { events.reset(); }

   private:
    friend class Trace;
    LocalPtr<std::vector<Event>> events;
    std::uint64_t op_digest = 0;
    std::uint64_t ops_mixed = 0;
  };
  // Taking (in place, overwriting `s`) and restoring share the event
  // vector; neither copies it.
  void snapshot(Snapshot& s) const {
    s.events = events_;
    s.op_digest = op_digest_;
    s.ops_mixed = ops_mixed_;
  }
  void restore(const Snapshot& s) {
    events_ = s.events;
    op_digest_ = s.op_digest;
    ops_mixed_ = s.ops_mixed;
  }

  // A reference that a later record() may leave stale: re-read it after
  // recording.
  [[nodiscard]] const std::vector<Event>& events() const {
    static const std::vector<Event> kNone;
    return events_ ? *events_ : kNone;
  }

  // Fold one executed atomic operation into the running op digest.
  // Called by World::execute for every op; op_sig is a stable signature
  // of the operation's kind, target, and arguments.
  void mixOp(Time t, Pid p, std::uint64_t op_sig) {
    op_digest_ = mixDigest(op_digest_, static_cast<std::uint64_t>(t));
    op_digest_ = mixDigest(op_digest_, static_cast<std::uint64_t>(p) + 1);
    op_digest_ = mixDigest(op_digest_, op_sig);
    ++ops_mixed_;
  }

  // Fold the RESULT of the op just mixed (read value, scan view, FD
  // answer, consensus winner). Two runs with identical op streams but
  // diverging responses — a nondeterministic object implementation —
  // therefore still diverge in hash64().
  void mixResult(std::uint64_t result_sig) {
    op_digest_ = mixDigest(op_digest_, result_sig);
  }
  [[nodiscard]] std::uint64_t opDigest() const { return op_digest_; }
  [[nodiscard]] std::uint64_t opsMixed() const { return ops_mixed_; }

  // Stable 64-bit hash of the whole run: the op digest plus every
  // recorded event (time, pid, kind, label, value). Identical
  // configurations must yield identical hashes; see the file comment.
  [[nodiscard]] std::uint64_t hash64() const;

  // All events of one kind, in time order (trace order == time order).
  [[nodiscard]] std::vector<Event> ofKind(EventKind k) const;

  // Last kPublish value per process at or before time t (⊥ if none).
  [[nodiscard]] std::vector<RegVal> publishedAt(Time t, int n_plus_1) const;

  [[nodiscard]] std::string toString() const;

 private:
  // A Fig. 1/2 run records 6-16 events: the first record reserves room
  // for them all at once.
  static constexpr std::size_t kInitialEvents = 16;
  LocalPtr<std::vector<Event>> events_;  // null: no events yet
  std::uint64_t op_digest_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  std::uint64_t ops_mixed_ = 0;
  bool muted_ = false;
};

}  // namespace wfd::sim
