// The shared-memory object table of a simulated world.
//
// Objects are addressed by structured keys so that algorithms with
// unbounded round structure (the paper's D[r], Stable[r], converge[r][k],
// A[r][k], ...) can materialize objects lazily and deterministically: the
// first reference under a key creates the object with ⊥-initialized
// contents. Key resolution is a local (zero-step) action — what costs a
// step is *operating* on the object, never naming it. Keys resolve
// through a flat open-addressed index (see `index_` below), so naming
// allocates nothing but the index's own array as it grows.
//
// Snapshot cells are SlotArrays (common/slot_array.h): a scan result, a
// result-log node and a table Snapshot share an object's cells, and
// update() copies them only while someone else holds them. The cells'
// holders, like a tuple's, are counted with a plain integer, and that
// test reads the count, so a table, its Snapshots, every scan result and
// every register value taken from it must stay on one thread at a time;
// hand a whole run to another thread only through a synchronizing
// hand-off (a pool join). A World checkpoint adds two more such holders,
// the published outputs and the trace's event vector, under the same
// rule.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/reg_val.h"
#include "common/slot_array.h"
#include "common/types.h"

namespace wfd::sim {

// A structured object name: a tag plus up to four integer indices.
// Example: {"conv.A", r, k} names the first snapshot object of the
// k-converge instance used in round r, sub-round k.
//
// Deliberately TRIVIALLY COPYABLE (fixed-width tag buffer, no heap):
// ObjKeys are passed by value into coroutines, and GCC 12's coroutine
// lowering bitwise-copies class-type temporary arguments of an awaited
// coroutine call into the callee frame (double-destroying non-trivial
// members). For a trivially copyable type the bitwise copy is correct by
// definition, so the whole bug class is structurally excluded.
struct ObjKey {
  static constexpr std::size_t kTagCap = 32;  // incl. NUL

  std::array<char, kTagCap> tag{};
  int i0 = -1;
  int i1 = -1;
  int i2 = -1;
  int i3 = -1;

  ObjKey() = default;
  explicit ObjKey(const char* t, int a = -1, int b = -1, int c = -1,
                  int d = -1)
      : i0(a), i1(b), i2(c), i3(d) {
    append(t);
  }

  // Extend the tag in place (sub-object naming, e.g. ".A", "#cell7").
  void append(const char* s);
  void append(int n);

  auto operator<=>(const ObjKey&) const = default;
  [[nodiscard]] std::string toString() const;
};
static_assert(std::is_trivially_copyable_v<ObjKey>);
// ObjKeyHash hashes the raw bytes, which is exact only if equal keys have
// equal bytes: no padding, and a tag tail that is always zero. `tag{}`
// zero-fills the buffer and `append` writes only up to its NUL, so two
// keys with the same tag string agree on all kTagCap bytes.
static_assert(std::has_unique_object_representations_v<ObjKey>);
static_assert(sizeof(ObjKey) % sizeof(std::uint64_t) == 0);

// Mixes the key's 64-bit words (six of them: the tag buffer and the four
// indices). Used only for lookup; the table never iterates its index, so
// slot order cannot reach a trace.
struct ObjKeyHash {
  std::size_t operator()(const ObjKey& k) const noexcept {
    std::array<std::uint64_t, sizeof(ObjKey) / sizeof(std::uint64_t)> w;
    std::memcpy(w.data(), &k, sizeof k);
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const std::uint64_t x : w) {
      h = (h ^ x) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
    return static_cast<std::size_t>(h);
  }
};

// How an object was touched — reported to the step auditor.
enum class ObjectAccess { kRead, kWrite, kScan, kUpdate, kPropose };

class StepAuditor;

class ObjectTable {
 public:
  enum class Kind { kRegister, kSnapshot, kConsensus };

  // The step auditor (sim/step_audit.h) sees every step-costing primitive
  // access (read/write/scan/update/propose; naming is free and unseen), to
  // prove that all shared access goes through the atomic-step machinery;
  // the table itself stays behavior-identical with or without one.
  void setAuditor(StepAuditor* audit) { auditor_ = audit; }

  // Resolve-or-create. Registers start at ⊥; snapshot objects start with
  // `slots` ⊥ cells; consensus objects start undecided with a port limit
  // of `ports` distinct proposers. Requesting an existing key with a
  // mismatched kind or size is a protocol bug and asserts.
  ObjId regId(const ObjKey& key);
  ObjId snapId(const ObjKey& key, int slots);
  ObjId consId(const ObjKey& key, int ports);

  [[nodiscard]] const RegVal& read(ObjId id) const;
  void write(ObjId id, RegVal v);

  // The object's cells, shared: copy the SlotArray to keep this view
  // past later updates (common/slot_array.h).
  [[nodiscard]] const SlotArray& scan(ObjId id) const;
  void update(ObjId id, int slot, RegVal v);

  // First proposal wins; returns the winner. Asserts the port limit.
  RegVal propose(ObjId id, Pid proposer, RegVal v);

  [[nodiscard]] std::size_t objectCount() const { return objects_.size(); }

 private:
  struct Object {
    ObjKey key;                    // the name it was created under
    Kind kind = Kind::kRegister;
    RegVal reg;                    // register value / consensus winner
    SlotArray slots;               // snapshot cells, copy-on-write
    ProcSet proposers;             // consensus: who proposed so far
    int ports = 0;                 // consensus: max distinct proposers
    // This object's share of xdigest_, as of the last flush; `stale`
    // means the contents changed since then and the id is on dirty_.
    mutable std::uint64_t component = 0;
    mutable bool stale = false;
  };

 public:
  // ---- Checkpoint/restore (sim/explore.h prefix sharing) ----
  // A Snapshot copies the object vector and nothing else: per object, its
  // key, its register value (a tuple by reference: tuples are immutable)
  // and one reference to its copy-on-write cells. The key index is not
  // copied; restore() repairs the live one from the keys the objects
  // record, erasing the names past the common prefix and entering the
  // snapshot's. Taking a Snapshot flushes the digest first, so it
  // never carries dirty state and restoring one leaves nothing to flush.
  // The auditor is part of the *run's* wiring, not the memory state, and
  // survives a restore.
  class Snapshot {
   public:
    Snapshot() = default;
    // Drop every object (and so every reference to a tuple or to cells)
    // but keep the vector's capacity for the next fill.
    void release() { objects.clear(); }

   private:
    friend class ObjectTable;
    std::vector<Object> objects;
    std::uint64_t xdigest = 0;
  };
  // Overwrites `s` in place, reusing its vector's capacity.
  void snapshot(Snapshot& s) const {
    flushDigest();
    s.objects = objects_;
    s.xdigest = xdigest_;
  }
  // Exact for any snapshot of a table of the same run: a restore to an
  // ancestor, to a sibling branch, or into a fresh table.
  void restore(const Snapshot& s);

  // Order-insensitive XOR-of-components digest of the table's entire
  // contents, each object's component salted by its ObjId. Free and
  // unobserved — the explorer's state-memoization key must not count as
  // shared-memory traffic. Unlike the trace op digest this depends only
  // on the STATE, never on the op order that produced it, so schedules
  // converging to the same memory agree on it. FLUSHED ON READ: a
  // mutating access (write/update/propose) or an object creation only
  // marks the object stale; reading the digest re-hashes each object that
  // went stale since the last read, once, and swaps its new component in.
  // So a run that never reads the digest never hashes an object, and the
  // explorer, which reads it after every step, pays one component per
  // touched object instead of an O(table) re-hash. The flush writes
  // mutable cache fields, so concurrent readers of one table must
  // synchronize.
  [[nodiscard]] std::uint64_t xorContentsDigest() const {
    flushDigest();
    return xdigest_;
  }
  // Full recompute of the flushed digest, for audit cross-checks (the
  // explorer compares it against the flushed value under WFD_AUDIT and
  // aborts on divergence).
  [[nodiscard]] std::uint64_t xorContentsDigestFull() const;

  // ---- Metadata for auditors (free, never observed) ----
  [[nodiscard]] bool knows(ObjId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < objects_.size();
  }
  [[nodiscard]] Kind kindOf(ObjId id) const;
  [[nodiscard]] int slotCount(ObjId id) const;      // snapshots
  // Snapshot cell contents without counting as an access — the stale-scan
  // auditor and the chaos capture hook compare views at zero model cost.
  [[nodiscard]] const SlotArray& peekSlots(ObjId id) const {
    return objects_[static_cast<std::size_t>(id)].slots;
  }
  [[nodiscard]] int portLimit(ObjId id) const;      // consensus
  [[nodiscard]] int proposerCount(ObjId id) const;  // consensus
  [[nodiscard]] bool hasProposed(ObjId id, Pid p) const;

 private:
  void observe(ObjId id, ObjectAccess access) const {
    if (auditor_ != nullptr) reportAccess(id, access);
  }
  void reportAccess(ObjId id, ObjectAccess access) const;
  // One object's salted component of the XOR digest. xdigest_ is the XOR
  // of every object's cached `component`; flushDigest() brings the stale
  // ones up to date.
  [[nodiscard]] static std::uint64_t objectComponent(ObjId id,
                                                     const Object& obj);
  // One slot of the key index: a key's ObjKeyHash and its id, or id -1
  // for an empty slot.
  struct IndexSlot {
    std::uint64_t hash = 0;
    ObjId id = -1;
  };
  // A key's hash and its id, or id -1 when no object has that name.
  struct Probe {
    std::uint64_t hash;
    ObjId id;
  };
  [[nodiscard]] Probe probe(const ObjKey& key) const;
  // The empty slot that ends the probe chain of `hash`.
  [[nodiscard]] std::size_t emptySlotFor(std::uint64_t hash) const;
  // Enter an absent name under `id`. The index holds ids 0..id-1, so
  // `id` counts its entries; it grows first when one more would pass 3/4
  // load.
  void enter(std::uint64_t hash, ObjId id);
  void grow();
  // Remove the entry of `id`, whose key hashes to `hash`, shifting the
  // rest of its run back so every chain stays unbroken.
  void erase(std::uint64_t hash, ObjId id);
  // Append a new object (stale, so the next flush mixes it in) and name
  // it in the index.
  ObjId create(const Probe& at, const ObjKey& key, Object obj);
  void markStale(ObjId id, const Object& obj) {
    if (!obj.stale) {
      obj.stale = true;
      dirty_.push_back(id);
    }
  }
  void flushDigest() const;

  // The key index, flat and open-addressed: a key's home slot is the low
  // bits of its ObjKeyHash, a collision probes linearly to the next slot
  // (wrapping past the end), and a key is compared, through
  // objects_[id].key, only on a full hash match. The capacity is a power
  // of two (or zero before the first object), doubled when an entry
  // would pass 3/4 load. It holds one entry per object, so
  // objects_.size() counts its entries. restore() removes names with
  // backward-shift deletion, so no tombstone ever lengthens a chain.
  static constexpr std::size_t kMinIndex = 16;
  std::vector<IndexSlot> index_;
  std::size_t mask_ = 0;
  std::vector<Object> objects_;
  mutable std::uint64_t xdigest_ = 0;
  mutable std::vector<ObjId> dirty_;  // stale objects, in first-touch order
  StepAuditor* auditor_ = nullptr;
};

}  // namespace wfd::sim
