// RegVal: the universal value type held by simulated shared registers.
//
// The algorithms in the paper store heterogeneous data in shared memory:
// plain proposal values (Fig. 1 line 11), booleans (Stable[r]), process
// sets (failure detector outputs relayed through memory, Fig. 3's R[i]),
// and small tuples (the k-converge helper entries, Afek-snapshot cells).
// RegVal is a closed, value-semantic sum over exactly those shapes; tuples
// are immutable shared packed arrays so that nesting (e.g. a snapshot
// embedded in an Afek cell) stays cheap to copy and safe to share.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/proc_set.h"
#include "common/types.h"

namespace wfd {

class RegVal;

// The shared payload of a RegVal tuple and of a SlotArray
// (common/slot_array.h): a header and `size` RegVal cells in one
// allocation. The header counts the block's holders with a plain integer
// and caches a tuple's hash64(), computed on first use. Blocks come from
// FramePool (common/frame_pool.h), the per-thread size-class pool that
// coroutine frames use too: a dropped tuple's block is reused by the next
// block of its class on the thread that dropped it.
//
// Thread confinement: the count is not atomic, so every holder of one
// block must live on one thread at a time. A run keeps all its values on
// the thread that runs it (a batch shard or an explorer job owns its
// World, checkpoints and result log), and hands them to another thread
// only through a synchronizing hand-off such as a pool join. No
// namespace-scope or static RegVal exists that two runs could share.
class CellBlock {
 public:
  // A block of n ⊥ cells, held once.
  static CellBlock* make(std::size_t n);
  // A block holding copies of b's cells, held once.
  static CellBlock* copyOf(const CellBlock& b);

  // Bytes a block of n cells takes: the header, then the cells.
  static constexpr std::size_t bytes(std::size_t n);

  void retain() noexcept { ++refs_; }
  void release() noexcept {
    if (--refs_ == 0) destroy(this);
  }
  // Another holder shares the block.
  [[nodiscard]] bool shared() const { return refs_ > 1; }

  [[nodiscard]] std::size_t size() const { return size_; }
  // The cells follow the header (sizeof(CellBlock) is a multiple of
  // alignof(RegVal)).
  [[nodiscard]] RegVal* cells() {
    return std::launder(reinterpret_cast<RegVal*>(this + 1));
  }
  [[nodiscard]] const RegVal* cells() const {
    return std::launder(reinterpret_cast<const RegVal*>(this + 1));
  }

 private:
  friend class RegVal;
  friend bool operator==(const RegVal& a, const RegVal& b);
  explicit CellBlock(std::size_t n) : size_(static_cast<std::uint32_t>(n)) {}
  // Storage for the header and n cells; the cells are not constructed.
  static CellBlock* allocate(std::size_t n);
  // Where cell i is to be constructed.
  void* cellStorage(std::size_t i);
  static void destroy(CellBlock* b) noexcept;

  std::uint32_t refs_ = 1;
  std::uint32_t size_ = 0;
  // A tuple's hash64(), valid once `hashed_` is set. Tuples are never
  // written after they are built, so the cached value never goes stale;
  // SlotArray blocks never read it.
  std::uint64_t hash_ = 0;
  bool hashed_ = false;
};

class RegVal {
 public:
  // Non-owning, allocation-free view over a tuple's elements. Returned by
  // asTuple(); valid as long as the RegVal (or any copy sharing its
  // payload) is alive. Supports the vector-ish surface the algorithms
  // use: size(), operator[], range-for.
  class TupleView {
   public:
    using value_type = RegVal;
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    const RegVal& operator[](std::size_t i) const {
      assert(i < size_);
      return data_[i];
    }
    [[nodiscard]] const RegVal* begin() const { return data_; }
    [[nodiscard]] const RegVal* end() const { return data_ + size_; }

   private:
    friend class RegVal;
    constexpr TupleView(const RegVal* data, std::size_t size)
        : data_(data), size_(size) {}
    const RegVal* data_ = nullptr;
    std::size_t size_ = 0;
  };

  // Bottom (the paper's ⊥): the initial content of every register.
  RegVal() = default;
  RegVal(std::int64_t v) : kind_(kInt) { u_.i = v; }  // NOLINT(google-explicit-constructor)
  RegVal(bool b) : kind_(kBool) { u_.b = b; }         // NOLINT(google-explicit-constructor)
  RegVal(const ProcSet& s) : kind_(kSet) { u_.s = s; }  // NOLINT(google-explicit-constructor)
  static RegVal tuple(std::vector<RegVal> elems);
  // One allocation each: the elements go straight into the shared block,
  // with no vector to grow first. Equal, by == and hash64(), to the same
  // elements built through the vector overload. Call the braced-list form
  // from plain functions only: GCC mis-handles braced-init-list
  // temporaries inside coroutine frames.
  static RegVal tuple(std::initializer_list<RegVal> elems);
  static RegVal tuple(std::span<const Value> ints);  // a tuple of ints

  RegVal(const RegVal& o) noexcept : kind_(o.kind_), u_(o.u_) {
    if (kind_ == kTuple && u_.t != nullptr) u_.t->retain();
  }
  // A moved-from RegVal is ⊥.
  RegVal(RegVal&& o) noexcept : kind_(o.kind_), u_(o.u_) { o.kind_ = kBottom; }
  RegVal& operator=(const RegVal& o) noexcept {
    if (o.kind_ == kTuple && o.u_.t != nullptr) o.u_.t->retain();
    drop();
    kind_ = o.kind_;
    u_ = o.u_;
    return *this;
  }
  RegVal& operator=(RegVal&& o) noexcept {
    if (this != &o) {
      drop();
      kind_ = o.kind_;
      u_ = o.u_;
      o.kind_ = kBottom;
    }
    return *this;
  }
  ~RegVal() { drop(); }

  [[nodiscard]] bool isBottom() const { return kind_ == kBottom; }
  [[nodiscard]] bool isInt() const { return kind_ == kInt; }
  [[nodiscard]] bool isBool() const { return kind_ == kBool; }
  [[nodiscard]] bool isSet() const { return kind_ == kSet; }
  [[nodiscard]] bool isTuple() const { return kind_ == kTuple; }

  // Checked accessors: calling the wrong one on a live simulation is a
  // protocol bug, so they assert rather than return optionals.
  [[nodiscard]] std::int64_t asInt() const {
    assert(isInt() && "RegVal: expected int");
    return u_.i;
  }
  [[nodiscard]] bool asBool() const {
    assert(isBool() && "RegVal: expected bool");
    return u_.b;
  }
  [[nodiscard]] const ProcSet& asSet() const {
    assert(isSet() && "RegVal: expected ProcSet");
    return u_.s;
  }
  [[nodiscard]] TupleView asTuple() const {
    assert(isTuple() && "RegVal: expected tuple");
    return u_.t != nullptr ? TupleView{u_.t->cells(), u_.t->size()}
                           : TupleView{nullptr, 0};
  }

  [[nodiscard]] std::string toString() const;

  // Stable structural 64-bit hash (tuples hashed element-wise). Used by
  // the trace hash (sim/trace.h) — must depend only on the value, never
  // on addresses, so that run hashes replay across processes/platforms.
  // A tuple's hash is computed once per payload and cached in its block.
  [[nodiscard]] std::uint64_t hash64() const {
    switch (kind_) {
      case kBottom: return mixDigest(kSeed, kBottom);
      case kInt:
        return mixDigest(mixDigest(kSeed, kInt),
                         static_cast<std::uint64_t>(u_.i));
      case kBool: return mixDigest(mixDigest(kSeed, kBool), u_.b ? 2 : 1);
      case kSet: return mixDigest(mixDigest(kSeed, kSet), u_.s.bits());
      case kTuple: break;
    }
    if (u_.t != nullptr && u_.t->hashed_) return u_.t->hash_;
    return tupleHash();
  }

  // Deep structural equality (tuples compared element-wise).
  friend bool operator==(const RegVal& a, const RegVal& b);

 private:
  // hash64() seeds with the alternative's number, so 0, false, {} and ⊥
  // all differ. Every recorded trace hash, digest and stored key depends
  // on these numbers: never reorder them.
  enum Kind : std::uint8_t { kBottom, kInt, kBool, kSet, kTuple };
  static constexpr std::uint64_t kSeed = 0xCBF29CE484222325ULL;

  // Hash a tuple's elements and cache the result in its block.
  [[nodiscard]] std::uint64_t tupleHash() const;
  // A tuple of n elements, element i produced by at(i), built straight
  // into one block.
  template <class At>
  static RegVal packed(std::size_t n, At at);

  void drop() noexcept {
    if (kind_ == kTuple && u_.t != nullptr) u_.t->release();
  }

  Kind kind_ = kBottom;
  union Payload {
    Payload() : i(0) {}
    std::int64_t i;
    bool b;
    ProcSet s;
    CellBlock* t;  // null: the empty tuple
  } u_;
};

static_assert(sizeof(RegVal) == 16);
static_assert(sizeof(CellBlock) % alignof(RegVal) == 0);

constexpr std::size_t CellBlock::bytes(std::size_t n) {
  return sizeof(CellBlock) + n * sizeof(RegVal);
}

inline bool operator!=(const RegVal& a, const RegVal& b) { return !(a == b); }

}  // namespace wfd
