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
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/proc_set.h"
#include "common/types.h"

namespace wfd {

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
  RegVal(std::int64_t v) : v_(v) {}                    // NOLINT(google-explicit-constructor)
  RegVal(bool b) : v_(b) {}                            // NOLINT(google-explicit-constructor)
  RegVal(const ProcSet& s) : v_(s) {}                  // NOLINT(google-explicit-constructor)
  static RegVal tuple(std::vector<RegVal> elems);
  // One allocation each: the elements go straight into the shared array,
  // with no vector to grow first. Equal, by == and hash64(), to the same
  // elements built through the vector overload. Call the braced-list form
  // from plain functions only: GCC mis-handles braced-init-list
  // temporaries inside coroutine frames.
  static RegVal tuple(std::initializer_list<RegVal> elems);
  static RegVal tuple(std::span<const Value> ints);  // a tuple of ints

  [[nodiscard]] bool isBottom() const {
    return std::holds_alternative<std::monostate>(v_);
  }
  [[nodiscard]] bool isInt() const {
    return std::holds_alternative<std::int64_t>(v_);
  }
  [[nodiscard]] bool isBool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool isSet() const {
    return std::holds_alternative<ProcSet>(v_);
  }
  [[nodiscard]] bool isTuple() const {
    return std::holds_alternative<Tuple>(v_);
  }

  // Checked accessors: calling the wrong one on a live simulation is a
  // protocol bug, so they assert rather than return optionals.
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] const ProcSet& asSet() const;
  [[nodiscard]] TupleView asTuple() const;

  [[nodiscard]] std::string toString() const;

  // Stable structural 64-bit hash (tuples hashed element-wise). Used by
  // the trace hash (sim/trace.h) — must depend only on the value, never
  // on addresses, so that run hashes replay across processes/platforms.
  [[nodiscard]] std::uint64_t hash64() const;

  // Deep structural equality (tuples compared element-wise).
  friend bool operator==(const RegVal& a, const RegVal& b);

 private:
  // Immutable packed tuple payload: a single make_shared<RegVal[]>
  // allocation holds the control block and the elements together (the
  // previous shared_ptr<const vector<RegVal>> boxing cost two). Copies
  // stay O(1); contents are never mutated after construction, so sharing
  // is safe. Kept at the same variant index as the old representation so
  // hash64() — and with it every recorded trace hash — is unchanged.
  struct Tuple {
    std::shared_ptr<const RegVal[]> elems;
    std::size_t size = 0;
  };
  // A tuple of n elements, element i produced by at(i), written straight
  // into the one make_shared array (control block and elements together).
  template <class At>
  static RegVal packed(std::size_t n, At at);

  std::variant<std::monostate, std::int64_t, bool, ProcSet, Tuple> v_;
};

inline bool operator!=(const RegVal& a, const RegVal& b) { return !(a == b); }

}  // namespace wfd
