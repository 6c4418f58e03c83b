// ProcSet: a value-semantic set of process identifiers.
//
// Failure detector ranges in this library are (encodings of) process sets:
// Upsilon outputs a non-empty set, Omega a singleton, Omega^k a k-sized
// set. A flat 64-bit mask keeps sets trivially copyable and hashable,
// which the simulator relies on for register values and trace records.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "common/types.h"

namespace wfd {

// The number of set bits in x. A target without the POPCNT instruction,
// such as baseline x86-64, compiles __builtin_popcountll to a call into
// libgcc (__popcountdi2); this branch-free count gives the same result
// inline.
[[nodiscard]] constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

class ProcSet {
 public:
  constexpr ProcSet() = default;
  ProcSet(std::initializer_list<Pid> pids) {
    for (Pid p : pids) insert(p);
  }

  // The full set {p_0, ..., p_{n_plus_1 - 1}} (the paper's Pi).
  static ProcSet full(int n_plus_1) {
    assert(n_plus_1 >= 0 && n_plus_1 <= kMaxProcs);
    ProcSet s;
    s.bits_ = (n_plus_1 == kMaxProcs) ? ~std::uint64_t{0}
                                      : ((std::uint64_t{1} << n_plus_1) - 1);
    return s;
  }

  static ProcSet singleton(Pid p) {
    ProcSet s;
    s.insert(p);
    return s;
  }

  static ProcSet fromBits(std::uint64_t bits) {
    ProcSet s;
    s.bits_ = bits;
    return s;
  }

  void insert(Pid p) {
    assert(p >= 0 && p < kMaxProcs);
    bits_ |= std::uint64_t{1} << p;
  }
  void erase(Pid p) {
    assert(p >= 0 && p < kMaxProcs);
    bits_ &= ~(std::uint64_t{1} << p);
  }
  [[nodiscard]] bool contains(Pid p) const {
    return p >= 0 && p < kMaxProcs && ((bits_ >> p) & 1) != 0;
  }

  [[nodiscard]] int size() const { return popcount64(bits_); }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] std::uint64_t bits() const { return bits_; }

  // Set algebra. complement() needs the universe size since the mask alone
  // does not know n+1.
  [[nodiscard]] ProcSet complement(int n_plus_1) const {
    return fromBits(full(n_plus_1).bits_ & ~bits_);
  }
  [[nodiscard]] ProcSet unionWith(const ProcSet& o) const {
    return fromBits(bits_ | o.bits_);
  }
  [[nodiscard]] ProcSet intersect(const ProcSet& o) const {
    return fromBits(bits_ & o.bits_);
  }
  [[nodiscard]] ProcSet minus(const ProcSet& o) const {
    return fromBits(bits_ & ~o.bits_);
  }
  [[nodiscard]] bool subsetOf(const ProcSet& o) const {
    return (bits_ & ~o.bits_) == 0;
  }

  // Smallest pid in the set; -1 when empty.
  [[nodiscard]] Pid min() const {
    return empty() ? -1 : __builtin_ctzll(bits_);
  }

  // The i-th smallest member (0-based). Precondition: 0 <= i < size().
  // This is bit-select: with BMI2 a single PDEP, otherwise popcount
  // narrowing over halves — either way no memory traffic, which is what
  // lets the schedule policies drop their members() vectors.
  [[nodiscard]] Pid nth(int i) const {
    assert(i >= 0 && i < size());
    // A contiguous-from-zero set {0..m} — every runnable set until the
    // first crash or completion — selects by identity.
    if ((bits_ & (bits_ + 1)) == 0) return i;
#if defined(__BMI2__)
    return static_cast<Pid>(
        __builtin_ctzll(_pdep_u64(std::uint64_t{1} << i, bits_)));
#else
    std::uint64_t b = bits_;
    auto r = static_cast<unsigned>(i);
    Pid base = 0;
    for (int half = 32; half >= 8; half /= 2) {
      const auto lo = static_cast<unsigned>(
          popcount64(b & ((std::uint64_t{1} << half) - 1)));
      if (r >= lo) {
        r -= lo;
        base += half;
        b >>= half;
      }
    }
    while (r-- > 0) b &= b - 1;  // <= 7 iterations after narrowing
    return base + __builtin_ctzll(b);
#endif
  }

  // Smallest member strictly greater than p; -1 when none. Accepts p = -1
  // ("above nothing", i.e. min()) so round-robin state needs no special
  // first-call case.
  [[nodiscard]] Pid nextAbove(Pid p) const {
    assert(p >= -1 && p < kMaxProcs);
    // p = kMaxProcs - 1 would shift by 64 below (undefined), and has no
    // possible successor anyway.
    if (p >= kMaxProcs - 1) return -1;
    const std::uint64_t above =
        p < 0 ? bits_ : (bits_ >> (p + 1)) << (p + 1);
    return above == 0 ? -1 : __builtin_ctzll(above);
  }

  // Allocation-free forward iteration in increasing pid order. The
  // iterator is just the not-yet-visited mask, so begin()/end() cost
  // nothing and range-for over a ProcSet never touches the heap.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Pid;
    using difference_type = std::ptrdiff_t;

    constexpr iterator() = default;
    Pid operator*() const {
      assert(rest_ != 0);
      return __builtin_ctzll(rest_);
    }
    iterator& operator++() {
      rest_ &= rest_ - 1;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class ProcSet;
    explicit constexpr iterator(std::uint64_t rest) : rest_(rest) {}
    std::uint64_t rest_ = 0;
  };
  using const_iterator = iterator;

  [[nodiscard]] iterator begin() const { return iterator(bits_); }
  [[nodiscard]] iterator end() const { return iterator(0); }

  [[nodiscard]] std::vector<Pid> members() const;

  // Renders as the paper's notation, e.g. "{p1,p3}".
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const ProcSet&, const ProcSet&) = default;

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace wfd
