// DigestSet: a flat set of 64-bit state digests, the kDag memo
// (sim/explore.cc).
//
// The memo holds one digest per fully explored state, hundreds of
// thousands on the bounded Fig. 1 cut, and is probed once or twice per
// executed step. A node-based std::unordered_set spent one heap node per
// digest plus a bucket array; this set keeps the digests themselves in
// one open-addressed array:
//
//   * the keys are already mixed (mixDigest outputs XORed together), so
//     a digest's home slot is its low bits and a collision probes
//     linearly to the next slot, wrapping past the end of the array;
//   * the capacity is a power of two, doubled when an insert would pass
//     3/4 load. A grow holds the old and the new array at once, so a
//     lower load factor would raise the peak footprint, not lower it;
//   * slot value 0 marks an empty slot, so the digest 0 is kept out of
//     band in a flag.
//
// Only contains/insert/size: the set is never iterated, so its slot order
// cannot reach a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wfd::sim {

class DigestSet {
 public:
  [[nodiscard]] bool contains(std::uint64_t d) const {
    if (d == 0) return has_zero_;
    return !slots_.empty() && slots_[slotFor(d)] == d;
  }

  // Adds d; false when it was already present.
  bool insert(std::uint64_t d) {
    if (d == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      return fresh;
    }
    if (!slots_.empty() && slots_[slotFor(d)] == d) return false;
    if ((used_ + 1) * 4 > slots_.size() * 3) grow();
    slots_[slotFor(d)] = d;
    ++used_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return used_ + (has_zero_ ? 1 : 0); }

  // Slots in the array: 0 before the first nonzero insert, else a power
  // of two that only grows.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  // The slot holding d, or the empty slot that ends d's probe chain. The
  // array is never full (load stays at or below 3/4), so the walk ends.
  [[nodiscard]] std::size_t slotFor(std::uint64_t d) const {
    std::size_t i = static_cast<std::size_t>(d) & mask_;
    while (slots_[i] != d && slots_[i] != 0) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.empty() ? kMinCapacity
                                                  : slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const std::uint64_t d : old) {
      if (d != 0) slots_[slotFor(d)] = d;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;  // nonzero digests in slots_
  bool has_zero_ = false;
};

}  // namespace wfd::sim
