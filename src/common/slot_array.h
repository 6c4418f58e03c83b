// SlotArray: the cells of one atomic snapshot object, shared copy-on-write.
//
// A snapshot object's cells, every scan that reads them, the result-log
// nodes that record those scans, and the checkpoints of the object table
// all hold the same array, so copying a SlotArray is one reference-count
// increment. set() copies the cells first only while another holder
// still shares them: every holder keeps the cells it saw, exactly as if
// each had its own vector. One allocation holds the control block and the
// cells together (make_shared<RegVal[]>, as RegVal tuples).
//
// Thread confinement: set() tells "shared" from "sole holder" by
// use_count(), which is exact only while every holder of one array lives
// on one thread. Runs are confined to one thread (a batch shard or an
// explorer job owns its World, checkpoints and result log); a whole World
// may move to another thread only through a synchronizing hand-off, such
// as a pool join. Never hand a SlotArray alone to another thread that
// keeps using it while this one writes. The same holds for the other
// copy-on-write parts of a World checkpoint: the published outputs (a
// SlotArray) and the trace's event vector (sim/trace.h). The failure
// pattern a checkpoint shares is immutable and may cross threads.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/reg_val.h"

namespace wfd {

class SlotArray {
 public:
  SlotArray() = default;
  // n ⊥ cells.
  explicit SlotArray(std::size_t n) : size_(n) {
    if (n > 0) cells_ = std::make_shared<RegVal[]>(n);
  }
  // Wraps cells built elsewhere (an Afek scan's collect).
  explicit SlotArray(std::vector<RegVal> cells) : SlotArray(cells.size()) {
    for (std::size_t i = 0; i < size_; ++i) cells_[i] = std::move(cells[i]);
  }

  SlotArray(const SlotArray&) = default;
  SlotArray& operator=(const SlotArray&) = default;
  // A moved-from array is empty, never a size without cells.
  SlotArray(SlotArray&& o) noexcept
      : cells_(std::move(o.cells_)), size_(std::exchange(o.size_, 0)) {}
  SlotArray& operator=(SlotArray&& o) noexcept {
    cells_ = std::move(o.cells_);
    size_ = std::exchange(o.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const RegVal& operator[](std::size_t i) const {
    assert(i < size_);
    return cells_[i];
  }
  // Throws std::out_of_range for a cell past the end, as std::vector's.
  [[nodiscard]] const RegVal& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SlotArray::at: no such cell");
    return cells_[i];
  }
  [[nodiscard]] const RegVal* begin() const { return cells_.get(); }
  [[nodiscard]] const RegVal* end() const { return cells_.get() + size_; }

  // Store v in cell i, copying the cells first if another holder shares
  // them. Throws std::out_of_range for a cell past the end.
  void set(std::size_t i, RegVal v) {
    if (i >= size_) throw std::out_of_range("SlotArray::set: no such cell");
    if (cells_.use_count() > 1) {
      auto own = std::make_shared<RegVal[]>(size_);
      for (std::size_t j = 0; j < size_; ++j) own[j] = cells_[j];
      cells_ = std::move(own);
    }
    cells_[i] = std::move(v);
  }

  // Element-wise, as std::vector's.
  friend bool operator==(const SlotArray& a, const SlotArray& b) {
    if (a.size_ != b.size_) return false;
    if (a.cells_ == b.cells_) return true;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.cells_[i] != b.cells_[i]) return false;
    }
    return true;
  }

 private:
  std::shared_ptr<RegVal[]> cells_;
  std::size_t size_ = 0;
};

}  // namespace wfd
