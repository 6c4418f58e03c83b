// SlotArray: the cells of one atomic snapshot object, shared copy-on-write.
//
// A snapshot object's cells, every scan that reads them, the result-log
// nodes that record those scans, and the checkpoints of the object table
// all hold the same array, so copying a SlotArray is one count increment.
// set() copies the cells first only while another holder still shares
// them: every holder keeps the cells it saw, exactly as if each had its
// own vector. One allocation holds the header and the cells together: the
// CellBlock a RegVal tuple uses (common/reg_val.h).
//
// Thread confinement: the block counts its holders with a plain integer,
// and set() tells "shared" from "sole holder" by that count, so both are
// exact only while every holder of one array lives on one thread. Runs
// are confined to one thread (a batch shard or an explorer job owns its
// World, checkpoints and result log); a whole World may move to another
// thread only through a synchronizing hand-off, such as a pool join.
// Never hand a SlotArray alone to another thread that keeps using it
// while this one writes. The same holds for the other copy-on-write parts
// of a World checkpoint: the published outputs (a SlotArray) and the
// trace's event vector (sim/trace.h). The failure pattern a checkpoint
// shares is immutable and may cross threads.
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/reg_val.h"

namespace wfd {

class SlotArray {
 public:
  SlotArray() = default;
  // n ⊥ cells.
  explicit SlotArray(std::size_t n)
      : cells_(n > 0 ? CellBlock::make(n) : nullptr) {}
  // Wraps cells built elsewhere (an Afek scan's collect).
  explicit SlotArray(std::vector<RegVal> cells) : SlotArray(cells.size()) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells_->cells()[i] = std::move(cells[i]);
    }
  }

  SlotArray(const SlotArray& o) noexcept : cells_(o.cells_) {
    if (cells_ != nullptr) cells_->retain();
  }
  // A moved-from array is empty.
  SlotArray(SlotArray&& o) noexcept
      : cells_(std::exchange(o.cells_, nullptr)) {}
  SlotArray& operator=(const SlotArray& o) noexcept {
    if (o.cells_ != nullptr) o.cells_->retain();
    drop();
    cells_ = o.cells_;
    return *this;
  }
  SlotArray& operator=(SlotArray&& o) noexcept {
    if (this != &o) {
      drop();
      cells_ = std::exchange(o.cells_, nullptr);
    }
    return *this;
  }
  ~SlotArray() { drop(); }

  [[nodiscard]] std::size_t size() const {
    return cells_ != nullptr ? cells_->size() : 0;
  }
  [[nodiscard]] bool empty() const { return cells_ == nullptr; }
  const RegVal& operator[](std::size_t i) const {
    assert(i < size());
    return cells_->cells()[i];
  }
  // Throws std::out_of_range for a cell past the end, as std::vector's.
  [[nodiscard]] const RegVal& at(std::size_t i) const {
    if (i >= size()) throw std::out_of_range("SlotArray::at: no such cell");
    return cells_->cells()[i];
  }
  [[nodiscard]] const RegVal* begin() const {
    return cells_ != nullptr ? cells_->cells() : nullptr;
  }
  [[nodiscard]] const RegVal* end() const {
    return cells_ != nullptr ? cells_->cells() + cells_->size() : nullptr;
  }

  // Store v in cell i, copying the cells first if another holder shares
  // them. Throws std::out_of_range for a cell past the end.
  void set(std::size_t i, RegVal v) {
    if (i >= size()) throw std::out_of_range("SlotArray::set: no such cell");
    if (cells_->shared()) {
      CellBlock* const own = CellBlock::copyOf(*cells_);
      cells_->release();
      cells_ = own;
    }
    cells_->cells()[i] = std::move(v);
  }

  // Element-wise, as std::vector's.
  friend bool operator==(const SlotArray& a, const SlotArray& b) {
    if (a.cells_ == b.cells_) return true;
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  void drop() noexcept {
    if (cells_ != nullptr) cells_->release();
  }

  CellBlock* cells_ = nullptr;  // null: no cells
};

}  // namespace wfd
