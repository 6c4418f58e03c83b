#include "common/reg_val.h"

#include <new>

#include "common/frame_pool.h"

namespace wfd {

CellBlock* CellBlock::allocate(std::size_t n) {
  return ::new (FramePool::allocate(bytes(n))) CellBlock(n);
}

void* CellBlock::cellStorage(std::size_t i) {
  return reinterpret_cast<std::byte*>(this + 1) + i * sizeof(RegVal);
}

void CellBlock::destroy(CellBlock* b) noexcept {
  RegVal* const cells = b->cells();
  for (std::size_t i = 0; i < b->size_; ++i) cells[i].~RegVal();
  const std::size_t n = b->size_;
  b->~CellBlock();
  FramePool::deallocate(b, bytes(n));
}

CellBlock* CellBlock::make(std::size_t n) {
  CellBlock* b = allocate(n);
  for (std::size_t i = 0; i < n; ++i) ::new (b->cellStorage(i)) RegVal();
  return b;
}

CellBlock* CellBlock::copyOf(const CellBlock& from) {
  CellBlock* b = allocate(from.size_);
  for (std::size_t i = 0; i < from.size_; ++i) {
    ::new (b->cellStorage(i)) RegVal(from.cells()[i]);
  }
  return b;
}

template <class At>
RegVal RegVal::packed(std::size_t n, At at) {
  RegVal r;
  r.kind_ = kTuple;
  r.u_.t = nullptr;
  if (n > 0) {
    CellBlock* b = CellBlock::allocate(n);
    for (std::size_t i = 0; i < n; ++i) {
      ::new (b->cellStorage(i)) RegVal(at(i));
    }
    r.u_.t = b;
  }
  return r;
}

RegVal RegVal::tuple(std::vector<RegVal> elems) {
  return packed(elems.size(),
                [&](std::size_t i) { return std::move(elems[i]); });
}

RegVal RegVal::tuple(std::initializer_list<RegVal> elems) {
  return packed(elems.size(), [&](std::size_t i) { return elems.begin()[i]; });
}

RegVal RegVal::tuple(std::span<const Value> ints) {
  return packed(ints.size(), [&](std::size_t i) { return RegVal(ints[i]); });
}

std::uint64_t RegVal::tupleHash() const {
  const TupleView t = asTuple();
  std::uint64_t h = mixDigest(mixDigest(kSeed, kTuple), t.size());
  for (const RegVal& e : t) h = mixDigest(h, e.hash64());
  if (u_.t != nullptr) {
    u_.t->hash_ = h;
    u_.t->hashed_ = true;
  }
  return h;
}

bool operator==(const RegVal& a, const RegVal& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case RegVal::kBottom: return true;
    case RegVal::kInt: return a.u_.i == b.u_.i;
    case RegVal::kBool: return a.u_.b == b.u_.b;
    case RegVal::kSet: return a.u_.s == b.u_.s;
    case RegVal::kTuple: break;
  }
  if (a.u_.t == b.u_.t) return true;  // one payload
  const CellBlock* const x = a.u_.t;
  const CellBlock* const y = b.u_.t;
  // Equal payloads hash equal, so two cached hashes that differ decide.
  if (x != nullptr && y != nullptr && x->hashed_ && y->hashed_ &&
      x->hash_ != y->hash_) {
    return false;
  }
  const auto ta = a.asTuple();
  const auto tb = b.asTuple();
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i] != tb[i]) return false;
  }
  return true;
}

std::string RegVal::toString() const {
  if (isBottom()) return "⊥";
  if (isInt()) return std::to_string(asInt());
  if (isBool()) return asBool() ? "true" : "false";
  if (isSet()) return asSet().toString();
  std::string s = "(";
  const auto& t = asTuple();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ", ";
    s += t[i].toString();
  }
  s += ")";
  return s;
}

}  // namespace wfd
