#include "common/reg_val.h"

#include <cassert>

namespace wfd {

std::int64_t RegVal::asInt() const {
  assert(isInt() && "RegVal: expected int");
  return std::get<std::int64_t>(v_);
}

bool RegVal::asBool() const {
  assert(isBool() && "RegVal: expected bool");
  return std::get<bool>(v_);
}

const ProcSet& RegVal::asSet() const {
  assert(isSet() && "RegVal: expected ProcSet");
  return std::get<ProcSet>(v_);
}

template <class At>
RegVal RegVal::packed(std::size_t n, At at) {
  std::shared_ptr<RegVal[]> buf;
  if (n > 0) {
    buf = std::make_shared<RegVal[]>(n);
    for (std::size_t i = 0; i < n; ++i) buf[i] = at(i);
  }
  RegVal r;
  r.v_ = Tuple{std::move(buf), n};
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

RegVal::TupleView RegVal::asTuple() const {
  assert(isTuple() && "RegVal: expected tuple");
  const Tuple& t = std::get<Tuple>(v_);
  return {t.elems.get(), t.size};
}

bool operator==(const RegVal& a, const RegVal& b) {
  if (a.v_.index() != b.v_.index()) return false;
  if (a.isBottom()) return true;
  if (a.isInt()) return a.asInt() == b.asInt();
  if (a.isBool()) return a.asBool() == b.asBool();
  if (a.isSet()) return a.asSet() == b.asSet();
  const auto ta = a.asTuple();
  const auto tb = b.asTuple();
  if (ta.size() != tb.size()) return false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i] != tb[i]) return false;
  }
  return true;
}

std::uint64_t RegVal::hash64() const {
  // Alternative index seeds the hash so 0, false, {} and ⊥ all differ.
  const auto mix = [](std::uint64_t h, std::uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return h;
  };
  std::uint64_t h = mix(0xCBF29CE484222325ULL, v_.index());
  if (isInt()) return mix(h, static_cast<std::uint64_t>(asInt()));
  if (isBool()) return mix(h, asBool() ? 2 : 1);
  if (isSet()) return mix(h, asSet().bits());
  if (isTuple()) {
    const auto& t = asTuple();
    h = mix(h, t.size());
    for (const auto& e : t) h = mix(h, e.hash64());
  }
  return h;
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
