#include <algorithm>
#include <cassert>
#include <string>

#include "memory/snapshot.h"

namespace wfd::mem {

namespace {

// Register holding slot i's cell: a tuple (seq, value, embedded-scan).
sim::ObjId cellReg(Env& env, const SnapshotHandle& h, int slot) {
  ObjKey k = h.key;
  k.append("#cell");
  k.append(slot);
  return env.reg(k);
}

std::int64_t cellSeq(const RegVal& cell) {
  return cell.isBottom() ? 0 : cell.asTuple()[0].asInt();
}

RegVal cellValue(const RegVal& cell) {
  return cell.isBottom() ? RegVal() : cell.asTuple()[1];
}

// The published cell (seq, value, embedded-scan). A plain function, so the
// braced list stays out of the coroutine frame.
RegVal makeCell(std::int64_t seq, const RegVal& v,
                std::vector<RegVal> view) {
  return RegVal::tuple({RegVal(seq), v, RegVal::tuple(std::move(view))});
}

// The native object behind h, resolved on the handle's first use.
sim::ObjId nativeId(Env& env, const SnapshotHandle& h) {
  if (h.id < 0) h.id = env.snap(h.key, h.slots);
  return h.id;
}

// One collect: read the m cell registers in index order (m atomic steps).
Coro<std::vector<RegVal>> collect(Env& env, const SnapshotHandle& h) {
  std::vector<RegVal> cells;
  cells.reserve(static_cast<std::size_t>(h.slots));
  for (int i = 0; i < h.slots; ++i) {
    auto r = co_await env.read(cellReg(env, h, i));
    cells.push_back(std::move(r.scalar));
  }
  co_return cells;
}

// Wait-free scan: repeat collects until either two successive collects are
// identical (a clean double collect — the values were simultaneously
// present) or some writer has been observed moving twice, in which case
// its most recent cell embeds a scan taken entirely within our interval
// and we return that ("borrowed" scan).
Coro<std::vector<RegVal>> afekScan(Env& env, const SnapshotHandle& h) {
  std::vector<int> moved(static_cast<std::size_t>(h.slots), 0);
  std::vector<RegVal> prev = co_await collect(env, h);
  for (;;) {
    std::vector<RegVal> cur = co_await collect(env, h);
    bool clean = true;
    for (int i = 0; i < h.slots; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (cellSeq(prev[idx]) != cellSeq(cur[idx])) {
        clean = false;
        if (moved[idx] >= 1) {
          // Second observed move of writer i: borrow its embedded scan.
          const auto& embedded = cur[idx].asTuple()[2].asTuple();
          co_return std::vector<RegVal>(embedded.begin(), embedded.end());
        }
        moved[idx] = 1;
      }
    }
    if (clean) {
      std::vector<RegVal> out;
      out.reserve(static_cast<std::size_t>(h.slots));
      for (const auto& c : cur) out.push_back(cellValue(c));
      co_return out;
    }
    prev = std::move(cur);
  }
}

// Wait-free update: embed a fresh scan so that concurrent scanners can
// borrow it, then publish (seq+1, v, scan) in one register write.
// (RegVal by const&: coroutine parameters must be trivially copyable or
// references; see the ObjKey comment in sim/object_table.h.)
Coro<Unit> afekUpdate(Env& env, const SnapshotHandle& h, int slot,
                      const RegVal& v) {
  std::vector<RegVal> view = co_await afekScan(env, h);
  // The slot is single-writer, so re-reading our own cell for the sequence
  // number is race-free.
  auto own = co_await env.read(cellReg(env, h, slot));
  const std::int64_t seq = cellSeq(own.scalar) + 1;
  co_await env.write(cellReg(env, h, slot), makeCell(seq, v, std::move(view)));
  co_return Unit{};
}

}  // namespace

SnapshotHandle makeSnapshot(Env& env, ObjKey key, int slots) {
  return SnapshotHandle{std::move(key), slots, env.snapshotFlavor()};
}

SnapshotHandle makeSnapshot(ObjKey key, int slots, SnapshotFlavor flavor) {
  return SnapshotHandle{std::move(key), slots, flavor};
}

SnapAwait<Unit> snapshotUpdate(Env& env, const SnapshotHandle& h, int slot,
                               const RegVal& v) {
  assert(slot >= 0 && slot < h.slots);
  if (h.flavor == SnapshotFlavor::kAfek) {
    return SnapAwait<Unit>(afekUpdate(env, h, slot, v));
  }
  return SnapAwait<Unit>(env.snapUpdate(nativeId(env, h), slot, v));
}

SnapAwait<SlotArray, std::vector<RegVal>> snapshotScan(
    Env& env, const SnapshotHandle& h) {
  using Await = SnapAwait<SlotArray, std::vector<RegVal>>;
  if (h.flavor == SnapshotFlavor::kAfek) return Await(afekScan(env, h));
  return Await(env.snapScan(nativeId(env, h)));
}

int nonBottomCount(std::span<const RegVal> slots) {
  int c = 0;
  for (const auto& v : slots) {
    if (!v.isBottom()) ++c;
  }
  return c;
}

std::vector<Value> distinctValues(std::span<const RegVal> slots) {
  std::vector<Value> out(slots.size());
  out.resize(distinctValuesInto(slots, out).size());
  return out;
}

std::span<const Value> distinctValuesInto(std::span<const RegVal> slots,
                                          std::span<Value> buf) {
  assert(buf.size() >= slots.size());
  std::size_t n = 0;
  for (const auto& v : slots) {
    if (v.isInt()) buf[n++] = v.asInt();
  }
  const auto first = buf.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  std::sort(first, last);
  return {first, std::unique(first, last)};
}

Value minValue(std::span<const RegVal> slots) {
  Value best = kBottomValue;
  for (const auto& v : slots) {
    if (v.isInt() && (best == kBottomValue || v.asInt() < best)) {
      best = v.asInt();
    }
  }
  return best;
}

}  // namespace wfd::mem
