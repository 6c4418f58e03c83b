// Env: the per-process view of the world handed to algorithm coroutines.
//
// Everything that costs an atomic step returns an awaitable; everything
// that is free (object naming, tracing) is a plain call. Algorithms are
// written against Env only, never against World directly, which keeps the
// step accounting honest.
#pragma once

#include <string>
#include <utility>

#include "sim/coro.h"
#include "sim/world.h"

namespace wfd::sim {

class Env {
 public:
  Env(World* world, Pid me) : world_(world), me_(me) {}

  [[nodiscard]] Pid me() const { return me_; }
  [[nodiscard]] int nProcs() const { return world_->nProcs(); }
  [[nodiscard]] SnapshotFlavor snapshotFlavor() const {
    return world_->snapshotFlavor();
  }

  // ---- Zero-cost naming ----
  ObjId reg(const ObjKey& key) { return world_->objects().regId(key); }
  ObjId snap(const ObjKey& key, int slots) {
    return world_->objects().snapId(key, slots);
  }
  ObjId cons(const ObjKey& key, int ports) {
    return world_->objects().consId(key, ports);
  }

  // ---- Atomic steps ----
  OpAwait read(ObjId r) { return OpAwait{OpRead{r}}; }
  OpAwait write(ObjId r, RegVal v) { return OpAwait{OpWrite{r, std::move(v)}}; }
  OpAwait snapUpdate(ObjId s, int slot, RegVal v) {
    return OpAwait{OpSnapUpdate{s, slot, std::move(v)}};
  }
  OpAwait snapScan(ObjId s) { return OpAwait{OpSnapScan{s}}; }
  OpAwait consPropose(ObjId c, RegVal v) {
    return OpAwait{OpConsPropose{c, std::move(v)}};
  }
  OpAwait queryFd() { return OpAwait{OpFdQuery{}}; }
  OpAwait yield() { return OpAwait{OpNoop{}}; }

  // ---- Task inputs/outputs (trace records; free, per Sect. 3.3 (iii)
  // accepting an input / producing an output happens within a step) ----
  void propose(Value v) {
    world_->trace().record(world_->now(), me_, EventKind::kPropose, "",
                           RegVal(v));
  }
  void decide(Value v) {
    world_->trace().record(world_->now(), me_, EventKind::kDecide, "",
                           RegVal(v));
  }

  // ---- Free diagnostics / emulated-FD output ----
  void note(std::string label, RegVal v = RegVal()) {
    world_->trace().record(world_->now(), me_, EventKind::kNote,
                           std::move(label), std::move(v));
  }
  void publish(RegVal v) { world_->setPublished(me_, std::move(v)); }
  // Publish only when the value differs from the current one, so trace
  // kPublish events coincide with the emulated output's switch points —
  // the quantity stabilization checkers measure.
  void publishIfChanged(const RegVal& v) {
    if (world_->published(me_) != v) world_->setPublished(me_, v);
  }

  [[nodiscard]] World* world() { return world_; }

 private:
  World* world_;
  Pid me_;
};

}  // namespace wfd::sim
