#include "sim/object_table.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <system_error>

#include "sim/ops.h"
#include "sim/step_audit.h"

namespace wfd::sim {

void ObjKey::append(const char* s) {
  const std::size_t used = std::strlen(tag.data());
  const std::size_t add = std::strlen(s);
  assert(used + add < kTagCap && "ObjKey tag overflow");
  std::memcpy(tag.data() + used, s, add + 1);
}

void ObjKey::append(int n) {
  // Decimal, as "%d" prints it: the text names the object, so ObjIds and
  // every key-derived hash depend on it.
  const std::size_t used = std::strlen(tag.data());
  char* const end = tag.data() + kTagCap - 1;  // keep the NUL
  const auto [ptr, ec] = std::to_chars(tag.data() + used, end, n);
  assert(ec == std::errc() && "ObjKey tag overflow");
  *ptr = '\0';
}

std::string ObjKey::toString() const {
  std::string s = tag.data();
  for (int i : {i0, i1, i2, i3}) {
    if (i >= 0) s += "[" + std::to_string(i) + "]";
  }
  return s;
}

ObjectTable::Probe ObjectTable::probe(const ObjKey& key) const {
  const std::uint64_t h = ObjKeyHash{}(key);
  if (index_.empty()) return {h, -1};
  for (std::size_t i = static_cast<std::size_t>(h) & mask_;;
       i = (i + 1) & mask_) {
    const IndexSlot& e = index_[i];
    if (e.id < 0) return {h, -1};
    if (e.hash == h && objects_[static_cast<std::size_t>(e.id)].key == key) {
      return {h, e.id};
    }
  }
}

std::size_t ObjectTable::emptySlotFor(std::uint64_t hash) const {
  std::size_t i = static_cast<std::size_t>(hash) & mask_;
  while (index_[i].id >= 0) i = (i + 1) & mask_;
  return i;
}

void ObjectTable::enter(std::uint64_t hash, ObjId id) {
  if ((static_cast<std::size_t>(id) + 1) * 4 > index_.size() * 3) grow();
  index_[emptySlotFor(hash)] = IndexSlot{hash, id};
}

void ObjectTable::grow() {
  std::vector<IndexSlot> old(index_.empty() ? kMinIndex : index_.size() * 2);
  old.swap(index_);
  mask_ = index_.size() - 1;
  for (const IndexSlot& e : old) {
    if (e.id >= 0) index_[emptySlotFor(e.hash)] = e;
  }
}

void ObjectTable::erase(std::uint64_t hash, ObjId id) {
  std::size_t hole = static_cast<std::size_t>(hash) & mask_;
  while (index_[hole].id != id) hole = (hole + 1) & mask_;
  // An entry later in the run moves into the hole unless its home slot
  // lies cyclically after the hole: then the hole is not on its chain.
  for (std::size_t j = (hole + 1) & mask_; index_[j].id >= 0;
       j = (j + 1) & mask_) {
    const std::size_t home = static_cast<std::size_t>(index_[j].hash) & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
}

ObjId ObjectTable::create(const Probe& at, const ObjKey& key, Object obj) {
  const ObjId id = static_cast<ObjId>(objects_.size());
  if (id == 0) {
    objects_.reserve(kInitialObjects);
    dirty_.reserve(kInitialObjects);
  }
  obj.key = key;
  enter(at.hash, id);
  objects_.push_back(std::move(obj));
  markStale(id, objects_.back());
  return id;
}

ObjId ObjectTable::regId(const ObjKey& key) {
  const Probe at = probe(key);
  if (at.id >= 0) {
    assert(objects_[static_cast<std::size_t>(at.id)].kind ==
               Kind::kRegister &&
           "object kind mismatch: register requested");
    return at.id;
  }
  return create(at, key, Object{});
}

ObjId ObjectTable::snapId(const ObjKey& key, int slots) {
  assert(slots > 0);
  const Probe at = probe(key);
  if (at.id >= 0) {
    const auto& obj = objects_[static_cast<std::size_t>(at.id)];
    assert(obj.kind == Kind::kSnapshot &&
           "object kind mismatch: snapshot requested");
    assert(static_cast<int>(obj.slots.size()) == slots &&
           "snapshot size mismatch across processes");
    return at.id;
  }
  Object obj;
  obj.kind = Kind::kSnapshot;
  obj.slots = SlotArray(static_cast<std::size_t>(slots));
  return create(at, key, std::move(obj));
}

ObjId ObjectTable::consId(const ObjKey& key, int ports) {
  assert(ports > 0);
  const Probe at = probe(key);
  if (at.id >= 0) {
    const auto& obj = objects_[static_cast<std::size_t>(at.id)];
    assert(obj.kind == Kind::kConsensus &&
           "object kind mismatch: consensus requested");
    assert(obj.ports == ports && "consensus port limit mismatch");
    return at.id;
  }
  Object obj;
  obj.kind = Kind::kConsensus;
  obj.ports = ports;
  return create(at, key, std::move(obj));
}

const RegVal& ObjectTable::read(ObjId id) const {
  observe(id, ObjectAccess::kRead);
  const auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kRegister);
  return obj.reg;
}

void ObjectTable::write(ObjId id, RegVal v) {
  observe(id, ObjectAccess::kWrite);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kRegister);
  obj.reg = std::move(v);
  markStale(id, obj);
}

const SlotArray& ObjectTable::scan(ObjId id) const {
  observe(id, ObjectAccess::kScan);
  const auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kSnapshot);
  return obj.slots;
}

void ObjectTable::update(ObjId id, int slot, RegVal v) {
  observe(id, ObjectAccess::kUpdate);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kSnapshot);
  obj.slots.set(static_cast<std::size_t>(slot), std::move(v));
  markStale(id, obj);
}

RegVal ObjectTable::propose(ObjId id, Pid proposer, RegVal v) {
  observe(id, ObjectAccess::kPropose);
  auto& obj = objects_.at(static_cast<std::size_t>(id));
  assert(obj.kind == Kind::kConsensus);
  if (!obj.proposers.contains(proposer)) {
    obj.proposers.insert(proposer);
    assert(obj.proposers.size() <= obj.ports &&
           "consensus object port limit exceeded: an m-process consensus "
           "object accepts at most m distinct proposers");
  }
  if (obj.reg.isBottom()) obj.reg = std::move(v);  // first proposal wins
  markStale(id, obj);
  return obj.reg;
}

void ObjectTable::restore(const Snapshot& s) {
  // Objects are only ever appended, so the index maps objects_[i].key to
  // i. Up to the first position whose key differs, the live table and the
  // snapshot name the same objects under the same ids; from there on,
  // drop the live names and enter the snapshot's.
  const std::size_t common = std::min(objects_.size(), s.objects.size());
  std::size_t same = 0;
  while (same < common && objects_[same].key == s.objects[same].key) ++same;
  for (std::size_t i = same; i < objects_.size(); ++i) {
    erase(ObjKeyHash{}(objects_[i].key), static_cast<ObjId>(i));
  }
  for (std::size_t i = same; i < s.objects.size(); ++i) {
    enter(ObjKeyHash{}(s.objects[i].key), static_cast<ObjId>(i));
  }
  objects_ = s.objects;
  xdigest_ = s.xdigest;
  dirty_.clear();
}

std::uint64_t ObjectTable::objectComponent(ObjId id, const Object& obj) {
  // The id is part of the component: XOR aggregation is order-blind, so
  // without it two objects swapping contents would cancel out.
  std::uint64_t h = mixDigest(0x9216D5D98979FB1BULL,
                              static_cast<std::uint64_t>(id) + 1);
  h = mixDigest(h, static_cast<std::uint64_t>(obj.kind) + 1);
  h = mixDigest(h, obj.reg.hash64());
  h = mixDigest(h, obj.slots.size());
  for (const RegVal& v : obj.slots) h = mixDigest(h, v.hash64());
  h = mixDigest(h, obj.proposers.bits());
  h = mixDigest(h, static_cast<std::uint64_t>(obj.ports));
  return h;
}

void ObjectTable::flushDigest() const {
  for (const ObjId id : dirty_) {
    const Object& obj = objects_[static_cast<std::size_t>(id)];
    xdigest_ ^= obj.component;
    obj.component = objectComponent(id, obj);
    xdigest_ ^= obj.component;
    obj.stale = false;
  }
  dirty_.clear();
}

std::uint64_t ObjectTable::xorContentsDigestFull() const {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    h ^= objectComponent(static_cast<ObjId>(i), objects_[i]);
  }
  return h;
}

ObjectTable::Kind ObjectTable::kindOf(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].kind;
}

int ObjectTable::slotCount(ObjId id) const {
  assert(knows(id));
  return static_cast<int>(objects_[static_cast<std::size_t>(id)].slots.size());
}

int ObjectTable::portLimit(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].ports;
}

int ObjectTable::proposerCount(ObjId id) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].proposers.size();
}

bool ObjectTable::hasProposed(ObjId id, Pid p) const {
  assert(knows(id));
  return objects_[static_cast<std::size_t>(id)].proposers.contains(p);
}

void ObjectTable::reportAccess(ObjId id, ObjectAccess access) const {
  auditor_->onObjectAccess(id, access);
}

}  // namespace wfd::sim
