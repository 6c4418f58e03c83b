#include "sim/report_cache.h"

#include "sim/codec.h"

namespace wfd::sim {

namespace {

using fd::digestString;
using fd::mixDigest;

std::uint64_t digestPatternOpt(std::uint64_t h,
                               const std::optional<FailurePattern>& fp) {
  if (!fp.has_value()) return mixDigest(h, 0x0F);
  return fd::digestPattern(mixDigest(h, 0xF0), *fp);
}

std::uint64_t digestChaos(std::uint64_t h, const ChaosConfig& c) {
  h = mixDigest(h, c.seed);
  h = mixDigest(h, static_cast<std::uint64_t>(c.max_faulty));
  h = mixDigest(h, c.protected_pids.bits());
  h = mixDigest(h, c.crashes.size());
  for (const CrashInjection& ci : c.crashes) {
    h = mixDigest(h, static_cast<std::uint64_t>(ci.strategy));
    h = mixDigest(h, static_cast<std::uint64_t>(ci.victim) + 1);
    h = mixDigest(h, static_cast<std::uint64_t>(ci.at));
    h = mixDigest(h, static_cast<std::uint64_t>(ci.horizon));
    h = mixDigest(h, static_cast<std::uint64_t>(ci.count));
    h = mixDigest(h, ci.seed);
  }
  h = mixDigest(h, c.starvation.size());
  for (const StarvationWindow& sw : c.starvation) {
    h = mixDigest(h, sw.victims.bits());
    h = mixDigest(h, static_cast<std::uint64_t>(sw.from));
    h = mixDigest(h, static_cast<std::uint64_t>(sw.length));
  }
  if (c.op_delay.has_value()) {
    h = mixDigest(h, static_cast<std::uint64_t>(c.op_delay->period));
    h = mixDigest(h, static_cast<std::uint64_t>(c.op_delay->hold));
    h = mixDigest(h, c.op_delay->seed);
  } else {
    h = mixDigest(h, 0x0D);
  }
  if (c.stale_snapshot.has_value()) {
    h = mixDigest(h, static_cast<std::uint64_t>(c.stale_snapshot->permille));
    h = mixDigest(h, c.stale_snapshot->seed);
    h = mixDigest(h, c.stale_snapshot->illegal_past ? 2u : 1u);
  } else {
    h = mixDigest(h, 0x5C);
  }
  h = mixDigest(h, static_cast<std::uint64_t>(c.glitch.kind));
  h = mixDigest(h, static_cast<std::uint64_t>(c.glitch.delay));
  h = mixDigest(h, c.glitch.seed);
  return h;
}

std::uint64_t digestWatchdog(std::uint64_t h, const WatchdogConfig& wd) {
  h = mixDigest(h, static_cast<std::uint64_t>(wd.step_budget));
  h = mixDigest(h, static_cast<std::uint64_t>(wd.livelock_window));
  h = mixDigest(h, static_cast<std::uint64_t>(wd.safety_k));
  return h;
}

// The store holds opaque bytes; the cache owns their CellResult format.
// A payload that is not exactly one CellResult is a miss, never a hit.
std::optional<CellResult> decodeStored(
    const std::optional<std::vector<std::uint8_t>>& bytes) {
  if (!bytes.has_value()) return std::nullopt;
  ByteReader rd(bytes->data(), bytes->size());
  CellResult r;
  if (!decodeCellResult(rd, r) || !rd.atEnd()) return std::nullopt;
  return r;
}

}  // namespace

std::optional<std::uint64_t> cellKey(const BatchCell& cell) {
  if (cell.memo_family.empty()) return std::nullopt;
  // A caller-requested audit (explicit or via the WFD_AUDIT latch) means
  // the run must actually execute under the auditor.
  if (resolvedAuditMode(cell.cfg.audit).has_value()) return std::nullopt;
  // A service cell's execution is pinned entirely by its config digest —
  // none of the run-cell recipe fields (or their opaque callables) apply.
  if (cell.service.has_value()) {
    return mixDigest(digestString(0x5EC1, cell.memo_family),
                     cell.service->digest());
  }
  std::uint64_t fd_digest = 0x11;  // distinct constant for "no detector"
  if (cell.cfg.fd != nullptr) {
    fd_digest = cell.cfg.fd->keyDigest();
    if (fd_digest == fd::kOpaqueFdDigest) return std::nullopt;
  }
  std::uint64_t h = digestString(0x5EC0, cell.memo_family);
  h = mixDigest(h, static_cast<std::uint64_t>(cell.cfg.n_plus_1));
  h = digestPatternOpt(h, cell.cfg.fp);
  h = mixDigest(h, fd_digest);
  h = mixDigest(h, cell.cfg.seed);
  h = mixDigest(h, static_cast<std::uint64_t>(cell.cfg.max_steps));
  h = mixDigest(h, static_cast<std::uint64_t>(cell.cfg.flavor));
  h = mixDigest(h, static_cast<std::uint64_t>(cell.cfg.policy));
  h = mixDigest(h, cell.proposals.size());
  for (const Value v : cell.proposals) {
    h = mixDigest(h, static_cast<std::uint64_t>(v));
  }
  if (cell.chaos.has_value()) {
    h = digestChaos(mixDigest(h, 0xC1), *cell.chaos);
  } else {
    h = mixDigest(h, 0xC0);
  }
  if (cell.watchdog.has_value()) {
    h = digestWatchdog(mixDigest(h, 0xD1), *cell.watchdog);
  } else {
    h = mixDigest(h, 0xD0);
  }
  // Presence bit: the family is SUPPOSED to pin the post-hook, but a
  // family used with and without one is a caller bug this keeps from
  // silently serving wrong results.
  h = mixDigest(h, (cell.post ? 2u : 1u));
  h = mixDigest(h, 1u);  // policy_factory, never set: keeps stored keys
  return h;
}

ReportCache::ReportCache(std::size_t capacity,
                         std::unique_ptr<ResultStore> store)
    : capacity_(capacity == 0 ? 1 : capacity), store_(std::move(store)) {}

std::optional<CellResult> ReportCache::lookup(std::uint64_t key,
                                              std::size_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    if (store_ != nullptr) {
      // Second level: the persistent store. A disk hit is still a cache
      // hit (the caller skips the run); it also warms the LRU so repeat
      // lookups in this process stay in memory.
      if (std::optional<CellResult> stored = decodeStored(store_->load(key));
          stored.has_value()) {
        ++hits_;
        ++disk_hits_;
        insertLocked(key, *stored, /*persisted=*/true);
        stored->index = index;
        return stored;
      }
      ++disk_misses_;
    }
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  CellResult out = it->second.result;
  out.index = index;
  return out;
}

void ReportCache::insert(std::uint64_t key, const CellResult& result) {
  const std::lock_guard<std::mutex> lock(mu_);
  insertLocked(key, result, /*persisted=*/false);
}

void ReportCache::insertLocked(std::uint64_t key, const CellResult& result,
                               bool persisted) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent workers may both miss and both run the cell; the recipes
    // are deterministic so both results are identical — refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  if (map_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++evictions_;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{result, lru_.begin()});
  if (!persisted && store_ != nullptr) {
    // Fresh result: make it durable. The store dedupes keys internally,
    // so a re-inserted eviction victim costs an encode and an index
    // probe, not bytes on disk.
    ByteWriter w;
    encodeCellResult(w, result);
    store_->save(key, w.bytes());
  }
}

std::size_t ReportCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t ReportCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t ReportCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t ReportCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t ReportCache::diskHits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return disk_hits_;
}

std::size_t ReportCache::diskMisses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return disk_misses_;
}

}  // namespace wfd::sim
