// PersistentStore: on-disk ResultStore (sim/report_cache.h) — the backing
// of ReportCache and of the explorer's certificates.
//
// Layout: one append-only segment file per (directory, version stamp):
//
//   dir/store-<hex16(version_digest)>.wfdc
//   header = [u64 kFileMagic][u64 kFormatVersion][u64 version_digest]
//   record = [u32 kRecMagic][u64 key][u32 payload_len]
//            [payload][u64 checksum]
//
// The payload is opaque bytes: ReportCache writes encodeCellResult bytes
// (sim/codec.h) and the explorer writes certificate records
// (docs/EXPLORE.md). The store frames and checksums them, and each reader
// decodes its own, treating a payload it cannot decode as a miss.
//
// The version digest folds kFormatVersion with the caller's stamp
// (StoreOptions::version — typically the git SHA or a digest of the
// digest-relevant sources). Because the stamp is part of the FILENAME, a
// schema or semantics change simply addresses a different segment: stale
// caches self-invalidate by never being opened, no migration or deletion
// logic needed. The header repeats the digest as a belt-and-suspenders
// check against renamed files.
//
// Concurrency: appends are whole-record write()s on an O_APPEND fd under
// flock(LOCK_EX), so records from concurrent processes interleave but
// never interleave WITHIN a record. Readers mmap the segment PROT_READ
// and scan forward lazily; per-record checksums mean a torn/truncated
// tail, a crashed writer, or plain corruption degrades to a cold miss —
// never a wrong hit, never a crash. An incomplete record at the tail is
// retried on the next refresh (another process may still be writing it);
// a record with a bad magic or checksum marks the tail permanently
// corrupt and scanning stops for the lifetime of this handle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/report_cache.h"

namespace wfd::sim {

struct StoreOptions {
  std::string dir;      // created if missing
  std::string version;  // invalidation stamp; "" = format version only
};

class PersistentStore : public ResultStore {
 public:
  explicit PersistentStore(const StoreOptions& opts);
  ~PersistentStore() override;

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  // Exact stored payload or nullopt. Scans any bytes appended since the
  // last call (by this or another process) before concluding a miss.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      std::uint64_t key) override;

  // Durably append key -> payload. Deduped per key within this handle and
  // against every record already scanned; failures disable the handle
  // (healthy() goes false) rather than throwing.
  void save(std::uint64_t key,
            const std::vector<std::uint8_t>& payload) override;

  // False after any unrecoverable I/O or header failure: every load
  // misses and every save no-ops, i.e. the campaign runs cold but runs.
  [[nodiscard]] bool healthy() const;
  [[nodiscard]] std::size_t records() const;  // distinct keys scanned
  [[nodiscard]] std::size_t appends() const;  // records this handle wrote
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] static std::uint64_t versionDigest(const std::string& version);
  [[nodiscard]] static std::string segmentPath(const std::string& dir,
                                               const std::string& version);

 private:
  void refreshLocked();

  mutable std::mutex mu_;
  std::string path_;
  std::uint64_t version_digest_ = 0;
  int fd_ = -1;
  bool healthy_ = false;
  bool tail_corrupt_ = false;  // permanent: stop scanning past bad bytes
  const std::uint8_t* map_ = nullptr;  // PROT_READ view of [0, map_len_)
  std::size_t map_len_ = 0;
  std::size_t scanned_ = 0;  // byte offset the forward scan has reached
  // key -> (payload offset, payload length) within the mapping.
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>> index_;
  std::unordered_set<std::uint64_t> written_;  // keys this handle appended
  std::size_t appends_ = 0;
};

// A ReportCache holding `capacity` results in memory (0 =
// ReportCache::kDefaultCapacity) and, when `store.dir` is non-empty,
// backed by a PersistentStore there — so warm results survive the
// process. Whether to ATTACH it (BatchOptions::memo) is the caller's call.
[[nodiscard]] std::unique_ptr<ReportCache> makeMemo(
    std::size_t capacity = 0, const StoreOptions& store = {});

}  // namespace wfd::sim
