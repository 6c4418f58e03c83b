#include "sim/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "sim/codec.h"

namespace wfd::sim {

namespace {

constexpr std::uint64_t kFileMagic = 0x77666463616368ULL;  // "wfdcach"
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::uint32_t kRecMagic = 0xCE11CA5Eu;
constexpr std::size_t kHeaderBytes = 24;
// [u32 magic][u64 key][u32 payload_len] before the payload, u64 checksum
// after it.
constexpr std::size_t kRecHeaderBytes = 16;
constexpr std::size_t kRecTrailerBytes = 8;
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

// Checksum over key, payload length, and payload bytes — the fields a
// torn write can damage. Reuses the common mix round so the store adds no
// second hashing scheme to audit.
std::uint64_t recordChecksum(std::uint64_t key, const std::uint8_t* payload,
                             std::size_t len) {
  std::uint64_t h = mixDigest(0x5704E, key);
  h = mixDigest(h, static_cast<std::uint64_t>(len));
  for (std::size_t i = 0; i < len; ++i) {
    h = mixDigest(h, static_cast<std::uint64_t>(payload[i]) + 1);
  }
  return h;
}

bool writeAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

std::uint64_t PersistentStore::versionDigest(const std::string& version) {
  return digestString(mixDigest(0xD15C, kFormatVersion), version);
}

std::string PersistentStore::segmentPath(const std::string& dir,
                                         const std::string& version) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(versionDigest(version)));
  return dir + "/store-" + hex + ".wfdc";
}

PersistentStore::PersistentStore(const StoreOptions& opts)
    : path_(segmentPath(opts.dir, opts.version)),
      version_digest_(versionDigest(opts.version)) {
  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);
  if (ec) return;  // unhealthy: run cold
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  // First handle to touch the segment writes the header; the flock makes
  // the size-check-then-write atomic against a racing second process.
  if (::flock(fd_, LOCK_EX) != 0) return;
  struct stat st{};
  bool ok = ::fstat(fd_, &st) == 0;
  if (ok && st.st_size == 0) {
    ByteWriter header;
    header.u64(kFileMagic);
    header.u64(kFormatVersion);
    header.u64(version_digest_);
    ok = writeAll(fd_, header.bytes());
  }
  ::flock(fd_, LOCK_UN);
  if (!ok) return;
  healthy_ = true;
  scanned_ = kHeaderBytes;
  const std::lock_guard<std::mutex> lock(mu_);
  refreshLocked();  // validates the header of a pre-existing segment
}

PersistentStore::~PersistentStore() {
  if (map_ != nullptr) ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
  if (fd_ >= 0) ::close(fd_);
}

void PersistentStore::refreshLocked() {
  if (!healthy_ || tail_corrupt_) return;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    healthy_ = false;
    return;
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  if (file_len < kHeaderBytes) {
    // Shorter than the header we (or a peer) wrote: truncated externally.
    healthy_ = false;
    return;
  }
  if (file_len > map_len_) {
    if (map_ != nullptr) ::munmap(const_cast<std::uint8_t*>(map_), map_len_);
    map_ = nullptr;
    map_len_ = 0;
    void* m = ::mmap(nullptr, file_len, PROT_READ, MAP_SHARED, fd_, 0);
    if (m == MAP_FAILED) {
      healthy_ = false;
      return;
    }
    map_ = static_cast<const std::uint8_t*>(m);
    map_len_ = file_len;
  }
  ByteReader header(map_, kHeaderBytes);
  if (header.u64() != kFileMagic || header.u64() != kFormatVersion ||
      header.u64() != version_digest_) {
    // Wrong-version bytes behind our filename (renamed/overwritten file).
    healthy_ = false;
    return;
  }
  // Forward scan over records appended since the last refresh.
  while (scanned_ < map_len_) {
    const std::size_t avail = map_len_ - scanned_;
    if (avail < kRecHeaderBytes) break;  // header still being written
    ByteReader rec(map_ + scanned_, avail);
    if (rec.u32() != kRecMagic) {
      tail_corrupt_ = true;  // garbage bytes: nothing past here is trusted
      return;
    }
    const std::uint64_t key = rec.u64();
    const std::uint32_t payload_len = rec.u32();
    if (payload_len > kMaxPayloadBytes) {
      tail_corrupt_ = true;
      return;
    }
    const std::size_t rec_len =
        kRecHeaderBytes + payload_len + kRecTrailerBytes;
    if (avail < rec_len) break;  // incomplete tail: retry on next refresh
    const std::uint8_t* payload = map_ + scanned_ + kRecHeaderBytes;
    if (ByteReader(payload + payload_len, kRecTrailerBytes).u64() !=
        recordChecksum(key, payload, payload_len)) {
      tail_corrupt_ = true;
      return;
    }
    index_.emplace(key,
                   std::make_pair(scanned_ + kRecHeaderBytes,
                                  static_cast<std::size_t>(payload_len)));
    scanned_ += rec_len;
  }
}

std::optional<std::vector<std::uint8_t>> PersistentStore::load(
    std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!healthy_) return std::nullopt;
  auto it = index_.find(key);
  if (it == index_.end()) {
    refreshLocked();
    it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
  }
  const std::uint8_t* payload = map_ + it->second.first;
  return std::vector<std::uint8_t>(payload, payload + it->second.second);
}

void PersistentStore::save(std::uint64_t key,
                           const std::vector<std::uint8_t>& payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!healthy_) return;
  if (written_.count(key) != 0 || index_.count(key) != 0) return;
  if (payload.size() > kMaxPayloadBytes) return;
  ByteWriter rec;
  rec.u32(kRecMagic);
  rec.u64(key);
  rec.u32(static_cast<std::uint32_t>(payload.size()));
  rec.raw(payload);
  rec.u64(recordChecksum(key, payload.data(), payload.size()));
  // flock + O_APPEND: concurrent processes append whole records, never
  // interleaved bytes. A failed write poisons the handle — a half-written
  // record is exactly what the checksum scan protects readers from.
  if (::flock(fd_, LOCK_EX) != 0) {
    healthy_ = false;
    return;
  }
  const bool ok = writeAll(fd_, rec.bytes());
  ::flock(fd_, LOCK_UN);
  if (!ok) {
    healthy_ = false;
    return;
  }
  written_.insert(key);
  ++appends_;
}

bool PersistentStore::healthy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return healthy_;
}

std::size_t PersistentStore::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::size_t PersistentStore::appends() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

std::unique_ptr<ReportCache> makeMemo(std::size_t capacity,
                                      const StoreOptions& store) {
  std::unique_ptr<ResultStore> backing;
  if (!store.dir.empty()) backing = std::make_unique<PersistentStore>(store);
  return std::make_unique<ReportCache>(
      capacity == 0 ? ReportCache::kDefaultCapacity : capacity,
      std::move(backing));
}

}  // namespace wfd::sim
