// PersistentStore (sim/store.h): the durable second level below
// ReportCache, certified for the properties docs/PARALLEL.md promises:
//
//   * save/load round-trips opaque payload bytes exactly, the empty
//     payload included; a makeMemo-built ReportCache over the store
//     round-trips every CellResult field across a handle restart;
//   * a warm hit survives a real handle teardown (the restart case: a new
//     PersistentStore over the same directory serves the bytes the old
//     one appended);
//   * robustness: a truncated segment, a corrupted record, a wrong
//     version stamp, and concurrent writers from two PROCESSES all
//     degrade to a cold miss — never a wrong hit, never a crash; a
//     payload that is not a CellResult is a ReportCache disk miss;
//   * makeMemo honors its capacity and attaches the store only when
//     StoreOptions::dir is set.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/codec.h"
#include "sim/store.h"
#include "test_util.h"

namespace wfd {
namespace {

using sim::CellResult;
using sim::ReportCache;
using sim::RunVerdict;
using sim::PersistentStore;
using sim::StoreOptions;

using Bytes = std::vector<std::uint8_t>;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "wfd_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Opaque payload bytes varied by seed; seed 0 (and every multiple of 40)
// is the empty payload.
Bytes samplePayload(std::uint64_t seed) {
  Bytes p((seed * 7) % 40);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(seed * 31 + i * 17);
  }
  return p;
}

// A result exercising every field the codec carries, varied by seed.
CellResult sampleResult(std::uint64_t seed) {
  CellResult r;
  r.index = 7;  // stores must round-trip it; ReportCache rewrites it
  r.verdict = seed % 2 == 0 ? RunVerdict::kOk : RunVerdict::kLivelock;
  r.detail = "detail-" + std::to_string(seed);
  r.all_correct_done = seed % 3 == 0;
  r.steps = static_cast<Time>(1000 + seed * 17);
  r.distinct_decisions = static_cast<int>(seed % 4);
  r.decisions[0] = static_cast<Value>(100 + seed);
  r.decisions[2] = static_cast<Value>(200 + seed);
  r.trace_hash = 0x9E3779B97F4A7C15ULL * (seed + 1);
  r.check_ok = seed % 5 != 0;
  r.check_detail = "check-" + std::to_string(seed);
  r.metrics["steps"] = static_cast<double>(seed) * 1.5;
  r.metrics["ratio"] = 0.25;
  return r;
}

TEST(PersistentStore, RoundTripsRawPayloads) {
  const std::string dir = freshDir("roundtrip");
  PersistentStore store(StoreOptions{dir, "v1"});
  ASSERT_TRUE(store.healthy());
  for (const std::uint64_t seed : {0, 1, 2, 3, 4, 5}) {
    store.save(1000 + seed, samplePayload(seed));
  }
  EXPECT_EQ(store.appends(), 6u);
  EXPECT_TRUE(samplePayload(0).empty());
  for (const std::uint64_t seed : {0, 1, 2, 3, 4, 5}) {
    const auto got = store.load(1000 + seed);
    ASSERT_TRUE(got.has_value()) << "seed " << seed;
    EXPECT_EQ(*got, samplePayload(seed)) << "seed " << seed;
  }
  EXPECT_FALSE(store.load(999).has_value());
}

// Every CellResult field, through the cache that owns the payload format:
// one makeMemo-built ReportCache writes, a fresh one reads after restart.
TEST(PersistentStore, RoundTripsEveryField) {
  const StoreOptions opts{freshDir("cellresult"), "v1"};
  {
    std::unique_ptr<ReportCache> cold = sim::makeMemo(0, opts);
    for (const std::uint64_t seed : {0, 1, 2, 3, 4, 5}) {
      cold->insert(1000 + seed, sampleResult(seed));
    }
  }  // handle torn down: only the bytes on disk survive
  std::unique_ptr<ReportCache> warm = sim::makeMemo(0, opts);
  for (const std::uint64_t seed : {0, 1, 2, 3, 4, 5}) {
    // sampleResult's index is 7: looking up into slot 7 leaves every
    // field as stored.
    const auto got = warm->lookup(1000 + seed, 7);
    ASSERT_TRUE(got.has_value()) << "seed " << seed;
    EXPECT_TRUE(*got == sampleResult(seed)) << "seed " << seed;
  }
  EXPECT_EQ(warm->diskHits(), 6u);
  EXPECT_FALSE(warm->lookup(999, 0).has_value());
}

TEST(PersistentStore, WarmHitSurvivesHandleRestart) {
  const std::string dir = freshDir("restart");
  {
    PersistentStore store(StoreOptions{dir, "v1"});
    ASSERT_TRUE(store.healthy());
    store.save(42, samplePayload(9));
  }  // handle torn down: only the bytes on disk survive
  PersistentStore reopened(StoreOptions{dir, "v1"});
  ASSERT_TRUE(reopened.healthy());
  const auto got = reopened.load(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, samplePayload(9)) << "after restart";
  EXPECT_EQ(reopened.records(), 1u);
  EXPECT_EQ(reopened.appends(), 0u);  // nothing re-written
}

TEST(PersistentStore, SaveDedupesKeys) {
  const std::string dir = freshDir("dedupe");
  PersistentStore store(StoreOptions{dir, "v1"});
  store.save(7, samplePayload(1));
  store.save(7, samplePayload(1));  // same handle: skipped
  EXPECT_EQ(store.appends(), 1u);
  PersistentStore reopened(StoreOptions{dir, "v1"});
  reopened.save(7, samplePayload(1));  // already scanned: skipped too
  EXPECT_EQ(reopened.appends(), 0u);
}

TEST(PersistentStore, VersionMismatchIsAColdMissNotAWrongHit) {
  const std::string dir = freshDir("version");
  {
    PersistentStore store(StoreOptions{dir, "schema-A"});
    store.save(42, samplePayload(3));
  }
  // A different stamp addresses a different segment file entirely: the
  // old results are invisible, the new segment starts cold and healthy.
  PersistentStore other(StoreOptions{dir, "schema-B"});
  ASSERT_TRUE(other.healthy());
  EXPECT_NE(other.path(), PersistentStore::segmentPath(dir, "schema-A"));
  EXPECT_FALSE(other.load(42).has_value());
  other.save(42, samplePayload(4));  // and is independently writable
  EXPECT_EQ(*other.load(42), samplePayload(4)) << "schema-B value";
  // The original segment still serves the original bytes.
  PersistentStore original(StoreOptions{dir, "schema-A"});
  EXPECT_EQ(*original.load(42), samplePayload(3)) << "schema-A value";
}

TEST(PersistentStore, CorruptHeaderDisablesTheHandle) {
  const std::string dir = freshDir("badheader");
  const std::string path = PersistentStore::segmentPath(dir, "v1");
  {
    PersistentStore store(StoreOptions{dir, "v1"});
    store.save(1, samplePayload(1));
  }
  {
    // Stomp the version digest inside the header (byte 16).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof garbage);
  }
  PersistentStore store(StoreOptions{dir, "v1"});
  EXPECT_FALSE(store.healthy());
  EXPECT_FALSE(store.load(1).has_value());    // miss, not garbage
  store.save(2, samplePayload(2));             // no-op, not a crash
  EXPECT_EQ(store.appends(), 0u);
}

TEST(PersistentStore, TruncatedTailDegradesToColdMiss) {
  const std::string dir = freshDir("truncated");
  const std::string path = PersistentStore::segmentPath(dir, "v1");
  {
    PersistentStore store(StoreOptions{dir, "v1"});
    store.save(1, samplePayload(1));
    store.save(2, samplePayload(2));
  }
  // Chop the file mid-way through the last record — the crashed-writer
  // shape. The first record must still hit; the torn one must miss.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 11);
  PersistentStore store(StoreOptions{dir, "v1"});
  ASSERT_TRUE(store.healthy());
  ASSERT_TRUE(store.load(1).has_value());
  EXPECT_EQ(*store.load(1), samplePayload(1)) << "intact record";
  EXPECT_FALSE(store.load(2).has_value());
}

TEST(PersistentStore, CorruptedRecordDegradesToColdMiss) {
  const std::string dir = freshDir("corrupt");
  const std::string path = PersistentStore::segmentPath(dir, "v1");
  {
    PersistentStore store(StoreOptions{dir, "v1"});
    store.save(1, samplePayload(1));
    store.save(2, samplePayload(2));
  }
  {
    // Flip one payload byte inside the FIRST record (just past its
    // 24-byte file header + 16-byte record header).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24 + 16 + 3);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5A);
    f.seekp(24 + 16 + 3);
    f.write(&b, 1);
  }
  PersistentStore store(StoreOptions{dir, "v1"});
  // The checksum catches the flip; everything at and past the damage is
  // untrusted, so BOTH records miss — cold, correct, no crash.
  EXPECT_FALSE(store.load(1).has_value());
  EXPECT_FALSE(store.load(2).has_value());
  store.save(3, samplePayload(3));  // handle still usable for new appends
  EXPECT_FALSE(store.load(3).has_value());  // but reads stay cold: fine
}

TEST(PersistentStore, CrashMidWriteFencesTheTornTail) {
  const std::string dir = freshDir("crashmidwrite");
  const std::string path = PersistentStore::segmentPath(dir, "v1");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: one clean append, then die mid-record. The store's own
    // save() only writes whole records, so the torn write is simulated
    // the way a real crash produces it — a raw O_APPEND write that
    // covers the record header and a few payload bytes of a SECOND
    // record, then _exit (no destructors, no flush, fd reaped by the
    // kernel exactly as in a SIGKILL).
    PersistentStore store(StoreOptions{dir, "v1"});
    store.save(11, samplePayload(11));
    if (!store.healthy()) _exit(1);
    const int raw = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (raw < 0) _exit(2);
    std::uint8_t torn[21];  // 16-byte header + 5 of a claimed 40 bytes
    const std::uint32_t magic = 0xCE11CA5Eu;
    const std::uint64_t key = 12;
    for (int i = 0; i < 4; ++i)
      torn[i] = static_cast<std::uint8_t>(magic >> (8 * i));
    for (int i = 0; i < 8; ++i)
      torn[4 + i] = static_cast<std::uint8_t>(key >> (8 * i));
    const std::uint32_t claimed_len = 40;
    for (int i = 0; i < 4; ++i)
      torn[12 + i] = static_cast<std::uint8_t>(claimed_len >> (8 * i));
    torn[16] = torn[17] = torn[18] = torn[19] = torn[20] = 0x5A;
    if (::write(raw, torn, sizeof torn) != sizeof torn) _exit(3);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child crashed for the wrong reason";
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // The survivor's fresh open fences the tail: the intact record is
  // served, the torn one is a cold miss (its header claims more bytes
  // than the file holds, i.e. a writer that died mid-write), and the
  // handle stays healthy.
  PersistentStore store(StoreOptions{dir, "v1"});
  ASSERT_TRUE(store.healthy());
  const auto got = store.load(11);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, samplePayload(11)) << "record before the crash";
  EXPECT_FALSE(store.load(12).has_value());
  EXPECT_EQ(store.records(), 1u);

  // Appending past the torn tail is durable but fenced: the scan now
  // finds the claimed 40 payload bytes (spanning into the new record),
  // the checksum rejects them, and everything behind the damage stays a
  // cold miss — never a wrong hit, and the pre-crash record still hits.
  // The new record must be long enough to complete the torn one's claimed
  // span, or the scan stops at the incomplete tail before the checksum.
  store.save(13, Bytes(64, 0x33));
  EXPECT_EQ(store.appends(), 1u);
  EXPECT_FALSE(store.load(13).has_value());
  EXPECT_FALSE(store.load(12).has_value());
  ASSERT_TRUE(store.load(11).has_value());
}

TEST(PersistentStore, ConcurrentWritersFromTwoProcesses) {
  const std::string dir = freshDir("twoproc");
  constexpr int kPerSide = 24;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: write the odd keys through its own handle, racing the
    // parent's appends on the same segment.
    PersistentStore store(StoreOptions{dir, "v1"});
    for (int i = 0; i < kPerSide; ++i) {
      store.save(static_cast<std::uint64_t>(2 * i + 1),
                 samplePayload(static_cast<std::uint64_t>(2 * i + 1)));
    }
    _exit(store.healthy() ? 0 : 1);
  }
  PersistentStore store(StoreOptions{dir, "v1"});
  for (int i = 0; i < kPerSide; ++i) {
    store.save(static_cast<std::uint64_t>(2 * i),
               samplePayload(static_cast<std::uint64_t>(2 * i)));
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // A fresh reader sees every record from both writers, each intact —
  // flock + O_APPEND means interleaved RECORDS, never interleaved bytes.
  PersistentStore reader(StoreOptions{dir, "v1"});
  ASSERT_TRUE(reader.healthy());
  for (std::uint64_t k = 0; k < 2 * kPerSide; ++k) {
    const auto got = reader.load(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, samplePayload(k)) << "key " << k;
  }
  EXPECT_EQ(reader.records(), static_cast<std::size_t>(2 * kPerSide));
}

TEST(PersistentStore, LiveHandleSeesAPeersAppends) {
  const std::string dir = freshDir("liveshare");
  PersistentStore a(StoreOptions{dir, "v1"});
  PersistentStore b(StoreOptions{dir, "v1"});  // same segment, two handles
  EXPECT_FALSE(b.load(5).has_value());
  a.save(5, samplePayload(5));
  const auto got = b.load(5);  // b's refresh scan picks up a's append
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, samplePayload(5)) << "cross-handle";
}

TEST(MakeMemo, HonorsCapacityAndCacheDir) {
  std::unique_ptr<ReportCache> memo = sim::makeMemo(2);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->capacity(), 2u);
  EXPECT_EQ(memo->store(), nullptr);  // no store dir: memory only

  const StoreOptions opts{freshDir("makememo"), "stamp"};
  std::unique_ptr<ReportCache> backed = sim::makeMemo(0, opts);
  EXPECT_EQ(backed->capacity(), ReportCache::kDefaultCapacity);
  ASSERT_NE(backed->store(), nullptr);

  // The LRU never re-reads what it holds: a disk hit is counted once,
  // then served from memory.
  CellResult r = sampleResult(1);
  backed->insert(77, r);
  std::unique_ptr<ReportCache> warm = sim::makeMemo(0, opts);
  EXPECT_EQ(warm->diskHits(), 0u);
  ASSERT_TRUE(warm->lookup(77, 3).has_value());
  EXPECT_EQ(warm->diskHits(), 1u);
  ASSERT_TRUE(warm->lookup(77, 4).has_value());
  EXPECT_EQ(warm->diskHits(), 1u);
  EXPECT_EQ(warm->hits(), 2u);

  // And the rewritten index is the caller's, not the stored one.
  const auto got = warm->lookup(77, 9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->index, 9u);
  CellResult want = r;
  want.index = 9;
  EXPECT_TRUE(*got == want) << "memo-backed lookup";
}

TEST(MakeMemo, UndecodablePayloadIsADiskMiss) {
  const StoreOptions opts{freshDir("undecodable"), "v1"};
  {
    sim::ByteWriter w;
    sim::encodeCellResult(w, sampleResult(2));
    const Bytes truncated(w.bytes().begin(), w.bytes().end() - 1);
    Bytes trailing = w.bytes();
    trailing.push_back(0);
    PersistentStore store(opts);
    store.save(1, samplePayload(3));  // not a CellResult at all
    store.save(2, truncated);         // a CellResult short of its last byte
    store.save(3, trailing);          // a CellResult plus one more byte
    store.save(4, w.bytes());         // the real thing
  }
  // The store serves all four payloads intact; the cache owns the format
  // and turns the three it cannot decode exactly into misses.
  std::unique_ptr<ReportCache> memo = sim::makeMemo(0, opts);
  for (const std::uint64_t key : {1, 2, 3}) {
    EXPECT_FALSE(memo->lookup(key, 0).has_value()) << "key " << key;
  }
  EXPECT_EQ(memo->diskMisses(), 3u);
  const auto got = memo->lookup(4, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == sampleResult(2)) << "decodable payload";
  EXPECT_EQ(memo->diskHits(), 1u);
}

}  // namespace
}  // namespace wfd
