// Pinned key digests: the stored-key half of the golden safety net.
//
// Service hashes fold ServiceConfig::digest, ReportCache keys fold the
// detector's keyDigest and the cell's hook presence bits (cellKey), the
// explorer's certificates are keyed by certConfigKey/certJobKey, and a
// PersistentStore addresses its records by these keys inside a segment
// file whose name and framing are pinned too. A store written by one build
// answers the next build warm only while every such digest and byte is
// bit-identical, so each is pinned here to its recorded value. A failure
// means stored results went cold and service hashes moved: restore the
// digest, or re-pin on purpose and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/store.h"
#include "test_util.h"

namespace wfd {
namespace {

using sim::FailurePattern;
using sim::service::ChaosPlan;
using sim::service::ServiceConfig;

TEST(DigestPins, ServiceChaosPlanDefault) {
  EXPECT_EQ(ChaosPlan{}.digest(), 0x989019F1A419BE89ULL);
}

TEST(DigestPins, ServiceConfigDefaultAndChaotic) {
  EXPECT_EQ(ServiceConfig{}.digest(), 0x5B8F09C02B409084ULL);
  ServiceConfig chaotic;
  chaotic.chaos.period = 6;
  chaotic.chaos.stale_snapshot = true;
  EXPECT_EQ(chaotic.digest(), 0x6482379F0481FF70ULL);
}

TEST(DigestPins, UpsilonKeyDigest) {
  const FailurePattern fp = FailurePattern::withCrashes(4, {{1, 120}});
  EXPECT_EQ(fd::makeUpsilon(fp, 120, 7)->keyDigest(), 0x923FEC05F81AF646ULL);
}

TEST(DigestPins, MemoCellKeyWithAndWithoutPostHook) {
  // The WFD_AUDIT latch audits every unset-audit run, and audited runs
  // have no key by design (report_cache_test covers that path).
  if (sim::resolvedAuditMode(std::nullopt).has_value()) {
    GTEST_SKIP() << "WFD_AUDIT latch active: runs are uncacheable";
  }
  sim::BatchCell cell;
  cell.cfg.n_plus_1 = 4;
  cell.cfg.fp = FailurePattern::withCrashes(4, {{1, 120}});
  cell.cfg.fd = fd::makeUpsilon(*cell.cfg.fp, 150, 7);
  cell.cfg.seed = 7;
  cell.algo = [](sim::Env& e, Value v) {
    return core::upsilonSetAgreement(e, v);
  };
  cell.proposals = {10, 20, 30, 40};
  cell.memo_family = "digest_pin_test.fig1";
  const std::optional<std::uint64_t> plain = sim::cellKey(cell);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, 0xE8635D19582C2150ULL);
  cell.post = [](const sim::RunReport&, sim::CellResult&) {};
  const std::optional<std::uint64_t> hooked = sim::cellKey(cell);
  ASSERT_TRUE(hooked.has_value());
  EXPECT_EQ(*hooked, 0x02C110B052C18465ULL);
}

TEST(DigestPins, StoreSegmentPathAndOneRecordBytes) {
  EXPECT_EQ(sim::PersistentStore::segmentPath("d", "v1"),
            "d/store-b2ea05c889b925ae.wfdc");
  const std::string dir = ::testing::TempDir() + "wfd_digest_pin_store";
  std::filesystem::remove_all(dir);
  std::string path;
  {
    sim::PersistentStore store(sim::StoreOptions{dir, "v1"});
    ASSERT_TRUE(store.healthy());
    store.save(0x0123456789ABCDEFULL, {0x01, 0x02, 0xFF});
    path = store.path();
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
  std::string hex;
  for (const unsigned char b : bytes) {
    char two[3];
    std::snprintf(two, sizeof two, "%02x", b);
    hex += two;
  }
  // Header (magic, format version, version digest), then one record:
  // magic, key, payload length, payload, checksum.
  EXPECT_EQ(hex,
            "6863616364667700"  // kFileMagic, "wfdcach" as a u64
            "0100000000000000"  // kFormatVersion
            "ae25b989c805eab2"  // version digest of "v1"
            "5eca11ce"          // kRecMagic
            "efcdab8967452301"  // key
            "03000000"          // payload length
            "0102ff"            // payload
            "cc73dcf72c57b77e"  // checksum
  );
  std::filesystem::remove_all(dir);
}

// Records every certificate key in save order.
struct RecordingStore : sim::ResultStore {
  std::optional<std::vector<std::uint8_t>> load(std::uint64_t key) override {
    const auto it = records.find(key);
    if (it == records.end()) return std::nullopt;
    return it->second;
  }
  void save(std::uint64_t key,
            const std::vector<std::uint8_t>& payload) override {
    if (records.emplace(key, payload).second) saved.push_back(key);
  }
  std::map<std::uint64_t, std::vector<std::uint8_t>> records;
  std::vector<std::uint64_t> saved;
};

sim::Coro<sim::Unit> convergeOnce(sim::Env& env, Value v) {
  env.propose(v);
  const core::Pick p =
      co_await core::kConverge(env, sim::ObjKey{"x.conv"}, 1, v);
  env.decide(p.value);
  co_return sim::Unit{};
}

TEST(DigestPins, FrontierCertificateKeys) {
  if (sim::resolvedAuditMode(std::nullopt).has_value()) {
    GTEST_SKIP() << "WFD_AUDIT latch active: audited searches save nothing";
  }
  RecordingStore store;
  sim::ExploreConfig cfg;
  cfg.run.n_plus_1 = 2;
  cfg.mode = sim::ExploreMode::kDpor;
  cfg.jobs = 1;  // one worker: jobs save in job-index order
  cfg.frontier_depth = 2;
  cfg.certificates = &store;
  cfg.cert_family = "digest_pin_test.frontier";
  const sim::ExploreResult r = sim::explore(cfg, convergeOnce, {100, 101});
  ASSERT_TRUE(r.verified());
  ASSERT_GT(r.frontier_jobs, 1u);
  ASSERT_EQ(store.saved.size(), r.frontier_jobs + 1);  // jobs, then config
  EXPECT_EQ(store.saved.back(), 0x092BA0E81C6538ECULL);  // whole-config key
  EXPECT_EQ(store.saved.front(), 0x21A48ABCD0E57FC9ULL);  // job 0's key
}

}  // namespace
}  // namespace wfd
