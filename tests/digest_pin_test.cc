// Pinned key digests: the stored-key half of the golden safety net.
//
// Service hashes fold ServiceConfig::digest, ReportCache keys fold the
// detector's keyDigest and the cell's hook presence bits (cellKey), and a
// PersistentStore addresses its records by these keys. A store written by
// one build answers the next build warm only while every such digest is
// bit-identical, so each is pinned here to its recorded value. A failure
// means stored results went cold and service hashes moved: restore the
// digest, or re-pin on purpose and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

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

}  // namespace
}  // namespace wfd
