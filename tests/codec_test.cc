// Byte codec (sim/codec.h): a CellResult round-trips every field, and
// malformed bytes are rejected instead of decoded into a made-up result.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/codec.h"

namespace wfd {
namespace {

using sim::ByteReader;
using sim::ByteWriter;
using sim::CellResult;

TEST(Wire, CellResultRoundTrip) {
  CellResult r;
  r.index = 12;
  r.verdict = sim::RunVerdict::kBudgetExhausted;
  r.detail = "budget";
  r.error = false;
  r.all_correct_done = true;
  r.steps = 987654321;
  r.distinct_decisions = 2;
  r.decisions[1] = 100;
  r.decisions[3] = -7;
  r.trace_hash = 0xDEADBEEFCAFEF00DULL;
  r.check_ok = false;
  r.check_detail = "checker says no";
  r.metrics["a"] = 1.25;
  r.metrics["b"] = -3.5;

  ByteWriter w;
  encodeCellResult(w, r);
  ByteReader rd(w.bytes().data(), w.bytes().size());
  CellResult got;
  ASSERT_TRUE(decodeCellResult(rd, got));
  EXPECT_TRUE(rd.atEnd());
  EXPECT_TRUE(got == r) << "wire round-trip";
}

TEST(Wire, MalformedBytesAreRejectedNotFabricated) {
  CellResult r;
  r.detail = "x";
  ByteWriter w;
  encodeCellResult(w, r);

  // Truncated buffer: decode fails cleanly at every cut point.
  for (std::size_t cut = 0; cut < w.bytes().size(); ++cut) {
    ByteReader rd(w.bytes().data(), cut);
    CellResult got;
    EXPECT_FALSE(decodeCellResult(rd, got)) << "cut " << cut;
  }

  // Out-of-range verdict byte (offset 8, right after the u64 index).
  std::vector<std::uint8_t> bad = w.bytes();
  bad[8] = 200;
  ByteReader rd(bad.data(), bad.size());
  CellResult got;
  EXPECT_FALSE(decodeCellResult(rd, got));
}

}  // namespace
}  // namespace wfd
