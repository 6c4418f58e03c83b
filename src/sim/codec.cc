#include "sim/codec.h"

#include <cstring>

namespace wfd::sim {

namespace {

// Hard ceilings a malformed (or corrupted) buffer cannot talk us past:
// no string or container in a record legitimately reaches these sizes,
// so hitting one means the bytes are garbage.
constexpr std::uint64_t kMaxStringBytes = 1u << 24;
constexpr std::uint64_t kMaxContainerItems = 1u << 24;

}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool ByteReader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint64_t len = u64();
  if (len > kMaxStringBytes || !take(static_cast<std::size_t>(len))) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void encodeCellResult(ByteWriter& w, const CellResult& r) {
  w.u64(r.index);
  w.u8(static_cast<std::uint8_t>(r.verdict));
  w.str(r.detail);
  w.u8(r.error ? 1 : 0);
  w.u8(r.all_correct_done ? 1 : 0);
  w.i64(r.steps);
  w.i64(r.distinct_decisions);
  w.u64(r.decisions.size());
  for (const auto& [pid, value] : r.decisions) {
    w.i64(pid);
    w.i64(value);
  }
  w.u64(r.trace_hash);
  w.u8(r.check_ok ? 1 : 0);
  w.str(r.check_detail);
  w.u64(r.metrics.size());
  for (const auto& [key, value] : r.metrics) {
    w.str(key);
    w.f64(value);
  }
}

bool decodeCellResult(ByteReader& rd, CellResult& out) {
  out = CellResult{};
  out.index = static_cast<std::size_t>(rd.u64());
  const std::uint8_t verdict = rd.u8();
  if (verdict > static_cast<std::uint8_t>(RunVerdict::kLivelock)) {
    rd.fail();
    return false;
  }
  out.verdict = static_cast<RunVerdict>(verdict);
  out.detail = rd.str();
  out.error = rd.u8() != 0;
  out.all_correct_done = rd.u8() != 0;
  out.steps = rd.i64();
  out.distinct_decisions = static_cast<int>(rd.i64());
  const std::uint64_t n_decisions = rd.u64();
  if (n_decisions > kMaxContainerItems) rd.fail();
  for (std::uint64_t i = 0; rd.ok() && i < n_decisions; ++i) {
    const Pid pid = static_cast<Pid>(rd.i64());
    const Value value = rd.i64();
    out.decisions.emplace(pid, value);
  }
  out.trace_hash = rd.u64();
  out.check_ok = rd.u8() != 0;
  out.check_detail = rd.str();
  const std::uint64_t n_metrics = rd.u64();
  if (n_metrics > kMaxContainerItems) rd.fail();
  for (std::uint64_t i = 0; rd.ok() && i < n_metrics; ++i) {
    std::string key = rd.str();
    const double value = rd.f64();
    out.metrics.emplace(std::move(key), value);
  }
  return rd.ok();
}

}  // namespace wfd::sim
