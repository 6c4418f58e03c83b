// Byte codec for the simulator's durable records: ByteWriter/ByteReader
// and the CellResult encoding. The persistent store's payloads
// (sim/store.h) — ReportCache's CellResults and the explorer's
// certificates — are written with it. Everything here is little-endian
// host format: no cross-machine portability is promised, and the store
// guards its segments with a version stamp instead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/batch.h"

namespace wfd::sim {

// Append-only little binary builder. Plain data only — every encoder
// below is a pure function of its argument, so identical results encode
// to identical bytes (which is what lets the persistent store promise
// byte-identical warm hits).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader over a borrowed buffer. Any underrun or sanity
// failure latches ok() to false and every later read returns zero — one
// check after decoding replaces per-field error plumbing.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool atEnd() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  void fail() { ok_ = false; }

 private:
  [[nodiscard]] bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void encodeCellResult(ByteWriter& w, const CellResult& r);
// False on malformed input; `out` is untrusted garbage in that case.
[[nodiscard]] bool decodeCellResult(ByteReader& rd, CellResult& out);

}  // namespace wfd::sim
