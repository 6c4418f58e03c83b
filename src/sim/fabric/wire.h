// Wire protocol for the multi-process campaign fabric (docs/PARALLEL.md).
//
// The coordinator and its worker processes exchange length-prefixed
// binary frames over a socketpair:
//
//   frame    = [u32 payload_len][u8 MsgType][payload]
//   kAssign  = coordinator -> worker: one block [begin, end) of the
//              submission order to execute;
//   kResults = worker -> coordinator: the BlockReport for the block it
//              was last assigned (every CellResult plus the worker-side
//              scheduler/memo counters for that block);
//   kShutdown= coordinator -> worker: drain and exit.
//
// The protocol is strictly request/response per worker — the coordinator
// never writes to a worker that has not answered its previous assignment
// — so neither side can deadlock on a full socket buffer. Cells
// themselves never cross the wire: a BatchCell holds opaque callables, so
// workers rebuild cell i from the shared deterministic generator and only
// the plain-data CellResult travels back. Everything here is
// little-endian host format; coordinator and workers are fork()ed from
// one binary, so no cross-machine portability is promised (the payloads
// of the persistent store, sim/fabric/store.h — ReportCache's CellResults
// and the explorer's certificates — use this codec under the same caveat,
// guarded by a version stamp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch.h"

namespace wfd::sim::fabric {

enum class MsgType : std::uint8_t {
  kAssign = 1,
  kResults = 2,
  kShutdown = 3,
};

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

// Everything a worker reports back per assignment block: the results
// themselves plus the deterministic/observability counters its inner
// BatchRunner recorded while executing the block.
struct BlockReport {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  long long steps = 0;             // simulation steps run in this block
  double busy_s = 0;               // summed worker-thread busy seconds
  std::uint64_t steal_ops = 0;     // thread-level, within the process
  std::uint64_t stolen_cells = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t disk_hits = 0;     // persistent-store hits in this block
  std::uint64_t disk_misses = 0;
  std::vector<CellResult> results;
};

void encodeBlockReport(ByteWriter& w, const BlockReport& rep);
[[nodiscard]] bool decodeBlockReport(ByteReader& rd, BlockReport& out);

// Blocking, EINTR-safe framed I/O over a local socket. False means the
// peer is gone (EOF/EPIPE) or the frame was malformed; the fabric treats
// either as a dead peer and degrades per docs/PARALLEL.md.
[[nodiscard]] bool writeFrame(int fd, MsgType type,
                              const std::vector<std::uint8_t>& payload);
[[nodiscard]] bool readFrame(int fd, MsgType* type,
                             std::vector<std::uint8_t>* payload);

}  // namespace wfd::sim::fabric
