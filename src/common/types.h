// Basic identifiers shared by every module of the library.
//
// The paper's system is Pi = {p_1, ..., p_{n+1}}: n+1 processes of which up
// to f may crash (f = n in the wait-free sections). We index processes
// 0..n internally; pretty-printers emit the paper's 1-based names.
#pragma once

#include <cstdint>
#include <string_view>

namespace wfd {

// Process identifier, 0-based. Valid range for a system of n+1 processes is
// [0, n].
using Pid = int;

// Logical time: the global atomic-step counter of a run. The paper's time
// range T = {0} u N maps to step indices.
using Time = std::int64_t;

// Proposal / decision values for agreement tasks. kBottom plays the paper's
// "⊥" (absence of a value); it is never a legal proposal.
using Value = std::int64_t;
inline constexpr Value kBottomValue = INT64_MIN;

// Identifier of a shared object inside a World's object table.
using ObjId = std::int64_t;

// Maximum number of processes a ProcSet can hold. 64 covers every
// experiment in the paper (which works with small n) with a flat bitmask.
inline constexpr int kMaxProcs = 64;

// One round of splitmix64-style mixing: cheap and stable across platforms.
// Every trace hash, state digest, detector digest and stored key is a
// fold of this round, so changing it moves every golden pin
// (tests/golden_hash_test.cc, tests/digest_pin_test.cc).
[[nodiscard]] constexpr std::uint64_t mixDigest(std::uint64_t h,
                                                std::uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

// Fold a string: its length, then each byte.
[[nodiscard]] constexpr std::uint64_t digestString(std::uint64_t h,
                                                   std::string_view s) {
  h = mixDigest(h, s.size());
  for (const char c : s) h = mixDigest(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace wfd
