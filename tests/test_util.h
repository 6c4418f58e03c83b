// Shared helpers for the test suite.
#pragma once

#include <functional>
#include <vector>

#include "wfd.h"

namespace wfd::test {

// Distinct proposals 100, 101, ..., so every decision is attributable.
inline std::vector<Value> distinctProposals(int n_plus_1) {
  std::vector<Value> v(static_cast<std::size_t>(n_plus_1));
  for (int i = 0; i < n_plus_1; ++i) v[static_cast<std::size_t>(i)] = 100 + i;
  return v;
}

// Proposals with exactly `k` distinct values (cyclic assignment).
inline std::vector<Value> proposalsWithDistinct(int n_plus_1, int k) {
  std::vector<Value> v(static_cast<std::size_t>(n_plus_1));
  for (int i = 0; i < n_plus_1; ++i) {
    v[static_cast<std::size_t>(i)] = 100 + (i % k);
  }
  return v;
}

// Every distinct interleaving of fixed per-process step counts: the
// distinct permutations of the multiset holding counts[p] copies of each
// pid p, in lexicographic order. The explorer tests' brute-force oracle.
inline void forEachInterleaving(
    std::vector<int> counts,
    const std::function<void(const std::vector<Pid>&)>& fn) {
  int total = 0;
  for (const int c : counts) total += c;
  std::vector<Pid> seq;
  const std::function<void()> rec = [&] {
    if (static_cast<int>(seq.size()) == total) {
      fn(seq);
      return;
    }
    for (Pid p = 0; p < static_cast<Pid>(counts.size()); ++p) {
      if (counts[static_cast<std::size_t>(p)] == 0) continue;
      --counts[static_cast<std::size_t>(p)];
      seq.push_back(p);
      rec();
      seq.pop_back();
      ++counts[static_cast<std::size_t>(p)];
    }
  };
  rec();
}

}  // namespace wfd::test
