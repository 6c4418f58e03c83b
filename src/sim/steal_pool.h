// The one work-stealing job pool, shared by the batch runner
// (sim/batch.h) and the exploration frontier (sim/explore.h). Its victim
// rule and back-half move, pickVictim/moveBackHalf, are public so
// tests/steal_pool_test.cc can pin the policy directly.
//
// Policy: worker k is seeded with the contiguous block
// [count·k/W, count·(k+1)/W) of the job indices; the owner pops the FRONT
// of its queue (its cache-warm prefix); a drained worker takes the BACK
// half, rounded up, of the most-loaded victim's queue (steal-half
// amortizes the scan and lock over many jobs). Scheduling decides only
// WHERE a job runs, never what it computes: a job body that is a pure
// function of its index gives the same per-job results under stealing,
// static sharding and any worker count.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <span>

namespace wfd::sim {

struct StealStats {
  std::size_t steal_ops = 0;  // successful steal-half operations
  std::size_t stolen = 0;     // jobs that changed workers
};

// pickVictim's answer when there is nothing to steal.
inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

// The victim a drained `self` steals from: the largest load, ties to the
// lowest index; npos when every other load is 0. `self` is never picked.
[[nodiscard]] std::size_t pickVictim(std::span<const std::size_t> loads,
                                     std::size_t self);

// Move the back half, rounded up, of `from` onto the back of `to`, order
// kept: the lowest moved item comes out of `to`'s front first. Returns the
// number of items moved (0 when `from` is empty).
template <class T>
std::size_t moveBackHalf(std::deque<T>& from, std::deque<T>& to) {
  const std::size_t take = (from.size() + 1) / 2;
  const auto cut = from.end() - static_cast<std::ptrdiff_t>(take);
  to.insert(to.end(), std::make_move_iterator(cut),
            std::make_move_iterator(from.end()));
  from.erase(cut, from.end());
  return take;
}

// Run fn(job, worker) once for every job in [0, count) on
// W = min(workers, count) workers and block until all ran. steal = false
// is static sharding: each worker runs exactly its seeded block. W == 1
// runs inline on the calling thread. fn must be safe to call concurrently
// for distinct jobs. An exception escaping fn does not stop the other
// jobs; after they all ran, the one from the lowest job index is rethrown.
StealStats runPool(std::size_t count, int workers, bool steal,
                   const std::function<void(std::size_t job, int worker)>& fn);

// Over per-worker simulation step counts: the makespan is the largest
// (0 when empty), the critical path under perfect core availability; the
// utilization is total / (workers * makespan), 1.0 = perfectly even and
// hardware-independent (0 when nothing ran).
[[nodiscard]] long long stepMakespan(std::span<const long long> steps);
[[nodiscard]] double stepUtilization(std::span<const long long> steps);

}  // namespace wfd::sim
