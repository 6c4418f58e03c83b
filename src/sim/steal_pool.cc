#include "sim/steal_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

namespace wfd::sim {

std::size_t pickVictim(std::span<const std::size_t> loads, std::size_t self) {
  std::size_t victim = npos;
  std::size_t best = 0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    if (k != self && loads[k] > best) {
      best = loads[k];
      victim = k;
    }
  }
  return victim;
}

StealStats runPool(std::size_t count, int workers, bool steal,
                   const std::function<void(std::size_t, int)>& fn) {
  const std::size_t w =
      std::min(static_cast<std::size_t>(std::max(workers, 1)), count);

  std::mutex err_mu;
  std::exception_ptr first_err;
  std::size_t first_err_job = npos;
  const auto guarded = [&](std::size_t job, int worker) {
    try {
      fn(job, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(err_mu);
      if (job < first_err_job) {
        first_err_job = job;
        first_err = std::current_exception();
      }
    }
  };

  std::atomic<std::size_t> steal_ops{0};
  std::atomic<std::size_t> stolen{0};
  if (w == 1) {
    for (std::size_t i = 0; i < count; ++i) guarded(i, 0);
  } else if (w > 1) {
    struct Queue {
      std::mutex mu;
      std::deque<std::size_t> jobs;
    };
    std::vector<Queue> queues(w);
    for (std::size_t k = 0; k < w; ++k) {
      for (std::size_t i = count * k / w; i < count * (k + 1) / w; ++i) {
        queues[k].jobs.push_back(i);
      }
    }
    // A job lives in exactly one queue at any moment (a steal moves it
    // under both locks) and jobs never spawn jobs, so a worker that finds
    // every other queue empty is done: whatever it missed is in flight on
    // a worker that finishes it.
    const auto work = [&](std::size_t me) {
      Queue& mine = queues[me];
      std::vector<std::size_t> loads(w);
      for (;;) {
        std::optional<std::size_t> job;
        {
          const std::lock_guard<std::mutex> lk(mine.mu);
          if (!mine.jobs.empty()) {
            job = mine.jobs.front();
            mine.jobs.pop_front();
          }
        }
        if (job.has_value()) {
          guarded(*job, static_cast<int>(me));
          continue;
        }
        if (!steal) return;
        for (std::size_t k = 0; k < w; ++k) {
          const std::lock_guard<std::mutex> lk(queues[k].mu);
          loads[k] = queues[k].jobs.size();
        }
        const std::size_t victim = pickVictim(loads, me);
        if (victim == npos) return;
        const std::scoped_lock lk(mine.mu, queues[victim].mu);
        const std::size_t moved = moveBackHalf(queues[victim].jobs, mine.jobs);
        if (moved > 0) {  // 0: the victim drained since the scan; rescan
          steal_ops.fetch_add(1, std::memory_order_relaxed);
          stolen.fetch_add(moved, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::jthread> threads;
    threads.reserve(w);
    for (std::size_t k = 0; k < w; ++k) threads.emplace_back(work, k);
    threads.clear();  // join
  }

  if (first_err) std::rethrow_exception(first_err);
  return StealStats{steal_ops.load(std::memory_order_relaxed),
                    stolen.load(std::memory_order_relaxed)};
}

long long stepMakespan(std::span<const long long> steps) {
  return steps.empty() ? 0 : std::ranges::max(steps);
}

double stepUtilization(std::span<const long long> steps) {
  const long long makespan = stepMakespan(steps);
  if (makespan <= 0) return 0;
  return static_cast<double>(std::accumulate(steps.begin(), steps.end(), 0LL)) /
         (static_cast<double>(makespan) * static_cast<double>(steps.size()));
}

}  // namespace wfd::sim
