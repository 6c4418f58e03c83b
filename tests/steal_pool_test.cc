// The shared work-stealing pool (sim/steal_pool.h): every job runs exactly
// once at any size and mode, static sharding keeps the contiguous blocks,
// a skewed load is stolen, the lowest-index exception wins after every
// other job ran, and the victim / back-half helpers the pool steals with.
#include "sim/steal_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace wfd {
namespace {

using sim::npos;
using sim::pickVictim;
using sim::runPool;
using sim::StealStats;

TEST(StealPool, EveryIndexRunsExactlyOnce) {
  for (const int workers : {1, 2, 4, 8}) {
    const auto w = static_cast<std::size_t>(workers);
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, w - 1, w,
                                    std::size_t{1000}}) {
      for (const bool steal : {true, false}) {
        std::vector<std::atomic<int>> runs(count);
        std::vector<int> ran_on(count, -1);  // each slot written by one job
        runPool(count, workers, steal, [&](std::size_t job, int worker) {
          runs[job].fetch_add(1);
          ran_on[job] = worker;
        });
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(runs[i].load(), 1) << "job " << i << " of " << count
                                       << " workers=" << workers
                                       << " steal=" << steal;
          EXPECT_GE(ran_on[i], 0);
          EXPECT_LT(ran_on[i], static_cast<int>(std::min(w, count)));
        }
      }
    }
  }
}

TEST(StealPool, StaticShardingRunsEachBlockOnItsOwner) {
  const std::size_t count = 1000;
  for (const int workers : {1, 3, 4, 8}) {
    const auto w = static_cast<std::size_t>(workers);
    std::vector<int> owner(count, -1);  // each slot written by one job
    const StealStats st =
        runPool(count, workers, false,
                [&](std::size_t job, int worker) { owner[job] = worker; });
    for (std::size_t k = 0; k < w; ++k) {
      for (std::size_t i = count * k / w; i < count * (k + 1) / w; ++i) {
        EXPECT_EQ(owner[i], static_cast<int>(k)) << "job " << i;
      }
    }
    EXPECT_EQ(st.steal_ops, 0u);
    EXPECT_EQ(st.stolen, 0u);
  }
}

TEST(StealPool, SkewedWorkloadIsStolen) {
  // Worker 0's block [0, 16) holds the only heavy job: job 0 does not
  // finish until another worker has run a job from that block, which it
  // can only have taken by stealing. The wait is bounded so a pool that
  // never steals fails the test instead of hanging it.
  const std::size_t count = 64;
  const int workers = 4;
  std::mutex mu;
  std::condition_variable cv;
  bool stolen_seen = false;
  const StealStats st = runPool(count, workers, true, [&](std::size_t job,
                                                          int worker) {
    std::unique_lock<std::mutex> lk(mu);
    if (job == 0) {
      cv.wait_for(lk, std::chrono::seconds(20), [&] { return stolen_seen; });
    } else if (job < count / workers && worker != 0) {
      stolen_seen = true;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(stolen_seen);
  EXPECT_GT(st.steal_ops, 0u);
  EXPECT_GE(st.stolen, st.steal_ops);
}

TEST(StealPool, LowestIndexExceptionRethrownAfterAllJobsRan) {
  const std::size_t count = 200;
  for (const int workers : {1, 4}) {
    for (const bool steal : {true, false}) {
      std::atomic<std::size_t> ran{0};
      std::string what;
      try {
        runPool(count, workers, steal, [&](std::size_t job, int) {
          if (job == 17 || job == 42 || job == 190) {
            throw std::runtime_error("job " + std::to_string(job));
          }
          ran.fetch_add(1);
        });
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      EXPECT_EQ(what, "job 17") << "workers=" << workers << " steal=" << steal;
      EXPECT_EQ(ran.load(), count - 3);
    }
  }
}

TEST(StealPool, PickVictimTakesTheLargestLoadLowestIndexOnTies) {
  const std::vector<std::size_t> loads = {3, 5, 5, 1};
  EXPECT_EQ(pickVictim(loads, 0), 1u);
  EXPECT_EQ(pickVictim(loads, 1), 2u);  // self is never the victim
  EXPECT_EQ(pickVictim(loads, 3), 1u);
  EXPECT_EQ(pickVictim(std::vector<std::size_t>{0, 0, 0}, 1), npos);
  EXPECT_EQ(pickVictim(std::vector<std::size_t>{0, 9}, 1), npos);
  EXPECT_EQ(pickVictim(std::vector<std::size_t>{}, 0), npos);
}

TEST(StealPool, MoveBackHalfKeepsOrder) {
  std::deque<int> from = {1, 2, 3, 4, 5};
  std::deque<int> to = {9};
  EXPECT_EQ(sim::moveBackHalf(from, to), 3u);  // half of 5, rounded up
  EXPECT_EQ(from, (std::deque<int>{1, 2}));
  EXPECT_EQ(to, (std::deque<int>{9, 3, 4, 5}));

  std::deque<int> thief;
  from = {1, 2, 3, 4};
  EXPECT_EQ(sim::moveBackHalf(from, thief), 2u);
  EXPECT_EQ(thief.front(), 3);  // the lowest stolen item comes out first
  EXPECT_EQ(thief, (std::deque<int>{3, 4}));
  from.clear();
  EXPECT_EQ(sim::moveBackHalf(from, thief), 0u);
  EXPECT_EQ(thief.size(), 2u);
}

}  // namespace
}  // namespace wfd
