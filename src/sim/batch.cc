#include "sim/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "fd/omega.h"
#include "fd/upsilon.h"
#include "sim/service/service.h"
#include "sim/report_cache.h"
#include "sim/steal_pool.h"

namespace wfd::sim {

namespace {

// Host-side worker busy-time measurement, not simulation state.
using Clock = std::chrono::steady_clock;  // model-lint-allow: host timing

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void harvest(CellResult& out, RunVerdict verdict, std::string detail,
             Time steps, const RunResult& result) {
  out.verdict = verdict;
  out.detail = std::move(detail);
  out.steps = steps;
  out.all_correct_done = result.all_correct_done;
  out.decisions = result.decisions;
  out.distinct_decisions = result.distinctDecisions();
  out.trace_hash = result.trace().hash64();
}

}  // namespace

double BatchStats::utilization() const {
  if (wall_s <= 0 || busy_s.empty()) return 0;
  double sum = 0;
  for (const double b : busy_s) sum += b;
  return sum / (wall_s * static_cast<double>(busy_s.size()));
}

long long BatchStats::stepMakespan() const {
  return sim::stepMakespan(steps_run);
}

double BatchStats::stepUtilization() const {
  return sim::stepUtilization(steps_run);
}

int resolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

CellResult runCell(const BatchCell& cell, std::size_t index) {
  CellResult out;
  out.index = index;
  try {
    if (cell.service.has_value()) {
      // A service cell is self-contained: the stream builds its own inner
      // runs (and chaos engines) from the config alone.
      return service::runServiceCell(*cell.service, index);
    }
    RunReport rep;  // the plain path hands the post-hook one as well
    if (cell.chaos.has_value()) {
      rep = runChaosTask(cell.cfg, *cell.chaos,
                         cell.watchdog.value_or(WatchdogConfig{}), cell.algo,
                         cell.proposals);
    } else if (cell.watchdog.has_value()) {
      // A watched run takes the schedule runTask would.
      Run run(cell.cfg, cell.algo, cell.proposals);
      rep = driveWatched(run, *makePolicy(cell.cfg.policy), *cell.watchdog,
                         nullptr);
    } else {
      rep.result = runTask(cell.cfg, cell.algo, cell.proposals);
      rep.steps = rep.result.steps;
    }
    harvest(out, rep.verdict, rep.detail, rep.steps, rep.result);
    if (cell.post) cell.post(rep, out);
  } catch (const std::exception& e) {
    // One failing cell must not take down the batch: surface a structured
    // error in this slot and let the other workers finish.
    out = CellResult{};
    out.index = index;
    out.error = true;
    out.detail = e.what();
  }
  return out;
}

BatchRunner::BatchRunner(BatchOptions opts) : opts_(opts) {
  opts_.jobs = resolveJobs(opts_.jobs);
}

std::vector<CellResult> BatchRunner::run(std::size_t count,
                                         const CellGen& make,
                                         BatchStats* stats) const {
  std::vector<CellResult> results(count);
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(opts_.jobs), count));
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->jobs = opts_.jobs;
    stats->cells = count;
  }
  if (count == 0) return results;

  std::atomic<std::size_t> memo_hits{0};
  std::atomic<std::size_t> memo_misses{0};

  // Each slot of `results` is written by exactly one worker and read only
  // after the pool joins; the pool runs every index exactly once.
  auto exec = [&](std::size_t i) {
    try {
      const BatchCell cell = make(i);
      if (opts_.memo != nullptr) {
        if (const std::optional<std::uint64_t> key = cellKey(cell);
            key.has_value()) {
          if (std::optional<CellResult> hit = opts_.memo->lookup(*key, i);
              hit.has_value()) {
            memo_hits.fetch_add(1, std::memory_order_relaxed);
            results[i] = std::move(*hit);
            return;
          }
          CellResult fresh = runCell(cell, i);
          memo_misses.fetch_add(1, std::memory_order_relaxed);
          if (!fresh.error) opts_.memo->insert(*key, fresh);
          results[i] = std::move(fresh);
          return;
        }
      }
      results[i] = runCell(cell, i);
    } catch (const std::exception& e) {  // generator itself threw
      results[i] = CellResult{};
      results[i].index = i;
      results[i].error = true;
      results[i].detail = e.what();
    }
  };

  const auto wall0 = Clock::now();
  std::vector<std::size_t> executed(static_cast<std::size_t>(workers), 0);
  std::vector<long long> steps_run(static_cast<std::size_t>(workers), 0);
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
  // steal=false is static sharding, the baseline BENCH_batch.json
  // measures stealing against.
  const StealStats st =
      runPool(count, workers, opts_.steal, [&](std::size_t i, int w) {
        const auto uw = static_cast<std::size_t>(w);
        const auto t0 = Clock::now();
        exec(i);
        busy[uw] += secondsSince(t0);
        steps_run[uw] += results[i].steps;
        ++executed[uw];
      });

  if (stats != nullptr) {
    stats->steal_ops = st.steal_ops;
    stats->stolen_cells = st.stolen;
    stats->memo_hits = memo_hits.load(std::memory_order_relaxed);
    stats->memo_misses = memo_misses.load(std::memory_order_relaxed);
    stats->executed = std::move(executed);
    stats->steps_run = std::move(steps_run);
    stats->busy_s = std::move(busy);
    stats->wall_s = secondsSince(wall0);
  }
  return results;
}

std::vector<CellResult> BatchRunner::run(const std::vector<BatchCell>& cells,
                                         BatchStats* stats) const {
  return run(cells.size(), [&cells](std::size_t i) { return cells[i]; },
             stats);
}

std::vector<CellResult> driveWatchedBatch(const std::vector<BatchCell>& cells,
                                          const BatchOptions& opts,
                                          BatchStats* stats) {
  const BatchRunner runner(opts);
  return runner.run(
      cells.size(),
      [&cells](std::size_t i) {
        BatchCell cell = cells[i];
        if (!cell.chaos.has_value() && !cell.watchdog.has_value()) {
          cell.watchdog = WatchdogConfig{};
        }
        return cell;
      },
      stats);
}

// ---- FdCache -------------------------------------------------------------

fd::FdPtr FdCache::upsilon(const FailurePattern& fp, Time stab,
                           std::uint64_t seed) {
  return fd::makeUpsilon(fp, stab, seed);
}

fd::FdPtr FdCache::omega(const FailurePattern& fp, Time stab,
                         std::uint64_t seed) {
  return fd::makeOmega(fp, stab, seed);
}

FdCache::Entry& FdCache::entry(std::unique_lock<std::mutex>& lock,
                               const FailurePattern& fp,
                               const net::NetConfig& cfg) {
  Key key;
  key.first.reserve(static_cast<std::size_t>(fp.nProcs()));
  for (Pid p = 0; p < fp.nProcs(); ++p) key.first.push_back(fp.crashTime(p));
  key.second = cfg.digest();
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  // Simulate outside the lock: it is the expensive part, and a duplicate
  // simulation is harmless (the substrate is seed-deterministic, so both
  // are the same execution; the first insert wins).
  lock.unlock();
  net::NetHistoryPtr built = net::simulateHeartbeats(fp, cfg);
  lock.lock();
  const auto [it, inserted] =
      cache_.try_emplace(std::move(key), Entry{std::move(built), {}});
  ++(inserted ? misses_ : hits_);
  return it->second;
}

fd::FdPtr FdCache::lens(const FailurePattern& fp, const net::NetConfig& cfg,
                        net::RealizedLens kind, int f) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry& e = entry(lock, fp, cfg);
  fd::FdPtr& slot = e.lenses[{kind, f}];
  if (!slot) slot = std::make_shared<net::RealizedFd>(e.history, kind, f);
  return slot;
}

net::NetHistoryPtr FdCache::netHistory(const FailurePattern& fp,
                                       const net::NetConfig& cfg) {
  std::unique_lock<std::mutex> lock(mu_);
  return entry(lock, fp, cfg).history;
}

fd::FdPtr FdCache::netEventuallyPerfect(const FailurePattern& fp,
                                        const net::NetConfig& cfg) {
  return lens(fp, cfg, net::RealizedLens::kEventuallyPerfect, 0);
}

fd::FdPtr FdCache::netOmega(const FailurePattern& fp,
                            const net::NetConfig& cfg) {
  return lens(fp, cfg, net::RealizedLens::kOmega, 0);
}

fd::FdPtr FdCache::netUpsilonF(const FailurePattern& fp, int f,
                               const net::NetConfig& cfg) {
  return lens(fp, cfg, net::RealizedLens::kUpsilon, f);
}

std::size_t FdCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t FdCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t FdCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace wfd::sim
