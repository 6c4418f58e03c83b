#include "sim/fabric/fabric.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>

#include "sim/fabric/wire.h"
#include "sim/report_cache.h"
#include "sim/steal_pool.h"

namespace wfd::sim::fabric {

namespace {

using Clock = std::chrono::steady_clock;  // model-lint-allow: host timing

struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t cells() const { return end - begin; }
};

// Coordinator-side view of one worker process.
struct Worker {
  pid_t pid = -1;
  int fd = -1;
  std::deque<Block> queue;            // blocks not yet assigned anywhere
  std::optional<Block> inflight;      // the block it is executing now
  bool done = false;                  // shut down or dead
};

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Build the memo a worker (or the in-process fallback) should use. The
// parent's BatchOptions::memo pointer is deliberately NOT honored here:
// after fork the copies diverge, so sharing happens through cache_dir.
std::unique_ptr<ReportCache> buildLocalMemo(BatchOptions& inner) {
  std::unique_ptr<ReportCache> memo;
  if (inner.memo != nullptr || !inner.cache_dir.empty()) {
    memo = makeMemo(inner);
  }
  inner.memo = memo.get();
  return memo;
}

CellResult deadWorkerResult(std::size_t index) {
  CellResult r;
  r.index = index;
  r.error = true;
  r.detail = "fabric worker died mid-block";
  return r;
}

// Child-side loop: request/response until kShutdown or a dead parent.
void workerLoop(int fd, std::size_t count, const BatchRunner::CellGen& make,
                BatchOptions inner) {
  const std::unique_ptr<ReportCache> memo = buildLocalMemo(inner);
  const BatchRunner runner(inner);
  std::size_t prev_disk_hits = 0;
  std::size_t prev_disk_misses = 0;
  for (;;) {
    MsgType type{};
    std::vector<std::uint8_t> payload;
    if (!readFrame(fd, &type, &payload) || type != MsgType::kAssign) return;
    ByteReader rd(payload.data(), payload.size());
    const auto begin = static_cast<std::size_t>(rd.u64());
    const auto end = static_cast<std::size_t>(rd.u64());
    if (!rd.ok() || !rd.atEnd() || begin > end || end > count) return;
    BatchStats bs;
    BlockReport rep;
    rep.begin = begin;
    rep.end = end;
    rep.results = runner.run(
        end - begin, [&](std::size_t i) { return make(begin + i); }, &bs);
    for (CellResult& r : rep.results) r.index += begin;
    for (const long long s : bs.steps_run) rep.steps += s;
    for (const double b : bs.busy_s) rep.busy_s += b;
    rep.steal_ops = bs.steal_ops;
    rep.stolen_cells = bs.stolen_cells;
    rep.memo_hits = bs.memo_hits;
    rep.memo_misses = bs.memo_misses;
    if (memo != nullptr) {
      rep.disk_hits = memo->diskHits() - prev_disk_hits;
      rep.disk_misses = memo->diskMisses() - prev_disk_misses;
      prev_disk_hits = memo->diskHits();
      prev_disk_misses = memo->diskMisses();
    }
    ByteWriter w;
    encodeBlockReport(w, rep);
    if (!writeFrame(fd, MsgType::kResults, w.bytes())) return;
  }
}

std::vector<std::uint8_t> encodeAssign(const Block& b) {
  ByteWriter w;
  w.u64(b.begin);
  w.u64(b.end);
  return w.bytes();
}

}  // namespace

int resolveProcs(int procs) { return procs <= 1 ? 1 : procs; }

std::vector<CellResult> runFabric(const FabricOptions& opts, std::size_t count,
                                  const BatchRunner::CellGen& make,
                                  BatchStats* stats) {
  const int procs = resolveProcs(opts.procs);
  if (procs <= 1 || count == 0) {
    BatchOptions inner = opts.batch;
    const std::unique_ptr<ReportCache> memo = buildLocalMemo(inner);
    const BatchRunner runner(inner);
    std::vector<CellResult> results = runner.run(count, make, stats);
    if (stats != nullptr) {
      stats->procs = 1;
      stats->blocks = count == 0 ? 0 : 1;
      if (memo != nullptr) {
        stats->disk_hits = memo->diskHits();
        stats->disk_misses = memo->diskMisses();
      }
    }
    return results;
  }

  const Clock::time_point wall0 = Clock::now();
  const auto nprocs = static_cast<std::size_t>(procs);
  const std::size_t block_size =
      opts.block > 0 ? opts.block
                     : std::max<std::size_t>(1, count / (nprocs * 64));

  // Deal contiguous per-process ranges, each cut into blocks, so the
  // no-steal schedule matches the thread-level static sharding shape.
  std::vector<Worker> workers(nprocs);
  std::size_t total_blocks = 0;
  for (std::size_t w = 0; w < nprocs; ++w) {
    const std::size_t lo = count * w / nprocs;
    const std::size_t hi = count * (w + 1) / nprocs;
    for (std::size_t b = lo; b < hi; b += block_size) {
      workers[w].queue.push_back(Block{b, std::min(b + block_size, hi)});
      ++total_blocks;
    }
  }

  // Fork the pool. Buffered stdio flushed first so children never carry
  // (and later re-flush) a copy of the parent's pending output.
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<int> parent_fds;
  for (std::size_t w = 0; w < nprocs; ++w) {
    int sv[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      workers[w].done = true;  // degraded: its range drains via orphans
      continue;
    }
    parent_fds.push_back(sv[0]);
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (const int fd : parent_fds) ::close(fd);
      workerLoop(sv[1], count, make, opts.batch);
      ::close(sv[1]);
      std::fflush(nullptr);
      ::_exit(0);
    }
    ::close(sv[1]);
    if (pid < 0) {
      ::close(sv[0]);
      parent_fds.pop_back();
      workers[w].done = true;
      continue;
    }
    workers[w].pid = pid;
    workers[w].fd = sv[0];
  }

  std::vector<CellResult> results(count);
  std::deque<Block> orphans;  // queued blocks of workers that died early
  for (Worker& w : workers) {
    if (w.done) {  // never forked: its whole range is orphaned
      orphans.insert(orphans.end(), w.queue.begin(), w.queue.end());
      w.queue.clear();
    }
  }

  BatchStats agg;
  agg.jobs = opts.batch.jobs;
  agg.cells = count;
  agg.procs = procs;
  agg.blocks = total_blocks;
  agg.executed.assign(nprocs, 0);
  agg.steps_run.assign(nprocs, 0);
  agg.busy_s.assign(nprocs, 0);

  const auto markDead = [&](std::size_t w) {
    Worker& wk = workers[w];
    if (wk.inflight.has_value()) {
      for (std::size_t i = wk.inflight->begin; i < wk.inflight->end; ++i) {
        results[i] = deadWorkerResult(i);
      }
      wk.inflight.reset();
    }
    orphans.insert(orphans.end(), wk.queue.begin(), wk.queue.end());
    wk.queue.clear();
    if (wk.fd >= 0) {
      ::close(wk.fd);
      wk.fd = -1;
    }
    if (wk.pid > 0) {
      int st = 0;
      ::waitpid(wk.pid, &st, 0);
      wk.pid = -1;
    }
    wk.done = true;
  };

  // Hand worker w its next block: orphans first, then its own queue, then
  // (when enabled) the back half of the most-loaded peer's queue. No
  // next block -> kShutdown.
  const auto assignNext = [&](std::size_t w) {
    Worker& wk = workers[w];
    std::optional<Block> next;
    if (!orphans.empty()) {
      next = orphans.front();
      orphans.pop_front();
    } else if (!wk.queue.empty()) {
      next = wk.queue.front();
      wk.queue.pop_front();
    } else if (opts.steal) {
      std::vector<std::size_t> loads(nprocs, 0);
      for (std::size_t v = 0; v < nprocs; ++v) {
        for (const Block& b : workers[v].queue) loads[v] += b.cells();
      }
      const std::size_t victim = pickVictim(loads, w);
      if (victim != npos) {
        moveBackHalf(workers[victim].queue, wk.queue);  // wk.queue was empty
        ++agg.proc_steal_ops;
        for (const Block& b : wk.queue) agg.proc_stolen_cells += b.cells();
        next = wk.queue.front();
        wk.queue.pop_front();
      }
    }
    if (!next.has_value()) {
      (void)writeFrame(wk.fd, MsgType::kShutdown, {});
      ::close(wk.fd);
      wk.fd = -1;
      if (wk.pid > 0) {
        int st = 0;
        ::waitpid(wk.pid, &st, 0);
        wk.pid = -1;
      }
      wk.done = true;
      return;
    }
    if (!writeFrame(wk.fd, MsgType::kAssign, encodeAssign(*next))) {
      wk.inflight = next;  // markDead error-marks it
      markDead(w);
      return;
    }
    wk.inflight = next;
  };

  // One kResults frame from worker w; false = treat the worker as dead.
  const auto harvest = [&](std::size_t w) -> bool {
    Worker& wk = workers[w];
    MsgType type{};
    std::vector<std::uint8_t> payload;
    if (!readFrame(wk.fd, &type, &payload) || type != MsgType::kResults) {
      return false;
    }
    ByteReader rd(payload.data(), payload.size());
    BlockReport rep;
    if (!decodeBlockReport(rd, rep) || !rd.atEnd()) return false;
    if (!wk.inflight.has_value() || rep.begin != wk.inflight->begin ||
        rep.end != wk.inflight->end ||
        rep.results.size() != wk.inflight->cells()) {
      return false;
    }
    for (CellResult& r : rep.results) {
      if (r.index < rep.begin || r.index >= rep.end) return false;
    }
    for (CellResult& r : rep.results) {
      const std::size_t i = r.index;
      results[i] = std::move(r);
    }
    agg.executed[w] += wk.inflight->cells();
    agg.steps_run[w] += rep.steps;
    agg.busy_s[w] += rep.busy_s;
    agg.steal_ops += rep.steal_ops;
    agg.stolen_cells += rep.stolen_cells;
    agg.memo_hits += rep.memo_hits;
    agg.memo_misses += rep.memo_misses;
    agg.disk_hits += rep.disk_hits;
    agg.disk_misses += rep.disk_misses;
    wk.inflight.reset();
    return true;
  };

  for (std::size_t w = 0; w < nprocs; ++w) {
    if (!workers[w].done) assignNext(w);
  }

  // Single-threaded event loop: a worker only writes while it holds an
  // assignment, so polling the inflight set covers every possible frame.
  for (;;) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> owner;
    for (std::size_t w = 0; w < nprocs; ++w) {
      if (!workers[w].done && workers[w].inflight.has_value()) {
        pfds.push_back(pollfd{workers[w].fd, POLLIN, 0});
        owner.push_back(w);
      }
    }
    if (pfds.empty()) break;
    const int n = ::poll(pfds.data(), pfds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      for (const std::size_t w : owner) markDead(w);
      break;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const std::size_t w = owner[k];
      if (harvest(w)) {
        assignNext(w);
      } else {
        markDead(w);
      }
    }
  }

  // Every worker is gone. Anything still queued (possible only when
  // workers died faster than their blocks drained) finishes in-process so
  // the campaign always completes.
  if (!orphans.empty()) {
    BatchOptions inner = opts.batch;
    const std::unique_ptr<ReportCache> memo = buildLocalMemo(inner);
    const BatchRunner runner(inner);
    while (!orphans.empty()) {
      const Block b = orphans.front();
      orphans.pop_front();
      BatchStats bs;
      std::vector<CellResult> block_results = runner.run(
          b.cells(), [&](std::size_t i) { return make(b.begin + i); }, &bs);
      for (CellResult& r : block_results) {
        r.index += b.begin;
        results[r.index] = std::move(r);
      }
      agg.executed[0] += b.cells();
      for (const long long s : bs.steps_run) agg.steps_run[0] += s;
      for (const double bb : bs.busy_s) agg.busy_s[0] += bb;
      agg.steal_ops += bs.steal_ops;
      agg.stolen_cells += bs.stolen_cells;
      agg.memo_hits += bs.memo_hits;
      agg.memo_misses += bs.memo_misses;
    }
    if (memo != nullptr) {
      agg.disk_hits += memo->diskHits();
      agg.disk_misses += memo->diskMisses();
    }
  }

  agg.wall_s = secondsSince(wall0);
  if (stats != nullptr) *stats = std::move(agg);
  return results;
}

std::vector<CellResult> runFabric(const FabricOptions& opts,
                                  const std::vector<BatchCell>& cells,
                                  BatchStats* stats) {
  return runFabric(
      opts, cells.size(), [&](std::size_t i) { return cells[i]; }, stats);
}

}  // namespace wfd::sim::fabric
