// Shared helpers for the experiment harnesses: aligned table output,
// small statistics, common command-line flags (--quick / --jobs / --json)
// and a machine-readable JSON results writer. Each bench binary prints
// the rows recorded in EXPERIMENTS.md; where wall-clock timing is the
// point (substrate costs) google-benchmark is used instead.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "wfd.h"

namespace wfd::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void addRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c) {
        w[c] = std::max(w[c], r[c].size());
      }
    }
    auto line = [&] {
      std::string s = "+";
      for (std::size_t c = 0; c < w.size(); ++c) {
        s += std::string(w[c] + 2, '-') + "+";
      }
      std::puts(s.c_str());
    };
    auto row = [&](const std::vector<std::string>& r) {
      std::string s = "|";
      for (std::size_t c = 0; c < w.size(); ++c) {
        const std::string& cell = c < r.size() ? r[c] : "";
        s += " " + cell + std::string(w[c] - cell.size(), ' ') + " |";
      }
      std::puts(s.c_str());
    };
    line();
    row(headers_);
    line();
    for (const auto& r : rows_) row(r);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline Time median(std::vector<Time> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

inline std::string fmt(Time t) { return std::to_string(t); }
inline std::string fmt(int v) { return std::to_string(v); }
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}
inline std::string passFail(bool ok) { return ok ? "PASS" : "FAIL"; }

inline void banner(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Configure-time build provenance, injected by bench/CMakeLists.txt so
// every BENCH_*.json records which binary produced it. CI reconfigures
// per checkout, so the SHA is exact there; for local incremental builds
// the WFD_GIT_SHA environment variable overrides the baked-in value.
#ifndef WFD_GIT_SHA
#define WFD_GIT_SHA "unknown"
#endif
#ifndef WFD_CXX_FLAGS
#define WFD_CXX_FLAGS "unknown"
#endif

// ---- Common harness flags ------------------------------------------------
//
//   --quick        shrink campaigns to the CI smoke size
//   --jobs N       batch-runner worker threads (default: all hardware)
//   --steal /      work-stealing scheduler on (default) or static
//   --no-steal     contiguous-block sharding (the speedup baseline)
//   --memo /       whole-run ReportCache on or off. Default OFF: the
//   --no-memo      chaos replay-determinism certification re-runs
//                  identical seeds on purpose, and a memo would answer
//                  the second run from the first. A harness that keeps
//                  no ReportCache rejects --memo as a usage error
//                  (exit 2).
//   --cache-dir D  persistent store directory (sim/store.h) for the
//                  harnesses that keep one (bench_explore's certificates)
//   --keep-cache   do NOT wipe the cache dir first: the run must warm
//                  from a PREVIOUS process's store
//   --json PATH    write machine-readable results (JsonWriter) to PATH
struct BenchArgs {
  std::string harness;  // argv[0]'s file name, for usage errors
  bool quick = false;
  int jobs = 0;  // 0 = hardware_concurrency (sim::resolveJobs)
  bool steal = true;
  bool memo = false;
  std::string cache_dir;
  bool keep_cache = false;
  std::string json_path;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    if (argc > 0) {
      a.harness = argv[0];
      a.harness.erase(0, a.harness.find_last_of('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        a.quick = true;
      } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
        a.jobs = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--steal") == 0) {
        a.steal = true;
      } else if (std::strcmp(argv[i], "--no-steal") == 0) {
        a.steal = false;
      } else if (std::strcmp(argv[i], "--memo") == 0) {
        a.memo = true;
      } else if (std::strcmp(argv[i], "--no-memo") == 0) {
        a.memo = false;
      } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
        a.cache_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--keep-cache") == 0) {
        a.keep_cache = true;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        a.json_path = argv[++i];
      }
    }
    return a;
  }

  // BatchOptions for these flags; `cache` is attached only under --memo
  // (pass the harness's ReportCache so hit-rate stats survive batches).
  // --memo without a cache would be silently ignored, so it exits 2.
  [[nodiscard]] sim::BatchOptions batchOptions(
      sim::ReportCache* cache = nullptr) const {
    if (memo && cache == nullptr) {
      std::fprintf(stderr,
                   "%s: --memo is not supported: this harness keeps no "
                   "ReportCache\n",
                   harness.c_str());
      std::exit(2);
    }
    return sim::BatchOptions{jobs, steal, memo ? cache : nullptr};
  }
};

// Wall-clock stopwatch for throughput reporting. The simulation itself
// never reads ambient time (model_lint enforces that); measuring how fast
// the harness chews through cells is exactly the sanctioned exception.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}  // model-lint-allow: wall-clock throughput measurement

  [[nodiscard]] double seconds() const {
    const auto now = std::chrono::steady_clock::now();  // model-lint-allow: wall-clock throughput measurement
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Machine-readable bench results: one JSON document per harness run with
// top-level metadata, global metrics, and named per-row metric objects.
// Written by `--json out.json`; CI archives BENCH_chaos.json and
// BENCH_core.json per push so the perf trajectory (steps/s, wall time,
// jobs) is recorded and attributable across PRs (docs/PERF.md).
class JsonWriter {
 public:
  JsonWriter(std::string bench_name, int jobs)
      : bench_(std::move(bench_name)), jobs_(jobs) {
    const char* sha = std::getenv("WFD_GIT_SHA");
    note("git_sha", sha != nullptr && *sha != '\0' ? sha : WFD_GIT_SHA);
    note("compiler", __VERSION__);
    note("cxx_flags", WFD_CXX_FLAGS);
    metric("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));
  }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  void note(const std::string& key, std::string value) {
    notes_.emplace_back(key, std::move(value));
  }
  void row(const std::string& name,
           std::vector<std::pair<std::string, double>> fields) {
    rows_.emplace_back(name, std::move(fields));
  }

  // Returns false (and says so on stderr) if PATH is unwritable.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"jobs\": %d",
                 escape(bench_).c_str(), jobs_);
    for (const auto& [k, v] : notes_) {
      std::fprintf(f, ",\n  \"%s\": \"%s\"", escape(k).c_str(),
                   escape(v).c_str());
    }
    for (const auto& [k, v] : metrics_) {
      std::fprintf(f, ",\n  \"%s\": %s", escape(k).c_str(), num(v).c_str());
    }
    std::fprintf(f, ",\n  \"rows\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& [name, fields] = rows_[i];
      std::fprintf(f, "%s\n    { \"name\": \"%s\"", i == 0 ? "" : ",",
                   escape(name).c_str());
      for (const auto& [k, v] : fields) {
        std::fprintf(f, ", \"%s\": %s", escape(k).c_str(), num(v).c_str());
      }
      std::fprintf(f, " }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }
  // Integral values print without a fraction so counters stay counters.
  static std::string num(double v) {
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    return buf;
  }

  std::string bench_;
  int jobs_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>> rows_;
};

// Surface one batch execution's scheduler/memo counters in a bench's
// JSON output, prefixed so a harness can report several batches
// (docs/PERF.md reads these fields across every BENCH_*.json). Metrics
// cover the aggregate counters; per-worker load lands as one row per
// worker thread.
inline void emitBatchStats(JsonWriter& json, const std::string& prefix,
                           const sim::BatchStats& stats) {
  const auto n = [](auto v) { return static_cast<double>(v); };
  json.metric(prefix + "_cells", n(stats.cells));
  json.metric(prefix + "_steal_ops", n(stats.steal_ops));
  json.metric(prefix + "_stolen_cells", n(stats.stolen_cells));
  json.metric(prefix + "_memo_hits", n(stats.memo_hits));
  json.metric(prefix + "_memo_misses", n(stats.memo_misses));
  json.metric(prefix + "_wall_s", stats.wall_s);
  json.metric(prefix + "_utilization", stats.utilization());
  json.metric(prefix + "_step_makespan", n(stats.stepMakespan()));
  json.metric(prefix + "_step_utilization", stats.stepUtilization());
  for (std::size_t w = 0; w < stats.executed.size(); ++w) {
    json.row(prefix + "_worker_" + std::to_string(w),
             {{"executed", n(stats.executed[w])},
              {"steps", w < stats.steps_run.size() ? n(stats.steps_run[w]) : 0},
              {"busy_s", w < stats.busy_s.size() ? stats.busy_s[w] : 0}});
  }
}

}  // namespace wfd::bench
