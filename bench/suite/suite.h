// wfd_bench internals: the metric catalog, the in-memory span tracer,
// the workload interface, and the input builders that the layer probes
// share with the workloads. See README.md in this directory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace wfd::bench::suite {

// Worker threads any invocation may use (campaign pool, explore frontier).
inline constexpr int kJobs = 2;

// ---- Metric catalog ---------------------------------------------------------
//
// Every metric wfd_bench can report, with its unit. BENCHMARK.json at the
// repository root lists the same names and units with their bounds;
// `run.py --smoke` checks the two agree.

enum class Scope { kEndToEnd, kLayer };

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  Scope scope;
};

[[nodiscard]] const std::vector<MetricSpec>& catalog();

using Metrics = std::map<std::string, double>;

// ---- Spans ------------------------------------------------------------------
//
// A span is (name, start, end, parent), recorded around a call into one
// src/ module from the suite side. Spans stay in memory and are written at
// exit as Chrome trace-event JSON. Past kMaxSpans new spans are counted as
// dropped rather than recorded, which bounds memory on long traced rounds.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200'000;

  int begin(const char* name);
  void end(int id);

  [[nodiscard]] std::size_t recorded() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  // Self time per span name: each span's duration minus the part of it
  // its recorded children cover, summed per name, in milliseconds.
  [[nodiscard]] Metrics selfTimeMs() const;
  [[nodiscard]] bool writeChrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };
  WallTimer origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids (-1 = dropped)
  std::size_t dropped_ = 0;
};

// RAII span; a null tracer makes it a no-op, which is how untraced rounds
// share code with traced ones.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->begin(name) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---- Workloads ----------------------------------------------------------------

struct RoundResult {
  long long ops = 0;     // operations attempted (runs, explore calls, ...)
  long long failed = 0;  // operations whose checker failed
  double work = 0;       // work units done (steps, schedules, ...)
  double seconds = 0;    // wall time of the round
  // Wall time of each slice of the round. Every round cuts the same work
  // into the same slices, so slice i of one round repeats slice i of the
  // next (see wfd_bench.cc for how the rate is taken from them).
  std::vector<double> slice_s;
  std::uint64_t digest = 0;  // deterministic digest; equal across rounds
  std::vector<double> op_us;  // per-operation latencies, where measured
  Metrics detail;  // per-round numbers for the --json document
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Build every seeded input. Timed as setup_s, on a fresh object each
  // time, so it must do all its work here and none lazily in round().
  virtual void setup() = 0;
  // One closed-loop round over the inputs built by setup(). With a tracer,
  // spans are recorded around library calls and `layer` receives this
  // workload's layer counters; the digest must not change.
  virtual RoundResult round(Tracer* tracer, Metrics* layer) = 0;
  // Process count of the runs this workload drives (probe World shape).
  [[nodiscard]] virtual int probeProcs() const = 0;
};

// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     bool quick);

// ---- Shared builders (workloads and probes) -----------------------------------

// n pairwise-distinct proposals drawn from `rng`, shuffled so the minimum
// sits at a seeded pid.
[[nodiscard]] std::vector<Value> distinctProposals(Rng& rng, int n);

// Seeded Fig. 1 / Fig. 2 / Fig. 3 runs, checked like the bench_fig* harnesses.
struct SimInput {
  int fig = 1;
  sim::RunConfig cfg;
  std::vector<Value> proposals;
};
struct SimPlan {
  int fig1 = 0;
  int fig2 = 0;
  int fig3 = 0;
  Time fig3_budget = 60'000;
};
[[nodiscard]] std::vector<SimInput> makeSimInputs(std::uint64_t seed,
                                                  const SimPlan& plan);
[[nodiscard]] const sim::AlgoFn& simAlgo(int fig);
[[nodiscard]] bool simCheck(const SimInput& in, const sim::RunResult& rr);

// The suite-side copy of Scheduler::run's loop, timed around each public
// call (policy pick, liveness, step) on a fixed 1-in-16 sample of steps.
struct DriveStats {
  long long runs = 0;
  long long steps = 0;
  long long sampled = 0;  // steps whose three calls were timed
  double policy_ns = 0;   // sums over sampled steps
  double liveness_ns = 0;
  double step_ns = 0;
  double setup_us = 0;    // sums over runs: Run construction, finish()
  double finish_us = 0;
  std::map<int, long long> op_class;  // executed ops by sim::OpClass
};
// Drive every input through the shadow loop; returns the round's digest
// and counters exactly as the untraced runTask round would.
RoundResult shadowDrive(const std::vector<SimInput>& inputs, Tracer* tracer,
                        DriveStats& stats);
void driveStatsToLayer(const DriveStats& stats, Metrics& layer);

// Campaign cells (E17 shapes plus realized-net Fig. 1 cells).
enum class CellKind { kHeavy, kLight, kNet };
struct CellRecipe {
  CellKind kind = CellKind::kLight;
  std::uint64_t seed = 0;
  int net_config = 0;  // kNet: index into the campaign's net configs
};
struct CampaignInputs {
  // The main batch in submission order, near resubmissions included, and
  // the resubmission batch that follows it on the same ReportCache.
  std::vector<CellRecipe> cells;
  std::vector<CellRecipe> resubmitted;
  std::vector<sim::net::NetConfig> net_configs;  // one realized history each
  std::vector<sim::FailurePattern> net_patterns;  // ... under this pattern
  long long distinct = 0;
};
[[nodiscard]] CampaignInputs makeCampaignInputs(std::uint64_t seed,
                                                bool quick);
// Builds a cell; every detector comes from `cache`.
[[nodiscard]] sim::BatchCell buildCell(const CampaignInputs& in,
                                       const CellRecipe& r,
                                       sim::FdCache& cache);
// Fills `cache` with every detector history the inputs need.
void prefillFdCache(const CampaignInputs& in, sim::FdCache& cache);
// The verdict a cell of this kind must reach (heavy cells run their whole
// watchdog budget by design).
[[nodiscard]] bool cellOk(const CellRecipe& r, const sim::CellResult& res);

// ---- Layer probes -------------------------------------------------------------

// Time the per-module unit costs every traced invocation reports: World
// and ObjectTable ops, FD queries, trace mixing, the step auditor, Run
// checkpoint/restore, ReportCache lookups, single campaign cells, and (for
// workloads that do not drive sim-shaped runs themselves) the shadow drive
// loop over a small Fig. 1/2/3 sample. Returns a checksum of the probed
// results, which the caller records so no timed call can be elided.
std::uint64_t runProbes(std::uint64_t seed, bool quick, int procs,
                        bool drive_probe, Tracer& tracer, Metrics& layer);
// runner.run_p50/p99/p999_us from per-run runTask latencies.
void setRunLatency(const std::vector<double>& run_us, Metrics& layer);

// Summary statistics.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double medianOf(std::vector<double> xs);

}  // namespace wfd::bench::suite
