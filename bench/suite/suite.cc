#include "suite.h"

#include <algorithm>
#include <cstdio>

namespace wfd::bench::suite {

std::unique_ptr<Workload> makeSimWorkload(std::uint64_t seed, bool quick);
std::unique_ptr<Workload> makeExploreWorkload(std::uint64_t seed, bool quick);
std::unique_ptr<Workload> makeServiceWorkload(std::uint64_t seed, bool quick);
std::unique_ptr<Workload> makeCampaignWorkload(std::uint64_t seed, bool quick);

namespace {

std::vector<MetricSpec> buildCatalog() {
  std::vector<MetricSpec> c;
  const auto e2e = [&c](const std::string& name, const char* unit,
                        const char* better) {
    c.push_back({name, unit, better, Scope::kEndToEnd});
  };
  const auto layer = [&c](const std::string& name, const char* unit,
                          const char* better = "lower") {
    c.push_back({name, unit, better, Scope::kLayer});
  };

  e2e("work_per_s", "1/s", "higher");
  e2e("setup_s", "s", "lower");
  e2e("peak_rss_mb", "MiB", "lower");

  // sim/scheduler and sim/coro: the shadow drive loop.
  layer("scheduler.policy_ns", "ns");
  layer("scheduler.liveness_ns", "ns");
  layer("scheduler.step_ns", "ns");
  layer("scheduler.steps", "count");
  layer("coro.resume_ns_est", "ns");
  // sim/world, sim/object_table: probe World; op mix of the drive loop.
  for (const char* op :
       {"read", "write", "update", "scan", "propose", "fd_query", "noop"}) {
    layer(std::string("world.execute_ns.") + op, "ns");
  }
  for (const char* op : {"read", "write", "update", "scan", "propose"}) {
    layer(std::string("object_table.") + op + "_ns", "ns");
  }
  for (const char* op : {"read", "write", "update", "scan", "propose", "noop"}) {
    layer(std::string("world.ops.") + op, "count");
  }
  // fd, sim/net.
  layer("fd.queries", "count");
  for (const char* fd : {"upsilon", "upsilon_f", "omega", "realized_upsilon",
                         "realized_omega"}) {
    layer(std::string("fd.query_ns.") + fd, "ns");
  }
  layer("net.simulate_ms", "ms");
  layer("net.histories", "count");
  // sim/trace, sim/step_audit.
  layer("trace.mix_ns", "ns");
  layer("audit.step_ns.off", "ns");
  layer("audit.step_ns.collect", "ns");
  layer("audit.overhead_ratio", "ratio");
  // sim/runner.
  layer("runner.setup_us", "us");
  layer("runner.finish_us", "us");
  layer("runner.run_p50_us", "us");
  layer("runner.run_p99_us", "us");
  layer("runner.run_p999_us", "us");
  for (const char* what : {"checkpoint", "restore"}) {
    for (const char* len : {"64", "512", "4096"}) {
      layer(std::string("runner.") + what + "_us." + len, "us");
    }
  }
  layer("runner.restore_ns_per_replayed_step", "ns");
  // sim/explore, one set per engine.
  for (const char* mode : {"dpor", "dag"}) {
    const auto ex = [&](const char* m, const char* unit,
                        const char* better = "lower") {
      layer(std::string("explore.") + m + "." + mode, unit, better);
    };
    ex("schedules", "count");
    ex("steps_executed", "count");
    ex("steps_replayed", "count");
    ex("replay_ratio", "ratio");
    ex("restores", "count");
    ex("sleep_set_skips", "count", "higher");
    ex("states_memoized", "count");
    ex("memo_hits", "count", "higher");
    ex("memo_hit_rate", "ratio", "higher");
    ex("frontier_jobs", "count");
    ex("step_utilization", "ratio", "higher");
  }
  // sim/service.
  for (const char* m : {"segments", "retries", "replacements",
                        "injected_crashes", "rejected"}) {
    layer(std::string("service.") + m, "count");
  }
  layer("service.steps_per_decision", "steps");
  layer("service.commit_p50_steps", "steps");
  layer("service.commit_p99_steps", "steps");
  // sim/batch, sim/watchdog.
  layer("batch.steal_ops", "count");
  layer("batch.stolen_cells", "count");
  layer("batch.busy_s", "s");
  layer("batch.utilization", "ratio", "higher");
  layer("batch.step_makespan", "steps");
  layer("batch.step_utilization", "ratio", "higher");
  for (const char* k : {"heavy", "light", "net"}) {
    layer(std::string("batch.cell_us.") + k, "us");
  }
  // sim/report_cache (and the FdCache beside it in sim/batch).
  layer("report_cache.hits", "count", "higher");
  layer("report_cache.misses", "count");
  layer("report_cache.evictions", "count");
  layer("report_cache.hit_rate", "ratio", "higher");
  layer("report_cache.lookup_ns", "ns");
  layer("fd_cache.hits", "count", "higher");
  layer("fd_cache.misses", "count");
  // The suite itself.
  layer("trace.overhead_ratio", "ratio");
  return c;
}

}  // namespace

const std::vector<MetricSpec>& catalog() {
  static const std::vector<MetricSpec> c = buildCatalog();
  return c;
}

// ---- Tracer -------------------------------------------------------------------

int Tracer::begin(const char* name) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    open_.push_back(-1);
    return -1;
  }
  int parent = -1;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it >= 0) {
      parent = *it;
      break;
    }
  }
  spans_.push_back({name, origin_.seconds() * 1e6, -1, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = origin_.seconds() * 1e6;
  if (!open_.empty()) open_.pop_back();
}

Metrics Tracer::selfTimeMs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  Metrics self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (s.end_us - s.start_us - child_us[i]) / 1e3;
  }
  return self;
}

bool Tracer::writeChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "wfd_bench: cannot write %s\n", path.c_str());
    return false;
  }
  // Complete events ("ph":"X") on one track; the parent span id rides in
  // args so the hierarchy survives tools that nest by time alone.
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                 i, s.parent);
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped_);
  return std::fclose(f) == 0;
}

// ---- Workload registry ------------------------------------------------------

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick) {
  if (name == "sim") return makeSimWorkload(seed, quick);
  if (name == "explore") return makeExploreWorkload(seed, quick);
  if (name == "service") return makeServiceWorkload(seed, quick);
  if (name == "campaign") return makeCampaignWorkload(seed, quick);
  return nullptr;
}

// ---- Shared builders ----------------------------------------------------------

std::vector<Value> distinctProposals(Rng& rng, int n) {
  std::vector<Value> v(static_cast<std::size_t>(n));
  Value next = rng.range(1, 1000);
  for (auto& x : v) {
    x = next;
    next += 1 + static_cast<Value>(rng.below(9));
  }
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    std::swap(v[i], v[rng.below(i + 1)]);
  }
  return v;
}

// ---- Statistics -------------------------------------------------------------

// Linear interpolation between the closest ranks.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double medianOf(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

}  // namespace wfd::bench::suite
