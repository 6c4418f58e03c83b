// wfd_bench: one command, four workloads, end-to-end and per-layer metrics.
//
//   wfd_bench --workload {sim|explore|service|campaign} --seed S
//             (--seconds T | --quick) [--json PATH] [--trace PATH]
//   wfd_bench --list
//
// One process per invocation, at most kJobs = 2 worker threads. The seed
// generates every input; the library only sees the generated configs.
//
// Untraced: identical closed-loop rounds run until T seconds have passed
// (at least two; --quick runs two small rounds), and the workload is set
// up 15 times on fresh objects, spread over that time; setup_s is the
// fastest set-up. Each round is cut into the same slices (runs, streams,
// explore calls or parts of one, sub-batches), and work_per_s is one
// round's work over the sum of each slice's fastest time. On a shared host
// other tenants only ever slow work down, in spells from a fraction of a
// second to many seconds, so the fastest time of a repeated piece of work
// repeats far better across processes than a median; taking it per slice
// needs no whole round to escape every spell. Latency percentiles come
// from the fastest whole round's own samples. Every round must reproduce
// round 1's deterministic digest; a round that does not counts all its
// operations as failed.
//
// Traced (--trace PATH): one round with spans around the calls into each
// src/ module between two untraced reference rounds, then the layer
// probes. The per-layer metrics go into the --json document, the spans
// into PATH as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The last line on stdout is one JSON object: correct, attempted, failed,
// and the end-to-end (untraced) or per-layer (traced) metrics with units.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "suite.h"

namespace {

using namespace wfd::bench;
using namespace wfd::bench::suite;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  std::string trace_path;
  bool list = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: wfd_bench --workload {sim|explore|service|campaign} "
               "--seed S (--seconds T | --quick) [--json PATH] "
               "[--trace PATH]\n       wfd_bench --list\n");
}

// Strict parse: an unknown flag or a malformed number is an error, so a
// typo never silently measures the wrong thing.
bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--list") {
      a.list = true;
    } else if (flag == "--quick") {
      // BenchArgs::parse reads it.
    } else if ((flag == "--json" || flag == "--trace" ||
                flag == "--workload") &&
               has_value) {
      const std::string v = argv[++i];
      if (flag == "--trace") a.trace_path = v;
      if (flag == "--workload") a.workload = v;
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (flag == "--seconds" && has_value) {
      char* end = nullptr;
      a.seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(a.seconds >= 0)) return false;
    } else {
      return false;
    }
  }
  return true;
}

// Peak resident set of this program: VmHWM. getrusage's ru_maxrss would
// also count the launching process, because Linux carries it across exec.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// The result line: every metric of one scope, with its unit, all digits.
void printResultLine(bool correct, long long attempted, long long failed,
                     Scope scope, const Metrics& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : catalog()) {
    if (m.scope != scope) continue;
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::puts(out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    usage();
    return 2;
  }
  if (a.list) {
    for (const MetricSpec& m : catalog()) {
      std::printf("%-40s %-6s %-7s %s\n", m.name.c_str(), m.unit.c_str(),
                  m.better.c_str(),
                  m.scope == Scope::kEndToEnd ? "end_to_end" : "per_layer");
    }
    return 0;
  }
  const BenchArgs common = BenchArgs::parse(argc, argv);
  const bool traced = !a.trace_path.empty();
  // An untraced run measures for --seconds; only --quick runs a fixed
  // two rounds. The traced run's length is fixed (see above).
  const bool timed = !common.quick && !traced;
  if (makeWorkload(a.workload, a.seed, common.quick) == nullptr ||
      (timed && a.seconds <= 0)) {
    usage();
    return 2;
  }

  // Each set-up builds a fresh object that replaces the previous one, so
  // every later round also checks that set-up is a function of the seed.
  const std::size_t setups = common.quick ? 1 : 15;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const auto setUp = [&] {
    w.reset();
    w = makeWorkload(a.workload, a.seed, common.quick);
    const WallTimer t;
    w->setup();
    setup_s.push_back(t.seconds());
  };
  setUp();

  std::vector<RoundResult> rounds;
  std::size_t fastest = 0;  // the fastest untraced round
  long long ops = 0;
  long long failed = 0;
  const auto rate = [](const RoundResult& r) { return r.work / r.seconds; };
  const auto take = [&](RoundResult r) {
    if (!rounds.empty() && r.digest != rounds.front().digest) {
      std::fprintf(stderr, "wfd_bench: round %zu digest differs from round 1\n",
                   rounds.size() + 1);
      r.failed = r.ops;
    }
    ops += r.ops;
    failed += r.failed;
    rounds.push_back(std::move(r));
    // Only the fastest round keeps its latency samples, so memory does not
    // grow with the number of rounds and peak_rss_mb does not depend on it.
    const std::size_t last = rounds.size() - 1;
    if (traced || last == 0) return;
    if (rate(rounds[last]) > rate(rounds[fastest])) {
      rounds[fastest].op_us = std::vector<double>();
      fastest = last;
    } else {
      rounds[last].op_us = std::vector<double>();
    }
  };

  JsonWriter json("wfd_bench", kJobs);
  json.note("workload", a.workload);
  json.note("seed", std::to_string(a.seed));
  json.note("mode", common.quick ? "quick" : "full");
  json.note("trace", traced ? a.trace_path : "off");

  Metrics values;
  Scope scope = Scope::kEndToEnd;
  if (!traced) {
    // The set-ups are spread evenly over the measured time rather than
    // timed in one burst, so one slow spell of the host cannot set them all.
    const WallTimer measuring;
    for (;;) {
      take(w->round(nullptr, nullptr));
      const double done = timed ? measuring.seconds() / a.seconds : 1.0;
      if (rounds.size() >= 2 && done >= 1.0) break;
      if (setup_s.size() < setups &&
          done * static_cast<double>(setups) >=
              static_cast<double>(setup_s.size())) {
        setUp();
      }
    }
    while (setup_s.size() < setups) setUp();
    // Each slice's fastest time over all rounds, summed. A slowdown from
    // another tenant lengthens whichever slices it overlaps, so this needs
    // each slice, not each whole round, to have run once undisturbed.
    std::vector<double> fastest_slice = rounds.front().slice_s;
    for (const RoundResult& r : rounds) {
      if (r.slice_s.size() != fastest_slice.size()) {
        std::fprintf(stderr, "wfd_bench: rounds cut into different slices\n");
        return 1;
      }
      for (std::size_t i = 0; i < fastest_slice.size(); ++i) {
        fastest_slice[i] = std::min(fastest_slice[i], r.slice_s[i]);
      }
    }
    double slices_s = 0;
    for (const double s : fastest_slice) slices_s += s;
    values["work_per_s"] = rounds.front().work / slices_s;
    std::vector<double> rates;
    for (const RoundResult& r : rounds) rates.push_back(rate(r));
    json.metric("work_per_s_fastest_round", rate(rounds[fastest]));
    json.metric("work_per_s_median_round", medianOf(rates));
    json.metric("slices", static_cast<double>(fastest_slice.size()));
    values["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
    json.metric("setup_s_median", medianOf(setup_s));
    values["peak_rss_mb"] = peakRssMb();
  } else {
    scope = Scope::kLayer;
    // Layers a workload bypasses report zero counts.
    for (const MetricSpec& m : catalog()) {
      if (m.scope == Scope::kLayer) values[m.name] = 0;
    }
    // The traced round sits between two untraced ones; its overhead is
    // taken against the faster of them.
    Tracer tracer;
    take(w->round(nullptr, nullptr));
    take(w->round(&tracer, &values));
    take(w->round(nullptr, nullptr));
    values["trace.overhead_ratio"] =
        rounds[1].seconds / std::min(rounds[0].seconds, rounds[2].seconds);
    const bool sim = a.workload == "sim";
    if (sim) setRunLatency(rounds.front().op_us, values);
    const std::uint64_t checksum =
        runProbes(a.seed, common.quick, w->probeProcs(), !sim, tracer, values);
    for (const auto& [name, ms] : tracer.selfTimeMs()) {
      json.metric("self_ms." + name, ms);
    }
    json.metric("spans_recorded", static_cast<double>(tracer.recorded()));
    json.metric("spans_dropped", static_cast<double>(tracer.dropped()));
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(checksum));
    json.note("probe_checksum", hex);
    if (!tracer.writeChrome(a.trace_path)) return 1;
  }

  // The --json document: every reported metric, the fastest untraced
  // round's own detail, and one row per round.
  for (const auto& [name, v] : values) json.metric(name, v);
  json.metric("ops", static_cast<double>(ops));
  json.metric("ops_failed", static_cast<double>(failed));
  json.metric("rounds", static_cast<double>(rounds.size()));
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    json.row("round_" + std::to_string(i + 1),
             {{"seconds", r.seconds},
              {"work", r.work},
              {"work_per_s", rate(r)},
              {"ops", static_cast<double>(r.ops)},
              {"failed", static_cast<double>(r.failed)}});
  }
  const RoundResult& best = rounds[fastest];
  for (const auto& [k, v] : best.detail) json.metric(k, v);
  if (!best.op_us.empty()) {
    json.metric("run_p50_us", percentile(best.op_us, 0.50));
    json.metric("run_p99_us", percentile(best.op_us, 0.99));
  }
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    json.metric("setup_s." + std::to_string(i + 1), setup_s[i]);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(rounds.front().digest));
  json.note("digest", digest);

  std::printf("wfd_bench %s seed=%llu: %zu rounds, %lld ops, %lld failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              rounds.size(), ops, failed);
  for (const MetricSpec& m : catalog()) {
    if (m.scope != scope) continue;
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), values[m.name],
                m.unit.c_str());
  }
  if (!common.json_path.empty() && !json.write(common.json_path)) return 1;
  printResultLine(failed == 0, ops, failed, scope, values);
  return 0;
}
