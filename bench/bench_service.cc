// E22: replicated agreement service under sustained load — repeated
// decisions, crash-and-replace, chaos mid-stream (sim/service,
// docs/SERVICE.md).
//
// Four certifications per invocation:
//   * campaign:  an (injector x workload) matrix of chaotic service
//     streams sharded through BatchRunner (--jobs). Zero safety
//     violations, all streams complete, and the coverage gate FAILS the
//     binary if any planned (injector, workload) cell fired zero times —
//     coverage is part of the certification.
//   * sustained: one long consensus stream (>= 100k sequential decided
//     instances full, --quick shrinks) measuring decisions/s and the
//     per-instance commit step-latency p50/p99, then a same-seed replay
//     that must reproduce the service hash bit-for-bit.
//   * sweep:     the exhaustive crash-at-every-instance-index sweep
//     (checkpoint prefix sharing); every variant must recover, replace
//     the victim and commit the full stream.
//   * negative:  100 seeded log-divergence streams (--quick: 20); the
//     log-safety checker must catch every one (100/100).
//
// `--json out.json` records the numbers CI archives as
// BENCH_service.json (decisions/s, latency percentiles, campaign
// counters); non-zero exit on any certification failure.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace wfd;
using sim::BatchCell;
using sim::BatchRunner;
using sim::CellResult;
using sim::RunVerdict;
using sim::service::DetectorSource;
using sim::service::Protocol;
using sim::service::runCrashSweep;
using sim::service::runService;
using sim::service::ServiceBug;
using sim::service::ServiceConfig;
using sim::service::ServiceReport;
using sim::service::serviceVerdictName;
using sim::service::ServiceVerdict;
using sim::service::SweepReport;

int g_failures = 0;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("  CERTIFICATION FAILURE: %s\n", what.c_str());
    ++g_failures;
  }
}

struct Workload {
  const char* name;
  Protocol proto;
  DetectorSource det;
  // Injector kinds this mode's chaos plan can legally fire (crash
  // segments are skipped for realized Upsilon lenses; link faults only
  // exist on the realized substrate) — the coverage gate's expectation.
  std::vector<std::string> injectors;
};

std::vector<Workload> workloads() {
  const std::vector<std::string> con = {"crash", "starvation", "fd_glitch",
                                        "stale_snapshot"};
  const std::vector<std::string> net_crash = {
      "crash", "starvation", "fd_glitch", "link_faults", "stale_snapshot"};
  const std::vector<std::string> net_nocrash = {
      "starvation", "fd_glitch", "link_faults", "stale_snapshot"};
  return {
      {"omega/constructed", Protocol::kOmegaConsensus,
       DetectorSource::kConstructed, con},
      {"fig1/constructed", Protocol::kFig1Upsilon,
       DetectorSource::kConstructed, con},
      {"fig2/constructed", Protocol::kFig2UpsilonF,
       DetectorSource::kConstructed, con},
      {"omega/net", Protocol::kOmegaConsensus, DetectorSource::kRealizedNet,
       net_crash},
      {"fig1/net", Protocol::kFig1Upsilon, DetectorSource::kRealizedNet,
       net_nocrash},
      {"fig2/net", Protocol::kFig2UpsilonF, DetectorSource::kRealizedNet,
       net_nocrash},
  };
}

ServiceConfig campaignConfig(const Workload& w, std::uint64_t seed,
                             bool quick) {
  ServiceConfig cfg;
  cfg.protocol = w.proto;
  cfg.detector = w.det;
  cfg.instances = quick ? 96 : 240;
  cfg.seed = seed;
  // Chaos EVERY segment: with >= 6 segments the rotation visits every
  // enabled injector kind at least once per stream.
  cfg.chaos.period = 1;
  cfg.chaos.seed = seed ^ 0xCAFE;
  cfg.chaos.stale_snapshot = true;
  return cfg;
}

void runCampaign(const wfd::bench::BenchArgs& args,
                 wfd::bench::JsonWriter& json) {
  wfd::bench::banner("service campaign: injector x workload matrix");
  const std::vector<Workload> ws = workloads();
  const int seeds = args.quick ? 2 : 4;
  std::vector<BatchCell> cells;
  for (const Workload& w : ws) {
    for (int s = 0; s < seeds; ++s) {
      BatchCell cell;
      cell.service =
          campaignConfig(w, 1000 + static_cast<std::uint64_t>(s), args.quick);
      cells.push_back(std::move(cell));
    }
  }
  const wfd::bench::WallTimer timer;
  const std::vector<CellResult> results =
      BatchRunner(args.batchOptions()).run(cells);
  const double dt = timer.seconds();

  wfd::bench::Table table({"workload", "streams", "committed", "replacements",
                           "retries", "injectors fired"});
  long long committed = 0;
  for (std::size_t wi = 0; wi < ws.size(); ++wi) {
    const Workload& w = ws[wi];
    std::map<std::string, long long> fired;
    long long wc = 0, repl = 0, retries = 0;
    for (int s = 0; s < seeds; ++s) {
      const CellResult& r = results[wi * static_cast<std::size_t>(seeds) +
                                    static_cast<std::size_t>(s)];
      require(!r.error, std::string(w.name) + ": cell error: " + r.detail);
      require(r.verdict == RunVerdict::kOk,
              std::string(w.name) + ": " + r.check_detail);
      wc += static_cast<long long>(r.metrics.count("instances") != 0u
                                       ? r.metrics.at("instances")
                                       : 0);
      repl += static_cast<long long>(r.metrics.count("replacements") != 0u
                                         ? r.metrics.at("replacements")
                                         : 0);
      retries += static_cast<long long>(r.metrics.count("retries") != 0u
                                            ? r.metrics.at("retries")
                                            : 0);
      for (const auto& [k, v] : r.metrics) {
        if (k.rfind("inj_", 0) == 0) {
          fired[k.substr(4)] += static_cast<long long>(v);
        }
      }
    }
    committed += wc;
    // Coverage gate: every planned (injector, workload) cell non-empty.
    std::string firedStr;
    for (const std::string& inj : w.injectors) {
      require(fired[inj] > 0, std::string(w.name) + ": planned injector '" +
                                  inj + "' never fired");
      firedStr += (firedStr.empty() ? "" : " ") + inj + ":" +
                  std::to_string(fired[inj]);
    }
    // ...and nothing outside the plan fired.
    for (const auto& [k, v] : fired) {
      const bool planned =
          std::find(w.injectors.begin(), w.injectors.end(), k) !=
          w.injectors.end();
      require(planned || v == 0,
              std::string(w.name) + ": unplanned injector '" + k + "' fired");
    }
    table.addRow({w.name, wfd::bench::fmt(seeds), wfd::bench::fmt((int)wc),
                  wfd::bench::fmt((int)repl), wfd::bench::fmt((int)retries),
                  firedStr});
    json.row(std::string("campaign/") + w.name,
             {{"streams", static_cast<double>(seeds)},
              {"committed", static_cast<double>(wc)},
              {"replacements", static_cast<double>(repl)},
              {"retries", static_cast<double>(retries)}});
  }
  table.print();
  std::printf("campaign: %zu streams, %lld instances, %.2fs\n", cells.size(),
              committed, dt);
  json.metric("campaign_streams", static_cast<double>(cells.size()));
  json.metric("campaign_committed", static_cast<double>(committed));
  json.metric("campaign_wall_s", dt);
}

void runSustained(const wfd::bench::BenchArgs& args,
                  wfd::bench::JsonWriter& json) {
  wfd::bench::banner("sustained load: one long consensus stream");
  ServiceConfig cfg;
  cfg.instances = args.quick ? 5'000 : 100'000;
  cfg.seed = 20260808;
  cfg.chaos.period = 6;
  cfg.chaos.seed = 17;
  const wfd::bench::WallTimer timer;
  const ServiceReport rep = runService(cfg);
  const double dt = timer.seconds();
  require(rep.verdict == ServiceVerdict::kOk,
          std::string("sustained stream: ") + serviceVerdictName(rep.verdict) +
              ": " + rep.detail);
  require(rep.stats.committed == cfg.instances, "sustained stream truncated");
  const double dps = static_cast<double>(rep.stats.committed) / dt;
  std::printf(
      "%lld instances in %.2fs: %.0f decisions/s, lat p50=%.0f p99=%.0f "
      "steps, %d replacements, %d retries\n",
      rep.stats.committed, dt, dps, rep.stats.lat_p50, rep.stats.lat_p99,
      rep.stats.replacements, rep.stats.retries);

  // Same-seed replay: bit-identical service hash.
  const ServiceReport replay = runService(cfg);
  require(replay.service_hash == rep.service_hash,
          "same-seed replay diverged");
  std::printf("replay: %s (0x%016llx)\n",
              replay.service_hash == rep.service_hash ? "bit-identical"
                                                      : "DIVERGED",
              static_cast<unsigned long long>(rep.service_hash));

  json.metric("sustained_instances", static_cast<double>(rep.stats.committed));
  json.metric("sustained_wall_s", dt);
  json.metric("decisions_per_sec", dps);
  json.metric("lat_p50_steps", rep.stats.lat_p50);
  json.metric("lat_p99_steps", rep.stats.lat_p99);
  json.metric("sustained_replacements",
              static_cast<double>(rep.stats.replacements));
  json.metric("sustained_retries", static_cast<double>(rep.stats.retries));
  json.metric("sustained_steps", static_cast<double>(rep.stats.steps));
  json.metric("replay_identical",
              replay.service_hash == rep.service_hash ? 1 : 0);
}

void runSweep(const wfd::bench::BenchArgs& args,
              wfd::bench::JsonWriter& json) {
  wfd::bench::banner("crash-and-replace sweep: every instance index");
  ServiceConfig cfg;
  cfg.instances = args.quick ? 32 : 96;
  cfg.segment_len = 8;
  cfg.seed = 3;
  const wfd::bench::WallTimer timer;
  const SweepReport rep = runCrashSweep(cfg);
  const double dt = timer.seconds();
  require(static_cast<long long>(rep.variants.size()) == cfg.instances,
          "sweep variant count mismatch");
  int recovered = 0;
  for (const auto& v : rep.variants) {
    if (v.verdict == ServiceVerdict::kOk && v.committed == cfg.instances &&
        v.replacements >= 1) {
      ++recovered;
    } else {
      require(false, "sweep variant at instance " +
                         std::to_string(v.crash_index) + ": " +
                         serviceVerdictName(v.verdict) + " " + v.detail);
    }
  }
  std::printf("%zu variants, %d recovered, %lld prefix restores, %.2fs\n",
              rep.variants.size(), recovered, rep.restores, dt);
  json.metric("sweep_variants", static_cast<double>(rep.variants.size()));
  json.metric("sweep_recovered", static_cast<double>(recovered));
  json.metric("sweep_restores", static_cast<double>(rep.restores));
  json.metric("sweep_wall_s", dt);
}

void runNegative(const wfd::bench::BenchArgs& args,
                 wfd::bench::JsonWriter& json) {
  wfd::bench::banner("negative controls: seeded log divergence");
  const int trials = args.quick ? 20 : 100;
  int caught = 0;
  std::vector<BatchCell> cells;
  for (int i = 0; i < trials; ++i) {
    ServiceConfig cfg;
    cfg.instances = 60;
    cfg.seed = 500 + static_cast<std::uint64_t>(i);
    cfg.bug = ServiceBug::kLogDivergence;
    cfg.bug_seed = static_cast<std::uint64_t>(11 * i + 5);
    BatchCell cell;
    cell.service = cfg;
    cells.push_back(std::move(cell));
  }
  const std::vector<CellResult> results =
      BatchRunner(args.batchOptions()).run(cells);
  for (int i = 0; i < trials; ++i) {
    const CellResult& r = results[static_cast<std::size_t>(i)];
    if (!r.error && r.verdict == RunVerdict::kSafetyViolation) {
      ++caught;
    } else {
      require(false, "seeded bug " + std::to_string(i) +
                         " NOT caught: " + r.check_detail);
    }
  }
  std::printf("caught %d/%d\n", caught, trials);
  json.metric("negative_trials", static_cast<double>(trials));
  json.metric("negative_caught", static_cast<double>(caught));
}

}  // namespace

int main(int argc, char** argv) {
  const wfd::bench::BenchArgs args = wfd::bench::BenchArgs::parse(argc, argv);
  wfd::bench::JsonWriter json("service", args.jobs);
  json.note("mode", args.quick ? "quick" : "full");

  runCampaign(args, json);
  runSustained(args, json);
  runSweep(args, json);
  runNegative(args, json);

  json.metric("certification_failures", g_failures);
  if (!args.json_path.empty()) json.write(args.json_path);
  if (g_failures != 0) {
    std::printf("\n%d certification failure(s)\n", g_failures);
    return 1;
  }
  std::printf("\nall service certifications PASS\n");
  return 0;
}
