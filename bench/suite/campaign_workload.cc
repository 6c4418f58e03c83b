// campaign: one heavy-tailed batch through BatchRunner (jobs = 2, stealing
// on) against a fresh ReportCache of the default capacity each round,
// followed by a resubmission batch on the same cache. The main batch is
// submitted as kSlices consecutive batches, so each is a slice that
// repeats across rounds (see wfd_bench.cc).
//
// Submission order: heavy watched Fig. 3 cells first (the adversarial case
// for the initial contiguous blocks), then light chaos Fig. 1 cells (the
// E17 shape), then Fig. 1 cells on realized-net Upsilon lenses served by
// one FdCache. A quarter of all cells are resubmissions. Half recur within
// a few dozen cells of their first submission, which the LRU answers. The
// other half, every heavy cell and the earliest light cells, are submitted
// again after the batch, tens of thousands of distinct cells later, when
// the LRU has evicted them: they are what makes an eviction or
// cache-pruning change visible in cells/s. They wait for the batch to end
// because inside one batch the stealing pool may run a late cell before
// an early one, and then the cache would answer the early one.
#include "suite.h"

namespace wfd::bench::suite {
namespace {

using sim::BatchCell;
using sim::CellResult;
using sim::Env;
using sim::FailurePattern;

constexpr int kProcs = 4;
constexpr Time kHeavyBudget = 60'000;
constexpr std::size_t kSlices = 8;

struct Shape {
  int heavy;
  int light;
  int net;
  int net_configs;
};

std::vector<Value> seededProposals(std::uint64_t seed) {
  Rng rng(seed);
  return distinctProposals(rng, kProcs);
}

FailurePattern lightPattern() {
  return FailurePattern::withCrashes(kProcs, {{kProcs - 1, 60}});
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), quick_(quick) {}

  void setup() override {
    in_ = makeCampaignInputs(seed_, quick_);
    cache_ = std::make_unique<sim::FdCache>();
    prefillFdCache(in_, *cache_);
  }

  RoundResult round(Tracer* tracer, Metrics* layer) override {
    RoundResult r;
    const WallTimer wall;
    sim::ReportCache memo;  // fresh each round: kDefaultCapacity entries
    sim::BatchOptions opts;
    opts.jobs = kJobs;
    opts.steal = true;
    opts.memo = &memo;
    const sim::BatchRunner runner(opts);
    const std::size_t fd_hits0 = cache_->hits();
    const std::size_t fd_misses0 = cache_->misses();
    // The main batch's counters, summed over its slices.
    double busy_s = 0;
    double wall_s = 0;
    double steps = 0;
    double makespan = 0;
    std::size_t steal_ops = 0;
    std::size_t stolen_cells = 0;
    // Runs recipes [begin, end) as one batch, a slice of the round.
    const auto batch = [&](const char* span,
                           const std::vector<CellRecipe>& recipes,
                           std::size_t begin, std::size_t end) {
      const SpanScope s(tracer, span);
      sim::BatchStats stats;
      const WallTimer t;
      const std::vector<CellResult> res = runner.run(
          end - begin,
          [this, &recipes, begin](std::size_t i) {
            return buildCell(in_, recipes[begin + i], *cache_);
          },
          &stats);
      r.slice_s.push_back(t.seconds());
      for (std::size_t i = 0; i < res.size(); ++i) {
        const CellResult& c = res[i];
        ++r.ops;
        if (!cellOk(recipes[begin + i], c)) ++r.failed;
        r.digest = fd::mixDigest(r.digest, c.trace_hash);
        r.digest = fd::mixDigest(r.digest, static_cast<std::uint64_t>(c.steps));
      }
      if (&recipes != &in_.cells) return;
      for (const double b : stats.busy_s) busy_s += b;
      for (const long long n : stats.steps_run) steps += static_cast<double>(n);
      wall_s += stats.wall_s;
      makespan += static_cast<double>(stats.stepMakespan());
      steal_ops += stats.steal_ops;
      stolen_cells += stats.stolen_cells;
    };
    // The main batch in kSlices consecutive batches on the same caches,
    // then the resubmissions.
    const std::size_t n = in_.cells.size();
    for (std::size_t k = 0; k < kSlices; ++k) {
      batch("batch.run", in_.cells, n * k / kSlices, n * (k + 1) / kSlices);
    }
    batch("batch.run.resubmitted", in_.resubmitted, 0, in_.resubmitted.size());
    r.seconds = wall.seconds();
    r.work = static_cast<double>(r.ops);
    if (layer != nullptr) {
      Metrics& l = *layer;
      const auto d = [](auto v) { return static_cast<double>(v); };
      l["batch.steal_ops"] = d(steal_ops);
      l["batch.stolen_cells"] = d(stolen_cells);
      l["batch.busy_s"] = busy_s;
      l["batch.utilization"] = wall_s > 0 ? busy_s / (wall_s * kJobs) : 0.0;
      l["batch.step_makespan"] = makespan;
      l["batch.step_utilization"] =
          makespan > 0 ? steps / (makespan * kJobs) : 0.0;
      l["report_cache.hits"] = d(memo.hits());
      l["report_cache.misses"] = d(memo.misses());
      l["report_cache.evictions"] = d(memo.evictions());
      l["report_cache.hit_rate"] =
          memo.hits() + memo.misses() > 0
              ? d(memo.hits()) / d(memo.hits() + memo.misses())
              : 0.0;
      l["fd_cache.hits"] = d(cache_->hits() - fd_hits0);
      l["fd_cache.misses"] = d(cache_->misses() - fd_misses0);
      l["net.histories"] = d(in_.net_configs.size());
    }
    r.detail["distinct_cells"] = static_cast<double>(in_.distinct);
    r.detail["memo_hits"] = static_cast<double>(memo.hits());
    return r;
  }

  [[nodiscard]] int probeProcs() const override { return kProcs; }

 private:
  std::uint64_t seed_;
  bool quick_;
  CampaignInputs in_;
  std::unique_ptr<sim::FdCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> makeCampaignWorkload(std::uint64_t seed, bool quick) {
  return std::make_unique<CampaignWorkload>(seed, quick);
}

CampaignInputs makeCampaignInputs(std::uint64_t seed, bool quick) {
  const Shape shape =
      quick ? Shape{2, 300, 100, 2} : Shape{12, 20'000, 4'000, 16};
  Rng rng(fd::mixDigest(seed, 0xCA));
  CampaignInputs in;
  // Realized-net histories: bench_net's fault grid, GST 64, delta 4, one
  // crash per pattern.
  const sim::net::LinkFaults grid[] = {
      {1, 8, 50, 0, 32}, {1, 16, 250, 1, 48}, {2, 24, 100, 2, 64}};
  for (int k = 0; k < shape.net_configs; ++k) {
    sim::net::NetConfig cfg;
    cfg.env = {64, 4};
    cfg.faults = grid[k % 3];
    cfg.seed = rng.next();
    const auto victim = static_cast<Pid>(rng.below(kProcs));
    const Time at = rng.range(20, 80);
    in.net_configs.push_back(cfg);
    in.net_patterns.push_back(
        FailurePattern::withCrashes(kProcs, {{victim, at}}));
  }
  std::vector<CellRecipe> distinct;
  for (int i = 0; i < shape.heavy; ++i) {
    distinct.push_back({CellKind::kHeavy, rng.next(), 0});
  }
  for (int i = 0; i < shape.light; ++i) {
    distinct.push_back({CellKind::kLight, rng.next(), 0});
  }
  for (int i = 0; i < shape.net; ++i) {
    distinct.push_back({CellKind::kNet, rng.next(), i % shape.net_configs});
  }
  in.distinct = static_cast<long long>(distinct.size());

  // One in five light/net cells recurs 8-64 cells later (an LRU hit); the
  // heavy cells and as many of the earliest light cells are resubmitted
  // after the batch (misses: see the file comment).
  const std::size_t light_begin = static_cast<std::size_t>(shape.heavy);
  std::vector<std::pair<std::size_t, CellRecipe>> near;  // (due position, cell)
  std::size_t far = 0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    in.cells.push_back(distinct[i]);
    if (i >= light_begin && rng.below(5) == 0) {
      near.emplace_back(in.cells.size() + 8 + rng.below(57), distinct[i]);
      ++far;
    }
    for (std::size_t j = 0; j < near.size();) {
      if (near[j].first <= in.cells.size()) {
        in.cells.push_back(near[j].second);
        near.erase(near.begin() + static_cast<std::ptrdiff_t>(j));
      } else {
        ++j;
      }
    }
  }
  for (const auto& [due, cell] : near) in.cells.push_back(cell);
  in.resubmitted.assign(distinct.begin(),
                        distinct.begin() +
                            static_cast<std::ptrdiff_t>(light_begin + far));
  return in;
}

void prefillFdCache(const CampaignInputs& in, sim::FdCache& cache) {
  for (const CellRecipe& r : in.cells) (void)buildCell(in, r, cache);
}

BatchCell buildCell(const CampaignInputs& in, const CellRecipe& r,
                    sim::FdCache& cache) {
  BatchCell cell;
  cell.cfg.n_plus_1 = kProcs;
  cell.cfg.seed = r.seed;
  switch (r.kind) {
    case CellKind::kHeavy: {
      // bench_batch's heavy cell: a watched Fig. 3 extraction that runs its
      // whole budget; its emulated output must be legal and stable by then.
      const auto fp = FailurePattern::withCrashes(kProcs, {{3, 60}});
      cell.cfg.fp = fp;
      cell.cfg.fd = cache.omega(fp, 120, r.seed);
      cell.cfg.max_steps = kHeavyBudget + 10;
      const auto phi = core::phiOmegaK(kProcs);
      cell.algo = [phi](Env& e, Value) { return core::extractUpsilonF(e, phi); };
      cell.proposals = std::vector<Value>(kProcs, 0);
      cell.watchdog = sim::WatchdogConfig{kHeavyBudget, 0, 0};
      cell.post = [](const sim::RunReport& rep, CellResult& out) {
        out.check_ok = core::checkEmulatedUpsilonF(rep.result, kProcs - 1).ok();
      };
      cell.memo_family = "suite.heavy";
      break;
    }
    case CellKind::kLight: {
      // bench_batch's light cell: one Fig. 1 chaos run whose engine audits
      // itself and whose watchdog checks 3-set agreement online.
      const auto fp = lightPattern();
      cell.cfg.fp = fp;
      cell.cfg.fd = cache.upsilon(fp, 250, r.seed);
      sim::ChaosConfig chaos;
      chaos.seed = r.seed;
      chaos.max_faulty = 2;
      chaos.glitch = {sim::GlitchKind::kScrambleNoise, 0, r.seed * 31};
      chaos.crashes.push_back({sim::CrashInjection::Strategy::kRandom, -1, 0,
                               /*horizon=*/900, /*count=*/1, r.seed * 7});
      cell.chaos = chaos;
      cell.watchdog = sim::WatchdogConfig{3'000'000, 0, kProcs - 1};
      cell.algo = [](Env& e, Value v) {
        return core::upsilonSetAgreement(e, v);
      };
      cell.proposals = seededProposals(r.seed);
      cell.memo_family = "suite.light";
      break;
    }
    case CellKind::kNet: {
      const auto k = static_cast<std::size_t>(r.net_config);
      cell.cfg.fp = in.net_patterns[k];
      cell.cfg.fd =
          cache.netUpsilonF(in.net_patterns[k], kProcs - 1, in.net_configs[k]);
      cell.algo = [](Env& e, Value v) {
        return core::upsilonSetAgreement(e, v);
      };
      cell.proposals = seededProposals(r.seed);
      cell.post = [props = cell.proposals](const sim::RunReport& rep,
                                           CellResult& out) {
        out.check_ok =
            core::checkKSetAgreement(rep.result, kProcs - 1, props).ok();
      };
      cell.memo_family = "suite.net";
      break;
    }
  }
  return cell;
}

bool cellOk(const CellRecipe& r, const CellResult& res) {
  if (r.kind == CellKind::kHeavy) {
    return !res.error && res.check_ok &&
           res.verdict == sim::RunVerdict::kBudgetExhausted;
  }
  return res.ok();
}

}  // namespace wfd::bench::suite
