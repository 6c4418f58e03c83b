// service: Omega-consensus streams through runService.
//
// Group 3, f = 1, 16 instances per segment, constructed Omega, a legal
// chaos injector every 6th segment, 4 closed-loop clients on the default
// inbox. The work is SegmentDriver::loop, the fresh inner World built per
// segment, the commit rule, and crash-and-replace: the user-facing stream.
// A round is kStreams seeded streams rather than one long one, so each
// stream is a slice that repeats across rounds (see wfd_bench.cc).
#include "suite.h"

namespace wfd::bench::suite {
namespace {

using sim::service::ServiceConfig;
using sim::service::ServiceReport;

constexpr int kStreams = 16;

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), instances_(quick ? 125 : 2'500) {}

  void setup() override {
    Rng rng(fd::mixDigest(seed_, 0x5E5));
    streams_.clear();
    for (int i = 0; i < kStreams; ++i) {
      ServiceConfig cfg;
      cfg.group = 3;
      cfg.f = 1;
      cfg.segment_len = 16;
      cfg.clients = 4;
      cfg.instances = instances_;
      cfg.seed = rng.next();
      cfg.chaos.period = 6;
      cfg.chaos.seed = rng.next();
      streams_.push_back(cfg);
    }
    // Warm-up: a short stream of the same shape.
    ServiceConfig warm = streams_.front();
    warm.instances = 1'000;
    (void)sim::service::runService(warm);
  }

  RoundResult round(Tracer* tracer, Metrics* layer) override {
    RoundResult r;
    const WallTimer wall;
    sim::service::ServiceStats total;
    std::vector<double> p50;
    std::vector<double> p99;
    for (const ServiceConfig& cfg : streams_) {
      ServiceReport rep;
      {
        const SpanScope s(tracer, "service.runService");
        const WallTimer t;
        rep = sim::service::runService(cfg);
        r.slice_s.push_back(t.seconds());
      }
      const auto& st = rep.stats;
      r.ops += cfg.instances;
      // An instance that was not committed, or any non-ok verdict, fails.
      r.failed += rep.ok() ? cfg.instances - st.committed : cfg.instances;
      r.work += static_cast<double>(st.committed);
      r.digest = fd::mixDigest(r.digest, rep.service_hash);
      total.committed += st.committed;
      total.steps += st.steps;
      total.segments += st.segments;
      total.retries += st.retries;
      total.replacements += st.replacements;
      total.injected_crashes += st.injected_crashes;
      total.rejected += st.rejected;
      p50.push_back(st.lat_p50);
      p99.push_back(st.lat_p99);
    }
    r.seconds = wall.seconds();
    // Commit latency: the median over the round's streams.
    r.detail["commit_p50_steps"] = medianOf(p50);
    r.detail["commit_p99_steps"] = medianOf(p99);
    if (layer != nullptr) {
      Metrics& l = *layer;
      l["service.segments"] = total.segments;
      l["service.retries"] = total.retries;
      l["service.replacements"] = total.replacements;
      l["service.injected_crashes"] = total.injected_crashes;
      l["service.rejected"] = static_cast<double>(total.rejected);
      l["service.steps_per_decision"] =
          total.committed > 0 ? static_cast<double>(total.steps) /
                                    static_cast<double>(total.committed)
                              : 0.0;
      l["service.commit_p50_steps"] = r.detail["commit_p50_steps"];
      l["service.commit_p99_steps"] = r.detail["commit_p99_steps"];
    }
    return r;
  }

  [[nodiscard]] int probeProcs() const override { return 3; }

 private:
  std::uint64_t seed_;
  long long instances_;
  std::vector<ServiceConfig> streams_;
};

}  // namespace

std::unique_ptr<Workload> makeServiceWorkload(std::uint64_t seed, bool quick) {
  return std::make_unique<ServiceWorkload>(seed, quick);
}

}  // namespace wfd::bench::suite
