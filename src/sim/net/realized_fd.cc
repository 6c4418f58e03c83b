#include "sim/net/realized_fd.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "sim/world.h"  // SimAbort

namespace wfd::sim::net {

namespace {

ProcSet applyLens(const ProcSet& suspected, RealizedLens lens, int n_plus_1) {
  switch (lens) {
    case RealizedLens::kEventuallyPerfect:
      return suspected;
    case RealizedLens::kOmega:
    case RealizedLens::kUpsilon: {
      // The heartbeat protocol never self-suspects, so the un-suspected
      // set always contains the querying process — never empty.
      const ProcSet alive = suspected.complement(n_plus_1);
      const Pid leader = alive.empty() ? 0 : alive.min();
      return lens == RealizedLens::kOmega
                 ? ProcSet::singleton(leader)
                 : ProcSet::full(n_plus_1).minus(ProcSet::singleton(leader));
    }
  }
  return suspected;
}

// The stable value V and the exact stabilization time: the smallest T
// such that for every process p and every tick t in [T, min(crash_p,
// horizon)], the lens value equals V. Queries past the horizon clamp to
// the final (stable) value, and queries by crashed processes never
// happen (run condition (1)), so T is a complete witness.
Time computeStab(const NetHistory& h, RealizedLens lens, const ProcSet& V) {
  Time stab = 0;
  for (Pid p = 0; p < h.n_plus_1; ++p) {
    const auto& sw = h.switches[static_cast<std::size_t>(p)];
    if (sw.empty()) continue;  // crashed at tick 0: no observable queries
    const Time crash = h.fp.crashTime(p);
    const Time limit =
        std::min(crash == kNeverCrashes ? h.horizon : crash - 1, h.horizon);
    for (std::size_t i = 0; i < sw.size(); ++i) {
      if (applyLens(sw[i].out, lens, h.n_plus_1) == V) continue;
      const Time hold_end =
          i + 1 < sw.size() ? sw[i + 1].at - 1 : h.horizon;
      const Time bad_end = std::min(hold_end, limit);
      if (bad_end >= sw[i].at) stab = std::max(stab, bad_end + 1);
    }
  }
  return stab;
}

}  // namespace

RealizedFd::RealizedFd(NetHistoryPtr history, RealizedLens lens, int f)
    : history_(std::move(history)), lens_(lens), f_(f) {
  if (lens_ == RealizedLens::kUpsilon && f_ < 1) {
    throw SimAbort("realized Upsilon lens requires f >= 1");
  }
  const int n = history_->n_plus_1;
  stable_ = applyLens(history_->fp.faulty(), lens_, n);
  stab_ = computeStab(*history_, lens_, stable_);
}

ProcSet RealizedFd::query(Pid p, Time t) const {
  return applyLens(history_->suspectedAt(p, t), lens_, history_->n_plus_1);
}

std::string RealizedFd::name() const {
  switch (lens_) {
    case RealizedLens::kEventuallyPerfect: return "net<>P";
    case RealizedLens::kOmega: return "netOmega";
    case RealizedLens::kUpsilon: return "netUpsilon^" + std::to_string(f_);
  }
  return "net?";
}

fd::AxiomSpec RealizedFd::axioms() const {
  switch (lens_) {
    case RealizedLens::kEventuallyPerfect:
      return {fd::AxiomSpec::Family::kEventuallyPerfect, 0};
    case RealizedLens::kOmega:
      return {fd::AxiomSpec::Family::kOmegaK, 1};
    case RealizedLens::kUpsilon:
      return {fd::AxiomSpec::Family::kUpsilonF, f_};
  }
  return {};
}

std::uint64_t RealizedFd::keyDigest() const {
  std::uint64_t h = digestString(history_->digest, name());
  h = mixDigest(h, static_cast<std::uint64_t>(lens_));
  h = mixDigest(h, static_cast<std::uint64_t>(f_));
  return h;
}

fd::FdPtr makeRealizedEventuallyPerfect(NetHistoryPtr history) {
  return std::make_shared<RealizedFd>(std::move(history),
                                      RealizedLens::kEventuallyPerfect, 0);
}

fd::FdPtr makeRealizedOmega(NetHistoryPtr history) {
  return std::make_shared<RealizedFd>(std::move(history), RealizedLens::kOmega,
                                      0);
}

fd::FdPtr makeRealizedUpsilon(NetHistoryPtr history, int f) {
  return std::make_shared<RealizedFd>(std::move(history),
                                      RealizedLens::kUpsilon, f);
}

}  // namespace wfd::sim::net
