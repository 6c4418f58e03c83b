#include "sim/net/net_world.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace wfd::sim::net {

namespace {

// Event kinds mixed into the trace hash.
constexpr std::uint64_t kEvSend = 1;
constexpr std::uint64_t kEvDeliver = 2;
constexpr std::uint64_t kEvDrop = 3;
constexpr std::uint64_t kEvPartitionDrop = 4;
constexpr std::uint64_t kEvToCrashed = 5;
constexpr std::uint64_t kEvTimer = 6;
constexpr std::uint64_t kEvOutput = 7;

// Independent stateless streams per fate dimension.
constexpr std::uint64_t kDropSalt = 0xD509CB6F2A4173E1ULL;
constexpr std::uint64_t kDelaySalt = 0x8FB1D2C4A6E09357ULL;
constexpr std::uint64_t kPartStartSalt = 0x3C79A1E5D2B48F6DULL;
constexpr std::uint64_t kPartSideSalt = 0x61E8B3A90F5C27D4ULL;

std::uint64_t linkKey(Pid from, Pid to) {
  return static_cast<std::uint64_t>(from) * kMaxProcs +
         static_cast<std::uint64_t>(to) + 1;
}

}  // namespace

int NetContext::nProcs() const { return world_->nProcs(); }
Time NetContext::now() const { return world_->now(); }

void NetContext::send(Pid to, int tag, std::int64_t payload) {
  world_->doSend(me_, to, tag, payload);
}

void NetContext::broadcast(int tag, std::int64_t payload) {
  for (Pid q = 0; q < world_->nProcs(); ++q) {
    if (q != me_) world_->doSend(me_, q, tag, payload);
  }
}

void NetContext::setTimer(int id, Time delay) {
  world_->doSetTimer(me_, id, delay);
}

void NetContext::setOutput(const ProcSet& suspected) {
  world_->doSetOutput(me_, suspected);
}

NetWorld::NetWorld(FailurePattern fp, NetConfig cfg)
    : fp_(std::move(fp)), cfg_(cfg) {
  const auto n = static_cast<std::size_t>(fp_.nProcs());
  timers_.resize(n);
  current_out_.resize(n);
  out_seen_.resize(n, false);
  outputs_.resize(n);
  horizon_ = cfg_.resolvedHorizon(fp_);
}

void NetWorld::mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                   std::uint64_t d) {
  std::uint64_t h = counters_.trace_hash;
  h = mixDigest(h, static_cast<std::uint64_t>(now_));
  h = mixDigest(h, a);
  h = mixDigest(h, b);
  h = mixDigest(h, c);
  h = mixDigest(h, d);
  counters_.trace_hash = h;
}

bool NetWorld::partitionCut(Pid from, Pid to, Time t) const {
  const LinkFaults& lf = cfg_.faults;
  const Time gst = cfg_.env.gst;
  if (lf.partitions <= 0 || lf.partition_len <= 0 || gst <= 0) return false;
  for (int i = 0; i < lf.partitions; ++i) {
    const auto start = static_cast<Time>(
        hashedUniform(cfg_.seed ^ kPartStartSalt,
                      static_cast<std::uint64_t>(i) + 1, 0,
                      static_cast<std::uint64_t>(gst)));
    if (t < start || t >= std::min(start + lf.partition_len, gst)) continue;
    const std::uint64_t side_from =
        hashedUniform(cfg_.seed ^ kPartSideSalt,
                      static_cast<std::uint64_t>(i) + 1,
                      static_cast<std::uint64_t>(from) + 1, 2);
    const std::uint64_t side_to =
        hashedUniform(cfg_.seed ^ kPartSideSalt,
                      static_cast<std::uint64_t>(i) + 1,
                      static_cast<std::uint64_t>(to) + 1, 2);
    if (side_from != side_to) return true;
  }
  return false;
}

void NetWorld::doSend(Pid from, Pid to, int tag, std::int64_t payload) {
  assert(running_);
  assert(to >= 0 && to < nProcs() && to != from);
  const std::uint64_t seq = next_seq_++;
  ++counters_.sent;
  mix(kEvSend, static_cast<std::uint64_t>(from), static_cast<std::uint64_t>(to),
      seq);

  const Time s = now_;
  const SynchronyEnvelope& env = cfg_.env;
  const LinkFaults& lf = cfg_.faults;
  Time deliver_at = 0;
  if (s < env.gst) {
    if (partitionCut(from, to, s)) {
      ++counters_.partition_dropped;
      mix(kEvPartitionDrop, static_cast<std::uint64_t>(from),
          static_cast<std::uint64_t>(to), seq);
      return;
    }
    if (lf.drop_permille > 0 &&
        hashedUniform(cfg_.seed ^ kDropSalt, linkKey(from, to), seq, 1000) <
            static_cast<std::uint64_t>(lf.drop_permille)) {
      ++counters_.dropped;
      mix(kEvDrop, static_cast<std::uint64_t>(from),
          static_cast<std::uint64_t>(to), seq);
      return;
    }
    const Time span = std::max<Time>(lf.max_delay - lf.min_delay, 0);
    const auto draw = static_cast<Time>(
        hashedUniform(cfg_.seed ^ kDelaySalt, linkKey(from, to), seq,
                      static_cast<std::uint64_t>(span) + 1));
    const Time d = std::max<Time>(lf.min_delay + draw, 1);
    // The envelope clamp: whatever the drawn delay, nothing sent before
    // GST arrives after gst + delta.
    deliver_at = std::min(s + d, env.gst + env.delta);
  } else {
    // Post-GST: reliable, delay uniform in [1, delta].
    const auto draw = static_cast<Time>(
        hashedUniform(cfg_.seed ^ kDelaySalt, linkKey(from, to), seq,
                      static_cast<std::uint64_t>(std::max<Time>(env.delta, 1))));
    const Time d = 1 + draw;
    counters_.max_post_gst_lag = std::max(counters_.max_post_gst_lag, d);
    deliver_at = s + d;
  }
  pending_[deliver_at].push_back({to, seq, Message{from, tag, payload}});
}

void NetWorld::doSetTimer(Pid p, int id, Time delay) {
  assert(running_);
  timers_[static_cast<std::size_t>(p)][id] = now_ + std::max<Time>(delay, 1);
}

void NetWorld::doSetOutput(Pid p, const ProcSet& suspected) {
  const auto i = static_cast<std::size_t>(p);
  if (out_seen_[i] && current_out_[i] == suspected) return;
  out_seen_[i] = true;
  current_out_[i] = suspected;
  outputs_[i].push_back({now_, suspected});
  ++counters_.output_switches;
  mix(kEvOutput, static_cast<std::uint64_t>(p), suspected.bits(), 0);
}

void NetWorld::run(std::vector<std::unique_ptr<NetProcess>> procs) {
  assert(!running_ && now_ == 0);
  assert(static_cast<int>(procs.size()) == nProcs());
  procs_ = std::move(procs);
  running_ = true;

  for (Pid p = 0; p < nProcs(); ++p) {
    if (crashed(p, 0)) continue;
    NetContext ctx(this, p);
    procs_[static_cast<std::size_t>(p)]->onStart(ctx);
  }

  std::vector<InFlight> due;
  for (now_ = 1; now_ <= horizon_; ++now_) {
    // (1) Deliveries scheduled for this tick, in (receiver, seq) order.
    if (const auto it = pending_.find(now_); it != pending_.end()) {
      due = std::move(it->second);
      pending_.erase(it);
      std::sort(due.begin(), due.end(),
                [](const InFlight& a, const InFlight& b) {
                  return a.to != b.to ? a.to < b.to : a.seq < b.seq;
                });
      for (const InFlight& m : due) {
        if (crashed(m.to, now_)) {
          ++counters_.to_crashed;
          mix(kEvToCrashed, static_cast<std::uint64_t>(m.to), m.seq, 0);
          continue;
        }
        ++counters_.delivered;
        mix(kEvDeliver, static_cast<std::uint64_t>(m.to),
            static_cast<std::uint64_t>(m.msg.from), m.seq);
        NetContext ctx(this, m.to);
        procs_[static_cast<std::size_t>(m.to)]->onMessage(ctx, m.msg);
      }
      due.clear();
    }

    // (2) Expired timers, in (pid, timer id) order. A callback may re-arm
    // timers, but never for the current tick (delay clamps to >= 1).
    for (Pid p = 0; p < nProcs(); ++p) {
      if (crashed(p, now_)) continue;
      auto& tm = timers_[static_cast<std::size_t>(p)];
      std::vector<int> fired;
      for (const auto& [id, at] : tm) {
        if (at <= now_) fired.push_back(id);
      }
      for (const int id : fired) tm.erase(id);
      for (const int id : fired) {
        ++counters_.timers_fired;
        mix(kEvTimer, static_cast<std::uint64_t>(p),
            static_cast<std::uint64_t>(id), 0);
        NetContext ctx(this, p);
        procs_[static_cast<std::size_t>(p)]->onTimer(ctx, id);
      }
    }
  }
  now_ = horizon_;
  running_ = false;
}

}  // namespace wfd::sim::net
