#include "sim/trace.h"

namespace wfd::sim {

std::vector<Event> Trace::ofKind(EventKind k) const {
  std::vector<Event> out;
  for (const auto& e : events()) {
    if (e.kind == k) out.push_back(e);
  }
  return out;
}

std::vector<RegVal> Trace::publishedAt(Time t, int n_plus_1) const {
  std::vector<RegVal> out(static_cast<std::size_t>(n_plus_1));
  for (const auto& e : events()) {
    if (e.time > t) break;
    if (e.kind == EventKind::kPublish && e.pid >= 0 && e.pid < n_plus_1) {
      out[static_cast<std::size_t>(e.pid)] = e.value;
    }
  }
  return out;
}

std::uint64_t Trace::hash64() const {
  std::uint64_t h = op_digest_;
  h = mixDigest(h, ops_mixed_);
  h = mixDigest(h, events().size());
  for (const auto& e : events()) {
    h = mixDigest(h, static_cast<std::uint64_t>(e.time));
    h = mixDigest(h, static_cast<std::uint64_t>(e.pid) + 1);
    h = mixDigest(h, static_cast<std::uint64_t>(e.kind) + 1);
    h = digestString(h, e.label);
    h = mixDigest(h, e.value.hash64());
  }
  return h;
}

std::string Trace::toString() const {
  std::string s;
  for (const auto& e : events()) {
    s += "t=" + std::to_string(e.time) + " p" + std::to_string(e.pid + 1);
    switch (e.kind) {
      case EventKind::kPropose: s += " propose "; break;
      case EventKind::kDecide: s += " decide "; break;
      case EventKind::kPublish: s += " publish "; break;
      case EventKind::kNote: s += " note "; break;
    }
    if (!e.label.empty()) s += e.label + " ";
    s += e.value.toString() + "\n";
  }
  return s;
}

}  // namespace wfd::sim
