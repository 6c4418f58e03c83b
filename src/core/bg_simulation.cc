#include "core/bg_simulation.h"

#include <cassert>

#include "core/safe_agreement.h"
#include "memory/snapshot.h"

namespace wfd::core {

namespace {

// Grid slot for (simulator i, simulated j).
int gridSlot(const BgConfig& cfg, int i, int j) {
  return i * cfg.simulated + j;
}

// Project a raw grid scan into a simulated view: per simulated process,
// the value carried by the highest-round cell across simulator columns.
// Also reports each process's highest visible round.
struct Projected {
  std::vector<RegVal> view;    // per simulated process (⊥ if none)
  std::vector<int> round;      // highest round seen per process (0 if none)
};

Projected project(const BgConfig& cfg, const SlotArray& grid) {
  Projected out;
  out.view.resize(static_cast<std::size_t>(cfg.simulated));
  out.round.resize(static_cast<std::size_t>(cfg.simulated), 0);
  for (int i = 0; i < cfg.simulators; ++i) {
    for (int j = 0; j < cfg.simulated; ++j) {
      const RegVal& cell = grid[static_cast<std::size_t>(gridSlot(cfg, i, j))];
      if (cell.isBottom()) continue;
      const auto& t = cell.asTuple();
      const auto r = static_cast<int>(t[0].asInt());
      if (r > out.round[static_cast<std::size_t>(j)]) {
        out.round[static_cast<std::size_t>(j)] = r;
        out.view[static_cast<std::size_t>(j)] = t[1];
      }
    }
  }
  return out;
}

RegVal gridCell(int round, const RegVal& v) {
  std::vector<RegVal> cell;
  cell.emplace_back(static_cast<Value>(round));
  cell.push_back(v);
  return RegVal::tuple(std::move(cell));
}

}  // namespace

Coro<Unit> bgSimulator(Env& env, const BgConfig& cfg,
                       const SnapshotProgram& prog) {
  assert(static_cast<int>(cfg.inputs.size()) == cfg.simulated);
  assert(env.me() < cfg.simulators);
  const auto grid = mem::makeSnapshot(
      env, sim::ObjKey{"bg.grid"}, cfg.simulators * cfg.simulated);

  // Per simulated process: current round, the update value of that
  // round, whether my column already reflects it, whether I proposed to
  // the round's safe agreement, and the decision once known.
  struct SimState {
    int round = 1;
    RegVal update;
    bool column_written = false;
    bool proposed = false;
    std::optional<Value> decision;
  };
  std::vector<SimState> st(static_cast<std::size_t>(cfg.simulated));
  for (int j = 0; j < cfg.simulated; ++j) {
    st[static_cast<std::size_t>(j)].update =
        prog.first_update(j, cfg.inputs[static_cast<std::size_t>(j)]);
  }

  int undecided = cfg.simulated;
  for (Time iter = 0; iter < cfg.max_iterations && undecided > 0; ++iter) {
    for (int j = 0; j < cfg.simulated; ++j) {
      auto& s = st[static_cast<std::size_t>(j)];
      if (s.decision.has_value()) continue;

      if (!s.column_written) {
        // My column mirrors j's round-r update (deterministic, hence
        // identical across simulators).
        co_await mem::snapshotUpdate(env, grid,
                                     gridSlot(cfg, env.me(), j),
                                     gridCell(s.round, s.update));
        s.column_written = true;
      }
      const sim::ObjKey sa_key{"bg.sa", j, s.round};
      if (!s.proposed) {
        // Candidate view: a real grid scan, projected. Containment of
        // real scans carries over to the projection, so whichever
        // candidate safe agreement picks, the simulated views form a
        // legal snapshot execution.
        const auto raw = co_await mem::snapshotScan(env, grid);
        const Projected p = project(cfg, raw);
        co_await saProposeVal(env, sa_key,
                              RegVal::tuple(std::vector<RegVal>(
                                  p.view.begin(), p.view.end())));
        s.proposed = true;
      }
      const auto agreed = co_await saTryResolveVal(env, sa_key);
      if (!agreed.has_value()) continue;  // blocked (for now) — help others

      const auto& view = agreed->asTuple();
      const SnapshotProgram::Step step =
          prog.on_scan(j, s.round, cfg.inputs[static_cast<std::size_t>(j)],
                       std::vector<RegVal>(view.begin(), view.end()));
      if (const auto* dec = std::get_if<Value>(&step)) {
        s.decision = *dec;
        --undecided;
        env.note("bg.decide." + std::to_string(j), RegVal(*dec));
      } else {
        s.update = std::get<RegVal>(step);
        ++s.round;
        s.column_written = false;
        s.proposed = false;
      }
    }
  }
  co_return Unit{};
}

Value caEncode(Value v, bool committed) { return v * 2 + (committed ? 1 : 0); }

std::pair<Value, bool> caDecode(Value encoded) {
  return {encoded / 2, (encoded % 2) != 0};
}

namespace {

// Uniform announcement: (phase, value, phase-1-was-unanimous).
RegVal caAnnounce(int phase, Value v, bool unanimous) {
  std::vector<RegVal> e;
  e.emplace_back(static_cast<Value>(phase));
  e.emplace_back(v);
  e.emplace_back(unanimous);
  return RegVal::tuple(std::move(e));
}

}  // namespace

SnapshotProgram commitAdoptProgram() {
  SnapshotProgram p;
  p.first_update = [](int, Value input) {
    return caAnnounce(1, input, true);
  };
  p.on_scan = [](int, int r, Value input,
                 const std::vector<RegVal>& view) -> SnapshotProgram::Step {
    if (r == 1) {
      // Phase 1: unanimity = all announced values (any phase — a value
      // never changes between phases) are equal.
      bool unanimous = true;
      for (const auto& v : view) {
        if (!v.isBottom() && v.asTuple()[1].asInt() != input) {
          unanimous = false;
        }
      }
      return caAnnounce(2, input, unanimous);
    }
    // Phase 2: commit iff every phase-2 announcement visible (own one
    // included, by self-inclusion of the agreed view) is
    // unanimity-tagged and they all carry one value; otherwise adopt a
    // tagged value if any is visible, else keep the input. Containment
    // of the agreed views makes commits unique and binding (see the
    // correctness notes in bg_simulation.h's tests).
    bool all_phase2_unanimous = true;
    bool single = true;
    Value committed_val = kBottomValue;
    Value tagged = kBottomValue;
    for (const auto& v : view) {
      if (v.isBottom()) continue;
      const auto& t = v.asTuple();
      if (t[0].asInt() != 2) continue;  // straggler still in phase 1
      const Value val = t[1].asInt();
      const bool uni = t[2].asBool();
      if (!uni) all_phase2_unanimous = false;
      if (uni) tagged = val;
      if (committed_val == kBottomValue) {
        committed_val = val;
      } else if (committed_val != val) {
        single = false;
      }
    }
    if (all_phase2_unanimous && single && committed_val != kBottomValue) {
      return caEncode(committed_val, true);
    }
    return caEncode(tagged != kBottomValue ? tagged : input, false);
  };
  return p;
}

SnapshotProgram minOfQuorumProgram(int quorum) {
  SnapshotProgram p;
  p.first_update = [](int, Value input) { return RegVal(input); };
  p.on_scan = [quorum](int, int, Value input,
                       const std::vector<RegVal>& view)
      -> SnapshotProgram::Step {
    if (mem::nonBottomCount(view) >= quorum) {
      return mem::minValue(view);  // decide
    }
    // Quorum not visible yet: re-announce the input and scan again (live
    // as long as at least `quorum` simulated processes are unblocked).
    return RegVal(input);
  };
  return p;
}

}  // namespace wfd::core
