#!/usr/bin/env python3
"""Compare a bench JSON report against a committed baseline.

Two classes of check:

  * deterministic counters (schedule counts, frontier job counts, step
    makespans, gate status) must match the baseline EXACTLY — these are
    bit-stable properties of the search, so any drift is a semantic
    change that needs a deliberate baseline update;
  * throughput metrics (schedules per wall-second) must stay within
    --min-ratio of the baseline (default 0.8, i.e. fail on a >20%
    schedule-rate regression). Rates are hardware-sensitive, so only a
    sustained regression fails the gate, and --min-ratio 0 disables it.

Usage:
  bench_compare.py --baseline bench/BENCH_explore.baseline.json \
                   --candidate BENCH_explore.json [--min-ratio 0.8]
  bench_compare.py --baseline bench/BENCH_core.baseline.json \
                   --candidate BENCH_core.json
  bench_compare.py --baseline bench/BENCH_service.baseline.json \
                   --candidate BENCH_service.json
  bench_compare.py --baseline bench/BENCH_batch.baseline.json \
                   --candidate BENCH_batch.json
  bench_compare.py --baseline bench/BENCH_net.baseline.json \
                   --candidate BENCH_net.json
  bench_compare.py --self-test

Exit status: 0 = within bounds, 1 = regression or mismatch, 2 = usage.
Between two runs of the same bench mode, every baseline row must be
present in the candidate: a dropped row is a failure, not a silent pass.
Candidate and baseline produced by different bench modes (--quick vs
full) are compared only on the rows/metrics present in BOTH, and not on
per-row `steps` (bench_core sizes its rows by mode).

--self-test runs the gate against built-in fixtures (exact-counter
mismatch including steps_rebuilt, bench_core's steps, the service
counters, bench_batch's counters and static worker rows, bench_net's
section runs/failures/steps and substrate NetCounters, the ungated
stealing worker rows, a baseline row
missing from a same-mode candidate, the rate-ratio
boundary on every rate metric, the differing---jobs step_makespan and
differing-mode steps exclusions) and exits 0 only if the gate's own
behavior is intact; CI runs it as
tools.bench_compare_selftest so a refactor of this script cannot
silently defang the perf gate.
"""

import argparse
import copy
import json
import sys

# Deterministic per-row counters: exact match required when the row is
# present in both reports.
ROW_EXACT = [
    "schedules_explored",
    "sleep_set_skips",
    "states_memoized",
    "memo_hits",
    "steps_executed",
    "steps_replayed",
    "steps_rebuilt",
    "restores",
    "frontier_jobs",
    "step_makespan",
    "verified",
    "complete",
    "steps",
    "committed",
    "replacements",
    "retries",
    "streams",
    "runs",
    "failures",
    "sent",
    "delivered",
    "dropped",
    "partition_dropped",
    "to_crashed",
    "timers_fired",
    "output_switches",
]

# Deterministic top-level metrics: exact match required when present in
# both. (Seconds-valued and hit-count metrics are excluded: wall time is
# hardware-bound, and cache hit counts depend on run order. bench_batch's
# memo_hit_rate is the exception: its warm pass reruns a campaign the
# cold pass already filled, so every eligible cell hits.)
TOP_EXACT = [
    "frontier_n3_jobs",
    "fig1_dpor_schedules",
    "fig1_dag_schedules",
    "dpor_n3_schedules",
    "n4_schedules",
    "n4_complete",
    "gates_failed",
    "campaign_committed",
    "sustained_steps",
    "sustained_replacements",
    "sustained_retries",
    "lat_p50_steps",
    "lat_p99_steps",
    "replay_identical",
    "sweep_variants",
    "sweep_recovered",
    "sweep_restores",
    "negative_caught",
    "certification_failures",
    "heavy_cells",
    "light_cells",
    "memo_eligible_cells",
    "memo_hit_rate",
    "failures",
]

# Rows never compared: the stealing-side worker rows of bench_batch and
# of bench_net's certification batch, whose placement (and so each
# worker's steps) depends on thread timing. bench_batch's static-sharding
# rows are a pure function of (cells, jobs) and stay gated.
ROW_UNGATED_PREFIXES = ("steal_worker_", "certify_batch_worker_")

# Throughput metrics: candidate must be >= min_ratio * baseline.
RATE_METRICS = [
    "dpor_n3_sched_per_sec",
    "fig1_dag_sched_per_sec",
    "fig1_steps_per_s",
    "fig2_steps_per_s",
    "fig3_steps_per_s",
]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def compare(base, cand, min_ratio):
    """The gate itself: (failures, checked) for a baseline/candidate pair."""
    failures = []
    checked = 0

    # step_makespan is deterministic for a FIXED worker count but is a
    # function of it (the jobs=N ≡ jobs=1 contract excludes it), so when
    # the two reports ran with different --jobs the rows driven by that
    # flag may differ legitimately — compare everything else.
    row_keys = list(ROW_EXACT)
    if base.get("jobs") != cand.get("jobs"):
        row_keys.remove("step_makespan")
    # bench_core sizes its rows by mode, so a row's `steps` is compared
    # only between two runs of the same mode (--quick vs full).
    same_mode = base.get("mode") == cand.get("mode")
    if not same_mode:
        row_keys.remove("steps")

    def gated(report):
        return {
            r.get("name"): r
            for r in report.get("rows", [])
            if not str(r.get("name")).startswith(ROW_UNGATED_PREFIXES)
        }

    base_rows = gated(base)
    cand_rows = gated(cand)
    # A mode runs a fixed row set (--quick drops some full-mode rows), so
    # within one mode every baseline row must still be there.
    if same_mode:
        for name in sorted(set(base_rows) - set(cand_rows)):
            checked += 1
            failures.append(
                f"row {name}: in the baseline, missing from the candidate"
            )
    for name in sorted(set(base_rows) & set(cand_rows)):
        b, c = base_rows[name], cand_rows[name]
        for key in row_keys:
            if key not in b or key not in c:
                continue
            checked += 1
            if b[key] != c[key]:
                failures.append(
                    f"row {name}.{key}: baseline {b[key]} != candidate {c[key]}"
                )

    for key in TOP_EXACT:
        if key not in base or key not in cand:
            continue
        checked += 1
        if base[key] != cand[key]:
            failures.append(
                f"metric {key}: baseline {base[key]} != candidate {cand[key]}"
            )

    for key in RATE_METRICS:
        if min_ratio <= 0 or key not in base or key not in cand:
            continue
        checked += 1
        b, c = float(base[key]), float(cand[key])
        if b > 0 and c < min_ratio * b:
            failures.append(
                f"rate {key}: candidate {c:.0f}/s is "
                f"{c / b:.2f}x baseline {b:.0f}/s "
                f"(threshold {min_ratio:.2f}x)"
            )

    return failures, checked


def self_test():
    """Certify the gate's own behavior against built-in fixtures."""
    base = {
        "bench": "explore",
        "jobs": 4,
        "mode": "full",
        "dpor_n3_schedules": 1000,
        "dpor_n3_sched_per_sec": 5000.0,
        "fig1_dag_sched_per_sec": 2000.0,
        "fig1_steps_per_s": 2.0e6,
        "fig2_steps_per_s": 2.5e6,
        "fig3_steps_per_s": 6.0e6,
        "rows": [
            {
                "name": "dpor/n3",
                "schedules_explored": 1000,
                "steps_rebuilt": 3000,
                "step_makespan": 420,
                "verified": 1,
            },
            {"name": "fig1", "steps": 64197, "seconds": 0.03},
        ],
    }
    failed = []

    def expect(label, cond):
        if not cond:
            failed.append(label)
        print(f"  {'ok' if cond else 'FAIL'}: {label}")

    # 1. A report compared against itself is clean.
    f, checked = compare(base, copy.deepcopy(base), 0.8)
    expect("identical reports pass", not f and checked > 0)

    # 2. An exact-counter drift is a failure, top-level and per-row.
    cand = copy.deepcopy(base)
    cand["dpor_n3_schedules"] = 1001
    f, _ = compare(base, cand, 0.8)
    expect("top-level counter mismatch fails", len(f) == 1)
    cand = copy.deepcopy(base)
    cand["rows"][0]["schedules_explored"] = 999
    f, _ = compare(base, cand, 0.8)
    expect("per-row counter mismatch fails", len(f) == 1)
    cand = copy.deepcopy(base)
    cand["rows"][0]["steps_rebuilt"] = 3001
    f, _ = compare(base, cand, 0.8)
    expect("steps_rebuilt drift fails", len(f) == 1)
    cand = copy.deepcopy(base)
    del cand["rows"][0]["steps_rebuilt"]
    f, _ = compare(base, cand, 0.8)
    expect("steps_rebuilt absent from one report is skipped", not f)
    cand = copy.deepcopy(base)
    cand["rows"][1]["steps"] = 64198
    f, _ = compare(base, cand, 0.8)
    expect("bench_core row steps drift fails", len(f) == 1)
    cand["mode"] = "quick"
    f, _ = compare(base, cand, 0.8)
    expect("row steps skipped across differing modes", not f)
    cand = copy.deepcopy(base)
    cand["rows"][1]["seconds"] = 0.05
    f, _ = compare(base, cand, 0.8)
    expect("row seconds are not compared", not f)

    # 2a. bench_service: every deterministic counter is exact, top-level
    #     and per campaign row; its wall time and decision rate are not.
    svc = {
        "bench": "service",
        "jobs": 4,
        "mode": "quick",
        "sustained_steps": 112384,
        "sweep_restores": 32,
        "sweep_wall_s": 0.005,
        "decisions_per_sec": 136746,
        "rows": [
            {
                "name": "campaign/omega/constructed",
                "streams": 2,
                "committed": 192,
                "replacements": 3,
                "retries": 0,
            }
        ],
    }
    for key in ("sustained_steps", "sweep_restores"):
        cand = copy.deepcopy(svc)
        cand[key] += 1
        f, _ = compare(svc, cand, 0.8)
        expect(f"service {key} drift fails", len(f) == 1)
    for key in ("streams", "committed", "replacements", "retries"):
        cand = copy.deepcopy(svc)
        cand["rows"][0][key] += 1
        f, _ = compare(svc, cand, 0.8)
        expect(f"service row {key} drift fails", len(f) == 1)
    cand = copy.deepcopy(svc)
    cand["sweep_wall_s"] = 0.05
    cand["decisions_per_sec"] = 1
    f, _ = compare(svc, cand, 0.8)
    expect("service wall time and rate are not compared", not f)

    # 2a'. bench_batch: cell counts, memo eligibility, hit rate and
    #      failures are exact, and so are the static-sharding worker
    #      steps; wall times and stealing-side worker rows are not.
    batch = {
        "bench": "bench_batch",
        "jobs": 4,
        "mode": "quick",
        "heavy_cells": 6,
        "light_cells": 90,
        "memo_eligible_cells": 96,
        "memo_hit_rate": 1.0,
        "failures": 0,
        "wall_static_s": 0.5,
        "steal_speedup_wall": 2.0,
        "rows": [
            {"name": "static_worker_0", "executed": 24, "steps": 360000},
            {"name": "steal_worker_0", "executed": 20, "steps": 120000},
        ],
    }
    for key in ("heavy_cells", "light_cells", "memo_eligible_cells",
                "memo_hit_rate", "failures"):
        cand = copy.deepcopy(batch)
        cand[key] += 1
        f, _ = compare(batch, cand, 0.8)
        expect(f"batch {key} drift fails", len(f) == 1)
    cand = copy.deepcopy(batch)
    cand["rows"][0]["steps"] += 1
    f, _ = compare(batch, cand, 0.8)
    expect("batch static worker steps drift fails", len(f) == 1)
    cand = copy.deepcopy(batch)
    cand["rows"][1]["steps"] += 1
    cand["wall_static_s"] = 5.0
    cand["steal_speedup_wall"] = 0.5
    f, _ = compare(batch, cand, 0.8)
    expect("batch stealing rows and wall times are not compared", not f)
    cand = copy.deepcopy(batch)
    del cand["rows"][1]
    f, _ = compare(batch, cand, 0.8)
    expect("batch stealing row absent from the candidate passes", not f)

    # 2a''. bench_net: each section's runs and failures, the shared-memory
    #       sections' steps and the substrate grid's summed NetCounters are
    #       exact; wall times and the certification batch's worker rows
    #       are not.
    net = {
        "bench": "bench_net",
        "jobs": 1,
        "mode": "quick",
        "rows": [
            {
                "name": "substrate_grid",
                "runs": 54,
                "failures": 0,
                "wall_s": 0.05,
                "sent": 200000,
                "delivered": 150000,
                "dropped": 900,
                "partition_dropped": 1200,
                "to_crashed": 300,
                "timers_fired": 70000,
                "output_switches": 1500,
            },
            {"name": "certify", "runs": 108, "failures": 0, "steps": 90000},
            {"name": "certify_batch_worker_0", "executed": 108,
             "steps": 90000},
        ],
    }
    for key in ("runs", "failures", "sent", "delivered", "dropped",
                "partition_dropped", "to_crashed", "timers_fired",
                "output_switches"):
        cand = copy.deepcopy(net)
        cand["rows"][0][key] += 1
        f, _ = compare(net, cand, 0.8)
        expect(f"net substrate_grid {key} drift fails", len(f) == 1)
    for key in ("runs", "steps"):
        cand = copy.deepcopy(net)
        cand["rows"][1][key] += 1
        f, _ = compare(net, cand, 0.8)
        expect(f"net certify {key} drift fails", len(f) == 1)
    cand = copy.deepcopy(net)
    cand["jobs"] = 4
    cand["rows"][0]["wall_s"] = 5.0
    cand["rows"][2]["steps"] = 30000
    cand["rows"].append({"name": "certify_batch_worker_1", "executed": 70,
                         "steps": 60000})
    f, _ = compare(net, cand, 0.8)
    expect("net wall times and batch worker rows are not compared", not f)

    # 2b. A baseline row the candidate dropped fails within one mode;
    #     across modes only the shared rows are compared. Extra candidate
    #     rows (a new ledger row) pass.
    cand = copy.deepcopy(base)
    del cand["rows"][1]
    f, _ = compare(base, cand, 0.8)
    expect("baseline row missing from the candidate fails", len(f) == 1)
    cand["mode"] = "quick"
    f, _ = compare(base, cand, 0.8)
    expect("missing row skipped across differing modes", not f)
    cand = copy.deepcopy(base)
    cand["rows"].append({"name": "coro-child", "steps": 200000})
    f, _ = compare(base, cand, 0.8)
    expect("candidate-only row passes", not f)

    # 3. The rate-ratio boundary: exactly min_ratio * baseline passes
    #    (the check is strict-less-than), epsilon below fails.
    cand = copy.deepcopy(base)
    cand["dpor_n3_sched_per_sec"] = 4000.0  # exactly 0.8x
    f, _ = compare(base, cand, 0.8)
    expect("rate at exactly 0.8x passes", not f)
    cand["dpor_n3_sched_per_sec"] = 3999.0
    f, _ = compare(base, cand, 0.8)
    expect("rate below 0.8x fails", len(f) == 1)
    f, _ = compare(base, cand, 0)
    expect("--min-ratio 0 disables the rate gate", not f)
    cand = copy.deepcopy(base)
    cand["fig1_dag_sched_per_sec"] = 1599.0  # below 0.8x
    f, _ = compare(base, cand, 0.8)
    expect("fig1 kDag rate below 0.8x fails", len(f) == 1)
    for key in ("fig1_steps_per_s", "fig2_steps_per_s", "fig3_steps_per_s"):
        cand = copy.deepcopy(base)
        cand[key] = 0.8 * base[key]
        f, _ = compare(base, cand, 0.8)
        expect(f"{key} at exactly 0.8x passes", not f)
        cand[key] = 0.79 * base[key]
        f, _ = compare(base, cand, 0.8)
        expect(f"{key} below 0.8x fails", len(f) == 1)

    # 4. Differing --jobs: step_makespan is excluded, everything else
    #    still compared.
    cand = copy.deepcopy(base)
    cand["jobs"] = 8
    cand["rows"][0]["step_makespan"] = 210
    f, _ = compare(base, cand, 0.8)
    expect("step_makespan skipped across differing jobs", not f)
    cand["rows"][0]["schedules_explored"] = 999
    f, _ = compare(base, cand, 0.8)
    expect("other rows still compared across differing jobs", len(f) == 1)

    # 5. Nothing comparable is a failure, not a silent pass.
    f, checked = compare({"rows": []}, {"rows": []}, 0.8)
    expect("empty intersection yields zero checks", checked == 0)

    if failed:
        print(f"bench_compare --self-test: {len(failed)} FAILURE(S)")
        return 1
    print("bench_compare --self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--candidate")
    ap.add_argument(
        "--min-ratio",
        type=float,
        default=0.8,
        help="fail when a rate metric drops below this fraction of the "
        "baseline (default 0.8 = a >20%% regression fails; 0 disables)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the gate against built-in fixtures and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        ap.error("--baseline and --candidate are required (or --self-test)")

    base = load(args.baseline)
    cand = load(args.candidate)
    failures, checked = compare(base, cand, args.min_ratio)

    if checked == 0:
        print("bench_compare: no comparable rows or metrics found")
        return 1
    for f in failures:
        print(f"bench_compare REGRESSION: {f}")
    verdict = "FAIL" if failures else "OK"
    print(
        f"bench_compare: {checked} checks against {args.baseline}: {verdict}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
