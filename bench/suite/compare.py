#!/usr/bin/env python3
"""Compare two sides' wfd_bench runs against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py PARENT CHANGE     # verdict per metric
    python3 bench/suite/compare.py --agree A B       # two sets, same code
    python3 bench/suite/compare.py --self-test

Each side is a directory of the --json documents wfd_bench writes (run.py
keeps them in .bench_build/results/), or one such document. Traced
documents are skipped. For every workload and end-to-end metric it prints
each side's median and quartiles (statistics.quantiles, n=4), the pairs the
change wins (runs are paired by seed, ties count for neither side) and a
verdict:

  regressed   the change's exact results fall short of the parent's (see
              below), or its median is worse than the parent's by more
              than the metric's allowance
  unresolved  a side's interquartile range exceeds the allowance, unless
              every change run reads better than every parent run
  improved    >= 10 pairs, the change wins >= 9/10 of them, and the medians
              differ by more than the parent's interquartile range
  unchanged   otherwise

A metric's allowance is its bound as a share of the median; for setup_s it
is that or 0.05 s, whichever is larger, as set-up times of a few
milliseconds move by more than any useful share. The exact results fall
short when the change fails more operations than the parent, or when a
seed both sides ran gives other operations per round or another digest:
a performance change must not change a single executed schedule
(docs/PERF.md), so its runs must do the parent's work, all of it correctly.

--agree instead requires, per workload, every median within its allowance
of the other side's, every spread but setup_s's within its allowance, no
failed operation, and the exact results identical. This is not
tools/bench_compare.py, which gates one bench's exact counters against a
committed baseline file.

Exit status: 1 on a regression or a failed --agree check, 2 on bad input.
"""

import argparse
import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
ABS_FLOOR = {"setup_s": 0.05}


def group(docs):
    """workload -> list of untraced wfd_bench documents, sorted by seed."""
    side = {}
    for doc in docs:
        if doc.get("bench") == "wfd_bench" and doc.get("trace") == "off":
            side.setdefault(doc["workload"], []).append(doc)
    for runs in side.values():
        runs.sort(key=lambda d: int(d["seed"]))
    return side


def load_side(path):
    """A directory of --json documents, or one document."""
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return group(docs)


def summary(values):
    """(median, q1, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def allowance(metric, median):
    """How far the metric may move from `median` before it counts."""
    return max(metric["bound"] * median, ABS_FLOOR.get(metric["name"], 0.0))


def pairs(a_docs, b_docs):
    """Runs of the same seed, else runs in order."""
    b_by_seed = {d["seed"]: d for d in b_docs}
    if all(d["seed"] in b_by_seed for d in a_docs):
        return [(d, b_by_seed[d["seed"]]) for d in a_docs]
    return list(zip(a_docs, b_docs))


def round_ops(doc):
    return sorted({row["ops"] for row in doc["rows"]})


def exact_problems(parent_docs, change_docs):
    """Ways the change's exact results fall short of the parent's."""
    problems = []
    failed = [sum(d["ops_failed"] for d in docs)
              for docs in (parent_docs, change_docs)]
    if failed[1] > failed[0]:
        problems.append(f"ops_failed {failed[0]:g} -> {failed[1]:g}")
    for x, y in pairs(parent_docs, change_docs):
        if x["seed"] != y["seed"]:
            continue
        if round_ops(x) != round_ops(y):
            problems.append(f"seed {x['seed']}: operations per round differ")
        elif x["digest"] != y["digest"]:
            problems.append(f"seed {x['seed']}: digest differs")
    return problems


def verdict(metric, a_docs, b_docs, exact_ok=True):
    name = metric["name"]
    sign = 1 if metric["better"] == "higher" else -1
    a = [d[name] for d in a_docs]
    b = [d[name] for d in b_docs]
    (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
    matched = pairs(a_docs, b_docs)
    wins = sum(1 for x, y in matched if sign * (y[name] - x[name]) > 0)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    wide = (qa3 - qa1) > allowance(metric, ma) or \
        (qb3 - qb1) > allowance(metric, mb)
    gain = sign * (mb - ma)
    if not exact_ok:
        v = "regressed"
    elif wide and not all_better:
        v = "unresolved"
    elif gain < -allowance(metric, ma):
        v = "regressed"
    elif len(matched) >= 10 and wins >= 0.9 * len(matched) and gain > qa3 - qa1:
        v = "improved"
    else:
        v = "unchanged"
    return {"metric": name, "parent": (ma, qa1, qa3), "change": (mb, qb1, qb3),
            "wins": wins, "pairs": len(matched), "verdict": v}


def fmt(s):
    med, q1, q3 = s
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(bench, parent, change, out=print):
    """Verdict rows for every workload both sides ran; returns the rows."""
    rows = []
    for w in (x["name"] for x in bench["workloads"]):
        if w not in parent or w not in change:
            continue
        problems = exact_problems(parent[w], change[w])
        for p in problems:
            out(f"{w:9s} exact results: {p}")
        for m in bench["end_to_end"]:
            r = verdict(m, parent[w], change[w], exact_ok=not problems)
            r["workload"] = w
            rows.append(r)
            out(f"{w:9s} {m['name']:12s} parent {fmt(r['parent'])}  change "
                f"{fmt(r['change'])}  wins {r['wins']}/{r['pairs']}  "
                f"{r['verdict']}")
    return rows


def agree(bench, a, b, out=print):
    """Problems found between two sets of runs of the same code."""
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        if w not in a or w not in b:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            (ma, qa1, qa3) = summary([d[name] for d in a[w]])
            (mb, qb1, qb3) = summary([d[name] for d in b[w]])
            allow = allowance(m, ma)
            gap = abs(mb - ma)
            spread = max((qa3 - qa1) - allow, (qb3 - qb1) - allowance(m, mb))
            out(f"{w:9s} {name:12s} A {ma:.6g}  B {mb:.6g}  median gap "
                f"{gap / ma:.4f}  spreads {(qa3 - qa1) / ma:.4f} "
                f"{(qb3 - qb1) / mb:.4f}  bound {m['bound']}")
            if gap > allow:
                problems.append(f"{w} {name}: medians differ by {gap / ma:.4f}")
            if name != "setup_s" and spread > 0:
                problems.append(f"{w} {name}: a spread exceeds the bound")
        for d in a[w] + b[w]:
            if d["ops_failed"] != 0:
                problems.append(f"{w} seed {d['seed']}: {d['ops_failed']} failed")
            if len(round_ops(d)) != 1:
                problems.append(f"{w} seed {d['seed']}: rounds differ in ops")
        problems += [f"{w} {p}" for p in exact_problems(a[w], b[w])]
    return problems


# ---- self test ------------------------------------------------------------------

def _doc(workload, seed, work, setup=0.02, rss=30.0, digest="d", ops=10,
         failed=0, trace="off"):
    return {"bench": "wfd_bench", "workload": workload, "seed": str(seed),
            "trace": trace, "digest": digest, "work_per_s": work,
            "setup_s": setup, "peak_rss_mb": rss, "ops_failed": failed,
            "rows": [{"ops": ops}, {"ops": ops}]}


def _side(works, **kw):
    return {"sim": [_doc("sim", i + 1, v, **kw) for i, v in enumerate(works)]}


def self_test():
    bench = {"workloads": [{"name": "sim"}],
             "end_to_end": [
                 {"name": "work_per_s", "better": "higher", "bound": 0.10},
                 {"name": "setup_s", "better": "lower", "bound": 0.25},
                 {"name": "peak_rss_mb", "better": "lower", "bound": 0.10}]}
    quiet = lambda *_: None
    base = [100 + i % 3 for i in range(10)]
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"self-test {'ok' if ok else 'FAIL'}: {what}")
        failures += 0 if ok else 1

    def verdict_of(parent, change, metric="work_per_s"):
        rows = compare(bench, parent, change, out=quiet)
        return next(r["verdict"] for r in rows if r["metric"] == metric)

    gain = [v * 1.3 for v in base]
    check(verdict_of(_side(base), _side(base)) == "unchanged",
          "identical sides are unchanged")
    check(verdict_of(_side(base), _side(gain)) == "improved",
          "a 30% gain won in every pair is improved")
    check(verdict_of(_side(base), _side([v * 0.8 for v in base])) == "regressed",
          "a 20% loss is regressed")
    check(verdict_of(_side(base), _side([v * 0.95 for v in base])) == "unchanged",
          "a 5% loss within the 10% bound is unchanged")
    check(verdict_of(_side(base[:5]), _side(gain[:5])) == "unchanged",
          "a gain over fewer than 10 pairs is not claimed")
    wide = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    check(verdict_of(_side(wide), _side(wide)) == "unresolved",
          "a spread wider than the bound is unresolved")
    check(verdict_of(_side(wide), _side([v + 200 for v in wide])) == "improved",
          "every change run better than every parent run resolves it")
    check(verdict_of(_side(base), _side(gain, failed=1)) == "regressed",
          "a gain with failed operations is regressed")
    check(verdict_of(_side(base), _side(gain, ops=11)) == "regressed",
          "a gain with other operations per round is regressed")
    check(verdict_of(_side(base), _side(gain, digest="e")) == "regressed",
          "a gain with another digest is regressed")
    check(verdict_of(_side(base), _side(base, setup=0.06), "setup_s")
          == "unchanged", "setup_s may worsen by up to 0.05 s")
    check(verdict_of(_side(base), _side(base, setup=0.08), "setup_s")
          == "regressed", "setup_s worse by more than 0.05 s is regressed")
    check(verdict_of(_side(base, setup=0.4), _side(base, setup=0.48),
                     "setup_s") == "unchanged",
          "setup_s may worsen by its bound when that exceeds 0.05 s")
    check(verdict_of(_side(base, setup=0.4), _side(base, setup=0.56),
                     "setup_s") == "regressed",
          "setup_s worse by more than its bound is regressed")
    docs = _side(base)["sim"] + [_doc("sim", 11, 1.0, trace="t.json")]
    check(len(group(docs)["sim"]) == 10, "traced documents are skipped")

    def agrees(a, b):
        return agree(bench, a, b, out=quiet) == []

    check(agrees(_side(base), _side(base)),
          "--agree accepts two sets of the same runs")
    check(agrees(_side(base), _side(base, setup=0.04)),
          "--agree allows setup_s within 0.05 s")
    check(not agrees(_side(base), _side([v * 1.2 for v in base])),
          "--agree rejects medians 20% apart")
    check(not agrees(_side(wide), _side(wide)),
          "--agree rejects a spread wider than the bound")
    check(not agrees(_side(base), _side(base, digest="e")),
          "--agree rejects differing digests")
    check(not agrees(_side(base), _side(base, ops=11)),
          "--agree rejects differing operations per round")
    check(not agrees(_side(base, failed=1), _side(base, failed=1)),
          "--agree rejects failed operations")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--agree", action="store_true")
    ap.add_argument("sides", nargs="*", help="two sides: directories or files")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if len(args.sides) != 2:
        ap.error("give exactly two sides")
    with open(BENCHMARK, encoding="utf-8") as f:
        bench = json.load(f)
    a, b = load_side(args.sides[0]), load_side(args.sides[1])
    if not a or not b:
        print("compare: a side has no untraced wfd_bench documents")
        return 2
    if args.agree:
        problems = agree(bench, a, b)
        for p in problems:
            print(f"DISAGREE: {p}")
        print(f"agree: {'FAIL' if problems else 'PASS'}")
        return 1 if problems else 0
    rows = compare(bench, a, b)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
