#!/usr/bin/env python3
"""Paired A/B runs of two wfd_bench binaries, judged by bench/suite/compare.py.

    python3 tools/ab_pairs.py PARENT_BIN CHANGE_BIN --workload W \\
        --pairs N --seconds T --out DIR
    python3 tools/ab_pairs.py --self-test

Pair i (seed i, 1..N) runs both binaries on workload W for T seconds each,
back to back. The side that runs first alternates: the parent in odd
pairs, the change in even ones, so a drift of the host over the runs
(another build, a thermal step) does not land on one side only. Each
side's --json documents are kept in DIR/parent and DIR/change, named
W-seedS.json. Then bench/suite/compare.py judges the two directories
against BENCHMARK.json's bounds: it pairs runs by seed and prints, per
end-to-end metric, each side's median and quartiles, the pairs the change
wins and a verdict. This script adds one line per metric with the ratio of
the medians (change / parent).

Exit status: compare.py's (1 on a regression), or 1 if a wfd_bench run
fails, 2 on bad arguments.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMPARE = ROOT / "bench" / "suite" / "compare.py"
METRICS = ("work_per_s", "setup_s", "peak_rss_mb")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_side(binary, workload, seed, seconds, path):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        log(f"ab_pairs: cannot run {binary}: {e}")
        return False
    if proc.returncode != 0 or not path.is_file():
        log(f"ab_pairs: {' '.join(cmd)} exited {proc.returncode}\n"
            f"{proc.stderr}")
        return False
    return True


def median_ratios(parent_dir, change_dir):
    """metric -> median(change) / median(parent), over untraced documents."""
    def values(d, metric):
        docs = [json.loads(f.read_text()) for f in sorted(d.glob("*.json"))]
        return [doc[metric] for doc in docs if doc.get("trace") == "off"]

    out = {}
    for m in METRICS:
        a, b = values(parent_dir, m), values(change_dir, m)
        if a and b and statistics.median(a) != 0:
            out[m] = statistics.median(b) / statistics.median(a)
    return out


def ab(parent_bin, change_bin, workload, pairs, seconds, out_dir):
    sides = {"parent": (parent_bin, out_dir / "parent"),
             "change": (change_bin, out_dir / "change")}
    for _, d in sides.values():
        d.mkdir(parents=True, exist_ok=True)
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 == 1 else ("change", "parent")
        for side in order:
            binary, d = sides[side]
            log(f"ab_pairs: pair {seed}/{pairs}: {side} ({workload})")
            if not run_side(binary, workload, seed, seconds,
                            d / f"{workload}-seed{seed}.json"):
                return 1
    rc = subprocess.run([sys.executable, str(COMPARE), str(sides["parent"][1]),
                         str(sides["change"][1])]).returncode
    for m, r in median_ratios(sides["parent"][1], sides["change"][1]).items():
        print(f"{workload:9s} {m:12s} median ratio change/parent {r:.4f}")
    return rc


# ---- self test --------------------------------------------------------------

STUB = """#!{python}
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open({log!r}, "a") as f:
    f.write("{tag} %d\\n" % seed)
doc = {{"bench": "wfd_bench", "workload": args["--workload"],
        "seed": str(seed), "trace": "off", "digest": {digest!r},
        "work_per_s": {work} + seed % 3, "setup_s": 0.02,
        "peak_rss_mb": 8.0, "ops_failed": 0, "rows": [{{"ops": 10}}]}}
with open(args["--json"], "w") as f:
    json.dump(doc, f)
"""


def self_test():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"self-test {'ok' if ok else 'FAIL'}: {what}")
        failures += 0 if ok else 1

    with tempfile.TemporaryDirectory() as tmp:
        t = pathlib.Path(tmp)
        order_log = t / "order.log"

        (t / "bin").mkdir()

        def stub(tag, digest, work):
            path = t / "bin" / tag
            path.write_text(STUB.format(python=sys.executable,
                                        log=str(order_log), tag=tag,
                                        digest=digest, work=work))
            path.chmod(0o755)
            return path

        parent = stub("parent", "d", 100)
        same = stub("same", "d", 100)
        other = stub("other", "e", 100)
        slow = stub("slow", "d", 50)

        rc = ab(parent, same, "sim", 4, 1, t / "same")
        check(rc == 0, "identical stubs compare clean")
        runs = order_log.read_text().split()
        check(runs == ["parent", "1", "same", "1", "same", "2", "parent", "2",
                       "parent", "3", "same", "3", "same", "4", "parent", "4"],
              "pairs alternate which side runs first")
        check(len(list((t / "same" / "parent").glob("*.json"))) == 4 and
              len(list((t / "same" / "change").glob("*.json"))) == 4,
              "each side keeps one document per pair")
        ratios = median_ratios(t / "same" / "parent", t / "same" / "change")
        check(ratios.get("work_per_s") == 1.0, "median ratio of equal sides")
        check(ab(parent, other, "sim", 2, 1, t / "other") == 1,
              "another digest is a regression")
        check(ab(parent, slow, "sim", 2, 1, t / "slow") == 1,
              "half the work rate is a regression")
        check(ab(parent, t / "bin" / "none", "sim", 1, 1, t / "none") == 1,
              "a binary that cannot run fails the comparison")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_bin", nargs="?")
    ap.add_argument("change_bin", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent_bin and args.change_bin and args.workload and
            args.out) or args.pairs < 1:
        ap.error("give PARENT_BIN CHANGE_BIN --workload W --out DIR "
                 "and --pairs >= 1")
    return ab(pathlib.Path(args.parent_bin), pathlib.Path(args.change_bin),
              args.workload, args.pairs, args.seconds,
              pathlib.Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
