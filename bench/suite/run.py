#!/usr/bin/env python3
"""Build wfd_bench from source and run one workload, or smoke-test them all.

Run one measurement (from the repository root):

    python3 bench/suite/run.py --workload sim --seed 1 --seconds 25 --trace 0

This configures the repository root into .bench_build/suite, with
bench/suite added by root_hook.cmake, and builds only the wfd_bench target
(a no-op when it is up to date). It runs wfd_bench, keeps its --json
document (and with --trace 1 its Chrome trace) under
.bench_build/results/, and prints as its
last stdout line the result object: correct, attempted, failed, and the
end-to-end (--trace 0) or per-layer (--trace 1) metrics of BENCHMARK.json.
Build and benchmark chatter goes to stderr. Exits non-zero, printing no
result, if the sources are missing, the build fails, or wfd_bench fails.

Smoke test (the bench.suite_smoke ctest entry):

    python3 bench/suite/run.py --smoke --bin PATH/wfd_bench --out DIR

runs every workload once with --quick and once with --quick --trace and
fails on any failed operation and on any metric BENCHMARK.json lists that
is missing, has another unit than wfd_bench --list gives it, is zero end
to end, or is a per-layer time that no workload measured.
"""

import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / ".bench_build" / "suite"
RESULTS = ROOT / ".bench_build" / "results"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"
TIME_UNITS = ("ns", "us", "ms", "s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build wfd_bench; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file():
        log(f"run.py: no repository build at {ROOT}")
        return None
    if not (BUILD / "CMakeCache.txt").is_file():
        # The root's own build type and flags, nothing set here.
        cmd = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
               f"-DCMAKE_PROJECT_INCLUDE={SUITE / 'root_hook.cmake'}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(BUILD), "--target", "wfd_bench",
           "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    # Where root_hook.cmake puts it, or bench/CMakeLists.txt once it adds
    # this directory itself.
    for binary in (BUILD / "wfd_bench", BUILD / "bench" / "suite" / "wfd_bench"):
        if binary.is_file():
            return binary
    return None


def run_bench(binary, args):
    """Run wfd_bench; returns (exit code, parsed last stdout line or None)."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: wfd_bench exceeded {RUN_TIMEOUT_S}s")
        return 1, None
    lines = proc.stdout.splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n" + proc.stderr)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None
    return 0, result


def measure(args):
    binary = build()
    if binary is None:
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(RESULTS / f"{stem}.json")]
    if args.trace:
        cmd += ["--trace", str(RESULTS / f"{stem}.trace.json")]
    code, result = run_bench(binary, cmd)
    if code != 0 or result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return 0


def catalog(binary):
    """name -> (unit, scope) from `wfd_bench --list`."""
    out = subprocess.run([str(binary), "--list"], capture_output=True,
                         text=True, check=True).stdout
    cat = {}
    for line in out.splitlines():
        name, unit, _better, scope = line.split()
        cat[name] = (unit, scope)
    return cat


def smoke(args):
    bench = load_benchmark()
    cat = catalog(args.bin)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problems = []
    # Per-layer times no workload measured (a layer a workload bypasses
    # reports zero, but every timed layer is used by some workload).
    untimed = {m["name"] for m in bench["per_layer"] if m["unit"] in TIME_UNITS}
    for scope in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in bench[scope]}
        offered = {n: u for n, (u, s) in cat.items() if s == scope}
        if listed != offered:
            problems.append(f"{scope}: BENCHMARK.json and wfd_bench --list "
                            f"differ on {sorted(set(listed.items()) ^ set(offered.items()))}")
    for w in (x["name"] for x in bench["workloads"]):
        for traced in (False, True):
            scope = "per_layer" if traced else "end_to_end"
            cmd = ["--workload", w, "--seed", "1", "--quick",
                   "--json", str(out / f"{w}-{scope}.json")]
            if traced:
                trace = out / f"{w}.trace.json"
                cmd += ["--trace", str(trace)]
            code, result = run_bench(args.bin, cmd)
            tag = f"{w} ({scope})"
            if result is None:
                problems.append(f"{tag}: wfd_bench exited {code}")
                continue
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} failed ops")
            for m in bench[scope]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing")
                    continue
                v = got["value"]
                if not math.isfinite(v) or v < 0 or (
                        scope == "end_to_end" and v == 0):
                    problems.append(f"{tag}: metric {m['name']} = {v}")
                if v > 0:
                    untimed.discard(m["name"])
            if traced:
                with open(trace, encoding="utf-8") as f:
                    if not json.load(f)["traceEvents"]:
                        problems.append(f"{tag}: empty trace")
            log(f"smoke: {tag} ok" if not problems else f"smoke: {tag} done")
    problems += [f"per-layer time {name} is zero on every workload"
                 for name in sorted(untimed)]
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print(f"smoke: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="wfd_bench binary (--smoke)")
    ap.add_argument("--out", help="output directory (--smoke)")
    args = ap.parse_args()
    if args.smoke:
        if not args.bin or not args.out:
            ap.error("--smoke needs --bin and --out")
        return smoke(args)
    if not (ROOT / "BENCHMARK.json").is_file():
        log("run.py: BENCHMARK.json not found")
        return 2
    names = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
