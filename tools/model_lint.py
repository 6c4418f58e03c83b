#!/usr/bin/env python3
"""Model lint: static pass banning determinism- and model-breaking constructs.

The simulator's experiment conclusions (EXPERIMENTS.md) require that runs
are pure functions of their configuration and that algorithm code touches
shared state only through the Env/atomic-step machinery (docs/MODEL.md,
docs/ANALYSIS.md). This lint scans the algorithm-facing sources —
src/core, src/fd, src/memory — for constructs that silently break those
guarantees:

  libc-rand          rand()/srand()/rand_r(): unseeded process-global RNG
  random-device      std::random_device: nondeterministic entropy source
  wall-clock-time    time(...)/clock(): ambient wall-clock state
  chrono-clock-now   std::chrono::*_clock::now(): ambient wall-clock state
  unordered-iter     std::unordered_{map,set,...}: address/seed-dependent
                     iteration order can leak into traces and schedules
  direct-world       env.world()/.objects() use outside src/sim: shared
                     state must flow through Env's atomic-step awaitables
                     (the step auditor enforces this dynamically; the lint
                     catches it before the code ever runs)
  fp-mutation        injectCrash(...) or serveScan(...) outside src/sim:
                     the failure pattern and the views scans return are
                     environment state; only the simulator (and its chaos
                     engine, which enforces the legality contract in
                     docs/CHAOS.md) may crash a process or serve a stale
                     view mid-run
  global-mutable     non-const namespace-scope state in src/ (including
                     src/sim): the batch runner (sim/batch.h) executes
                     runs on concurrent worker threads, and the
                     no-shared-state determinism contract in
                     docs/PARALLEL.md only holds while every piece of
                     mutable state is owned by a Run or guarded by a lock
  hot-path-alloc     ProcSet::members() / .at() in the scheduler and the
                     schedule policies (src/sim/scheduler.{h,cc}): the
                     per-step hot path is allocation-free by contract
                     (docs/PERF.md) — select pids with nth/nextAbove/
                     iterators and index slots with asserted operator[];
                     and std::set / std::map in the algorithm-side step
                     path (src/memory/snapshot_afek.cc,
                     src/core/kconverge.cc), where a node per element
                     was a heap allocation per call: sort and dedup a
                     vector instead; and std::unordered_set /
                     std::unordered_map in the explorer's DFS walk
                     (src/sim/explore.cc), whose memo is probed once or
                     twice per executed step, and in the object table
                     (src/sim/object_table.{h,cc}), whose key index is
                     probed at about the step rate and filled once per
                     fresh World: use a flat open-addressed table
                     (sim/digest_set.h, ObjectTable's index) or a vector;
                     and raw operator new / operator delete in
                     src/common/reg_val.cc, where every tuple and
                     snapshot cell array is a block: take blocks from
                     FramePool (common/frame_pool.h); and, on the per-run
                     path, Trace::ofKind copies, ProcSet::members() and
                     std::set / std::map in the run checkers
                     (src/core/checkers.cc), which check every sim run
                     and read its events in place, and
                     mem::distinctValues vectors in k-converge
                     (src/core/kconverge.cc), which fills a stack
                     buffer
  nondet-iteration   range-for over a std::unordered_{map,set,...} in ALL
                     of src/ (including src/sim, where merely owning an
                     unordered container is legal, e.g. sim/report_cache):
                     iterating one visits elements in address/seed order,
                     which leaks nondeterminism the moment any loop effect
                     reaches a trace, a digest, or an eviction choice
  ipc-primitive      fork/exec*/socket/pipe anywhere in src/, bench/ or
                     examples/: campaigns run in one process
                     (docs/PARALLEL.md), and these primitives would fork
                     live worker threads mid-flight, duplicate file
                     descriptors, and break the single-address-space
                     assumptions the batch runner's determinism contract
                     rests on
  step-drive         Scheduler::step calls, and calls of its two halves
                     Scheduler::execute / Scheduler::resume, in src/
                     outside the scheduler and the explorer's DFS stepping:
                     Scheduler::run is the one policy-driven step loop;
                     drive a run through it with a StepObserver
                     (sim/scheduler.h) instead of hand-writing another
                     copy of the loop. World::execute (two arguments) and
                     a coroutine handle's resume() (none) do not match
  thread-spawn       std::thread / std::jthread objects in src/ outside
                     src/sim/steal_pool.*: runPool (sim/steal_pool.h) is
                     the one place that starts worker threads; hand jobs
                     to it instead of hand-writing another pool
                     (std::thread::hardware_concurrency stays legal)
  text-codec         std::istringstream / std::ostringstream /
                     std::stringstream in src/sim: durable and wire
                     records go through ByteWriter/ByteReader
                     (sim/codec.h), which check bounds and latch
                     failures, while a text parser silently accepts a
                     partial line
  scan-copy          std::vector<RegVal> in src/sim/ops.h and
                     src/sim/world.cc: a scan result is a SlotArray that
                     shares the scanned object's cells
                     (common/slot_array.h), so a vector there would copy
                     every cell of every scan again
  atomic-share       std::shared_ptr / std::make_shared in the payloads a
                     run copies on every step (src/common/reg_val.{h,cc},
                     src/common/slot_array.h, src/sim/trace.h) and in the
                     scheduler's result log (src/sim/scheduler.{h,cc}):
                     once a second thread exists, libstdc++ counts
                     shared_ptr holders with locked read-modify-writes.
                     These values stay on their run's thread, so they
                     count holders with a plain integer (a CellBlock,
                     common/reg_val.h, or a LocalPtr, common/local_ptr.h)
  one-mix            the mix round's multiplier literal 0xFF51AFD7ED558CCD
                     anywhere in src/ but its one definition
                     (wfd::mixDigest, src/common/types.h): every trace
                     hash, digest and stored key folds that round, so a
                     second copy could drift from the pinned one unseen;
                     call mixDigest instead (tests/ keep an independent
                     reference copy on purpose)

The harness-facing trees bench/ and examples/ are linted too: their runs
feed EXPERIMENTS.md rows and documentation, so the same determinism rules
bind (wall-clock timing benches annotate the measurement lines with
`model-lint-allow`).

Run as a ctest test (tools.model_lint). `--self-test` proves every rule
fires on a violating snippet and stays silent on clean code.
"""

import argparse
import pathlib
import re
import sys

# Directories whose sources the model rules bind (relative to --root).
# src/sim itself is exempt from the algorithm-facing rules: it IS the
# machinery those rules protect. The thread-safety rule (global-mutable)
# scopes differently — src/ only, but *including* src/sim, since worker
# threads execute the simulator itself concurrently.
LINTED_DIRS = ["src/core", "src/fd", "src/memory", "bench", "examples"]
THREAD_SAFETY_DIRS = ["src/core", "src/fd", "src/memory", "src/sim"]
# Scope entries may also name individual FILES: the hot-path rule binds
# exactly the scheduler + policy translation units, not all of src/sim
# (cold sim code legitimately uses members()/at()).
HOT_PATH_FILES = ["src/sim/scheduler.cc", "src/sim/scheduler.h"]
# The algorithm side of every Fig. 1/2 and service step: the snapshot
# helpers and k-converge run once or more per simulated step.
ALGO_HOT_PATH_FILES = ["src/memory/snapshot_afek.cc", "src/core/kconverge.cc"]
# The explorer's DFS walk: it probes the kDag memo once or twice per
# executed step and keeps one checkpoint per depth.
EXPLORE_HOT_PATH_FILES = ["src/sim/explore.cc"]
# The object table's key index: every native snapshot op resolves a key,
# and the service names ~65 objects into a fresh World per segment.
OBJECT_TABLE_FILES = ["src/sim/object_table.h", "src/sim/object_table.cc"]
# Cell blocks: a tuple per snapshot update, a cell array per copy.
CELL_BLOCK_FILES = ["src/common/reg_val.cc"]
# The per-run path: the checkers judge every sim run, and k-converge
# builds a distinct-value set on every call.
CHECKER_FILES = ["src/core/checkers.cc"]
KCONVERGE_FILES = ["src/core/kconverge.cc"]
HOT_PATH_WHY = (
    "the per-step hot path is allocation-lean by contract (docs/PERF.md): "
    "in the scheduler/policies select pids with ProcSet::nth/nextAbove/"
    "iterators instead of members(), and index slot vectors with asserted "
    "operator[] instead of .at(); in the snapshot helpers and k-converge "
    "sort and dedup a std::vector instead of building a node-based "
    "std::set/std::map; in the explorer's walk keep search state flat "
    "(the memo is a sim/digest_set.h DigestSet), not in a node-based "
    "std::unordered_set/std::unordered_map, and so is the object table's "
    "key index; CellBlocks come from FramePool (common/frame_pool.h), "
    "not from raw operator new/delete; the run checkers scan "
    "trace().events() in place with ProcSet iteration and fixed arrays, "
    "and k-converge collects its distinct values into a stack buffer "
    "(mem::distinctValuesInto)"
)
ONE_MIX_WHY = (
    "every trace hash, digest and stored key folds one mix round, defined "
    "once as wfd::mixDigest (common/types.h): call it instead of copying "
    "the round, so no second copy can drift from the pinned one"
)
# The iteration rule binds the whole library tree: unlike declaring an
# unordered container (legal in src/sim), ITERATING one is nondeterministic
# everywhere.
ALL_SRC_DIRS = ["src"]
# The IPC rule binds the library AND the harness trees, with no exemption.
IPC_DIRS = ["src", "bench", "examples"]
# The step-drive rule binds src/ minus the loop itself and the explorer,
# whose DFS steps one chosen transition at a time.
STEP_DRIVE_EXCLUDES = ["src/sim/scheduler.cc", "src/sim/explore.cc"]
# The thread-spawn rule binds src/ minus the one work-stealing pool.
THREAD_SPAWN_EXCLUDES = ["src/sim/steal_pool.h", "src/sim/steal_pool.cc"]
# The text-codec rule binds the simulator, whose records (store payloads,
# certificates) all go through the byte codec.
TEXT_CODEC_DIRS = ["src/sim"]
# The scan-copy rule binds the files a scan result is made and typed in.
SCAN_VIEW_FILES = ["src/sim/ops.h", "src/sim/world.cc"]
# The atomic-share rule binds the single-thread payloads and the result
# log. FailurePattern (sim/world.h) keeps its shared_ptr: a checkpoint's
# pattern is immutable and may cross threads.
SINGLE_THREAD_SHARE_FILES = [
    "src/common/reg_val.h",
    "src/common/reg_val.cc",
    "src/common/slot_array.h",
    "src/sim/trace.h",
    "src/sim/scheduler.h",
    "src/sim/scheduler.cc",
]

# The one-mix rule binds src/; the round's one home may hold the literal
# once.
MIX_HOME = ["src/common/types.h"]
MIX_MULTIPLIER_RX = re.compile(r"\b0x0*FF51AFD7ED558CCD", re.IGNORECASE)


def find_extra_mix_rounds(stripped: str):
    """Line numbers of every mix-multiplier literal after the first."""
    hits = [
        lineno
        for lineno, line in enumerate(stripped.splitlines(), start=1)
        for _ in MIX_MULTIPLIER_RX.finditer(line)
    ]
    return set(hits[1:])


UNORDERED_DECL_RX = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*&?\s*(\w+)\s*[;={(]"
)
RANGE_FOR_RX = re.compile(r"\bfor\s*\([^;()]*:([^)]+)\)")


def find_nondet_iteration(stripped: str):
    """Line numbers of range-for loops over unordered containers.

    File-wide two-pass matcher (not a line regex): first collect the names
    of variables/members declared with an unordered container type, then
    flag any range-for whose range expression names one of them — or spells
    an unordered type inline (a temporary, a cast, a fully-typed member).
    Name matching is per-file and purely textual, so a same-named ordered
    container in another file never false-positives here.
    """
    names = set(UNORDERED_DECL_RX.findall(stripped))
    hits = set()
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        m = RANGE_FOR_RX.search(line)
        if not m:
            continue
        expr = m.group(1)
        if "unordered_" in expr or names.intersection(re.findall(r"\w+", expr)):
            hits.add(lineno)
    return hits


# (rule-name, matcher, explanation[, dirs[, excludes]]) — rules without
# an explicit dirs entry bind LINTED_DIRS; `excludes` names path prefixes
# inside those dirs the rule does NOT bind (e.g. the pool exemption of
# thread-spawn). A matcher is either a compiled line regex or a callable
# taking the comment/string-stripped file text and returning the set of
# violating line numbers (for rules needing file-wide state).
RULES = [
    (
        "libc-rand",
        # The lookbehind exempts qualified/member calls such as the seeded
        # FailurePattern::random(...) factory: the rule targets the libc
        # process-global functions only.
        re.compile(r"(?<![\w:.>])(?:rand|srand|rand_r|random|srandom)\s*\("),
        "libc RNG is process-global and unseeded per run; use common/rng.h "
        "(seeded xoshiro) or hashedUniform",
    ),
    (
        "random-device",
        re.compile(r"std::random_device"),
        "std::random_device is a nondeterministic entropy source; runs must "
        "be pure functions of their seed",
    ),
    (
        "wall-clock-time",
        re.compile(r"\b(?:time|clock|gettimeofday|clock_gettime)\s*\(\s*(?:NULL|nullptr|0|&|\))"),
        "ambient wall-clock state; simulated logical time is World::now()",
    ),
    (
        "chrono-clock-now",
        re.compile(
            r"std::chrono::\w*clock::now|\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now"
        ),
        "ambient wall-clock state; simulated logical time is World::now()",
    ),
    (
        "wall-clock-type",
        # Any MENTION of a wall-clock type anywhere in src/ — not just
        # ::now() calls. `using Clock = std::chrono::steady_clock;` would
        # dodge the chrono-clock-now regex while smuggling ambient time
        # into simulation code; with the net substrate (src/sim/net) every
        # timer must be driven by the simulated clock, so the types
        # themselves are banned in the library. Host-side instrumentation
        # (worker busy-time in sim/batch.cc) opts out per line with a
        # model-lint-allow annotation.
        re.compile(r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"),
        "wall-clock types are banned in the library: all time must come "
        "from the simulated clock (World::now(), heartbeat ticks); "
        "host-side measurement code must annotate with model-lint-allow",
        ALL_SRC_DIRS,
    ),
    (
        "unordered-iter",
        re.compile(r"std::unordered_(?:map|set|multimap|multiset)"),
        "iteration order of unordered containers is address/seed dependent "
        "and can leak nondeterminism into traces; use std::map/std::set",
    ),
    (
        "direct-world",
        re.compile(r"(?:\.|->)\s*world\s*\(\s*\)|(?:\.|->)\s*objects\s*\(\s*\)"),
        "algorithm code must reach shared state through Env's atomic-step "
        "awaitables, never through World/ObjectTable directly (keeps step "
        "accounting honest; audited dynamically by sim/step_audit.h)",
    ),
    (
        "fp-mutation",
        re.compile(r"\b(?:injectCrash|serveScan)\s*\("),
        "the failure pattern and the views scans return are environment "
        "state: only src/sim (the scheduler and the chaos engine, which "
        "enforces the legality contract in docs/CHAOS.md) may crash "
        "processes or serve stale views mid-run; workloads describe "
        "crashes up front via FailurePattern factories",
    ),
    (
        "global-mutable",
        # Column-0 declarations introduced by static/inline/thread_local
        # that are not const/constexpr and are not functions (no parens on
        # the declarator line) nor operator definitions. Namespace-scope
        # code in this repo sits at column 0, so the anchor scopes the
        # rule to globals without tripping on function-local statics or
        # class members. Bare `int g_x = 0;` globals are out of reach of a
        # line regex (indistinguishable from locals) — keyword-introduced
        # globals are the idiom this tree actually uses.
        re.compile(
            r"^(?:static|inline|thread_local)(?:\s+(?:static|inline|thread_local))*"
            r"\s+(?!const\b|constexpr\b)(?!.*\boperator)[^()\n]*[=;]"
        ),
        "non-const namespace-scope state is shared across the batch "
        "runner's worker threads (sim/batch.h); keep mutable state owned "
        "by a Run or behind an explicit lock (docs/PARALLEL.md)",
        THREAD_SAFETY_DIRS,
    ),
    (
        "hot-path-alloc",
        # members() materializes a heap vector per call; .at() adds a
        # bounds-throw on paths that run once per simulated step.
        re.compile(r"\.\s*members\s*\(|\.\s*at\s*\("),
        HOT_PATH_WHY,
        HOT_PATH_FILES,
    ),
    (
        # Same rule, algorithm side: one heap node per element per call.
        "hot-path-alloc",
        re.compile(r"std::(?:set|map|multiset|multimap)\b"),
        HOT_PATH_WHY,
        ALGO_HOT_PATH_FILES,
    ),
    (
        # Same rule, explorer and naming side: one heap node per memoized
        # state or named object.
        "hot-path-alloc",
        re.compile(r"std::unordered_(?:set|map)\b"),
        HOT_PATH_WHY,
        EXPLORE_HOT_PATH_FILES + OBJECT_TABLE_FILES,
    ),
    (
        # Same rule, cell side: a general-heap block per tuple.
        "hot-path-alloc",
        re.compile(r"\boperator\s+(?:new|delete)\b"),
        HOT_PATH_WHY,
        CELL_BLOCK_FILES,
    ),
    (
        # Same rule, per-run side: an event-vector copy, a pid vector or a
        # node per element for every checked run.
        "hot-path-alloc",
        re.compile(
            r"\bofKind\s*\(|\.\s*members\s*\("
            r"|std::(?:set|map|multiset|multimap)\b"
        ),
        HOT_PATH_WHY,
        CHECKER_FILES,
    ),
    (
        # Same rule, k-converge: a value vector per call.
        "hot-path-alloc",
        re.compile(r"\bdistinctValues\s*\("),
        HOT_PATH_WHY,
        KCONVERGE_FILES,
    ),
    (
        "nondet-iteration",
        find_nondet_iteration,
        "range-for over an unordered container visits elements in "
        "address/seed-dependent order; iterate a std::map/std::set, or "
        "keep an ordered side index of the keys (sim/report_cache.h "
        "pairs its unordered map with an explicit LRU list for exactly "
        "this reason)",
        ALL_SRC_DIRS,
    ),
    (
        "ipc-primitive",
        # Call-position only; the leading guard blocks member access
        # (obj.fork(...)) but deliberately lets `::fork(` through — the
        # globally qualified spelling must not be an evasion.
        re.compile(
            r"(?<![\w.>])(?:fork|vfork|execl|execle|execlp|execv|execve|"
            r"execvp|execvpe|posix_spawn|posix_spawnp|socket|socketpair|"
            r"pipe|pipe2)\s*\("
        ),
        "campaigns run in one process (docs/PARALLEL.md): fork() "
        "duplicates live worker threads and file descriptors mid-run; "
        "shard work across threads with BatchRunner (sim/batch.h) instead",
        IPC_DIRS,
    ),
    (
        "step-drive",
        # Any .step( call, and one-argument .execute(p) / .resume(p) calls:
        # the scheduler's step halves, not World::execute(p, op) or a
        # coroutine handle's resume().
        re.compile(
            r"(?:\.|->)\s*(?:step\s*\("
            r"|(?:execute|resume)\s*\((?:[^(),]|\([^()]*\))+\))"
        ),
        "Scheduler::run is the one policy-driven step loop (its hooks: "
        "StepObserver in sim/scheduler.h); drive runs through it instead "
        "of calling Scheduler::step, or its halves Scheduler::execute and "
        "Scheduler::resume, in another hand-written loop",
        ALL_SRC_DIRS,
        STEP_DRIVE_EXCLUDES,
    ),
    (
        "thread-spawn",
        # A thread object, not a static member: std::thread::... (e.g.
        # hardware_concurrency) is a query, not a spawn.
        re.compile(r"\bstd::j?thread\b(?!\s*::)"),
        "runPool (sim/steal_pool.h) is the one place in src/ that starts "
        "worker threads; hand it the jobs instead of spawning std::thread/"
        "std::jthread in another hand-written pool",
        ALL_SRC_DIRS,
        THREAD_SPAWN_EXCLUDES,
    ),
    (
        "text-codec",
        re.compile(r"\bstd::[io]?stringstream\b"),
        "durable and wire records go through ByteWriter/ByteReader "
        "(sim/codec.h), which check bounds and latch failures; a "
        "text parser silently accepts a partial line",
        TEXT_CODEC_DIRS,
    ),
    (
        "scan-copy",
        re.compile(r"std::vector\s*<\s*(?:wfd::)?RegVal\s*>"),
        "a scan result is a SlotArray that shares the object's cells "
        "(common/slot_array.h): a std::vector<RegVal> here copies every "
        "cell of every scan, once per step and again per result-log node",
        SCAN_VIEW_FILES,
    ),
    (
        "atomic-share",
        re.compile(r"\bstd::(?:shared_ptr|make_shared)\b"),
        "a run's tuples, cells, trace events and result log stay on its "
        "thread, and std::shared_ptr pays a locked read-modify-write per "
        "copy once a second thread exists: count holders with a CellBlock "
        "(common/reg_val.h) or a LocalPtr (common/local_ptr.h)",
        SINGLE_THREAD_SHARE_FILES,
    ),
    (
        "one-mix",
        MIX_MULTIPLIER_RX,
        ONE_MIX_WHY,
        ALL_SRC_DIRS,
        MIX_HOME,
    ),
    (
        # Same rule, at the definition's home: one literal, not two.
        "one-mix",
        find_extra_mix_rounds,
        ONE_MIX_WHY,
        MIX_HOME,
    ),
]


def rule_dirs(rule):
    """Paths a rule binds (dirs or files): 4th element, else LINTED_DIRS."""
    return rule[3] if len(rule) > 3 else LINTED_DIRS


def rule_excludes(rule):
    """Path prefixes exempt from a rule: 5th element, else none."""
    return rule[4] if len(rule) > 4 else []


EXTENSIONS = {".h", ".cc"}


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Keeps line numbers stable so findings point at real source lines, and
    prevents prose in comments ("crash times", "the clock") from tripping
    token rules.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            seg = text[i : (n if j == -1 else j + 2)]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = n if j == -1 else j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            i += 1  # closing quote
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scan_text(text: str, path: str, rules=None):
    """Return [(path, line_no, rule, line_text)] for one file's contents."""
    findings = []
    stripped = strip_comments_and_strings(text)
    lines = text.splitlines()
    active = RULES if rules is None else rules
    # File-wide matchers run once per file up front; their hits merge into
    # the per-line loop so model-lint-allow suppression applies uniformly.
    filewide_hits = {
        rule[0]: rule[1](stripped) for rule in active if callable(rule[1])
    }
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if "model-lint-allow" in (lines[lineno - 1] if lineno <= len(lines) else ""):
            continue
        for rule in active:
            name, matcher = rule[0], rule[1]
            hit = (
                lineno in filewide_hits[name]
                if callable(matcher)
                else matcher.search(line)
            )
            if hit:
                src = lines[lineno - 1].strip() if lineno <= len(lines) else ""
                findings.append((path, lineno, name, src))
    return findings


def binds(prefix: str, rel: str) -> bool:
    """Whether a dir/file scope entry covers the repo-relative path rel."""
    return rel == prefix or rel.startswith(prefix.rstrip("/") + "/")


def rules_for(rel: str):
    """The rules that bind one repo-relative file path."""
    return [
        r
        for r in RULES
        if any(binds(d, rel) for d in rule_dirs(r))
        and not any(binds(e, rel) for e in rule_excludes(r))
    ]


def all_linted_dirs():
    """Ordered union of every rule's directory scope."""
    seen = []
    for rule in RULES:
        for d in rule_dirs(rule):
            if d not in seen:
                seen.append(d)
    return seen


def scan_tree(root: pathlib.Path):
    findings = []
    files = 0
    for d in all_linted_dirs():
        rules = [r for r in RULES if d in rule_dirs(r)]
        base = root / d
        if base.is_file():
            paths = [base]  # file-scoped rule (e.g. hot-path-alloc)
        elif base.is_dir():
            paths = [
                p
                for p in sorted(base.rglob("*"))
                if p.suffix in EXTENSIONS and p.is_file()
            ]
        else:
            print(f"model_lint: missing path {base}", file=sys.stderr)
            return None, 0
        for p in paths:
            files += 1
            rel = str(p.relative_to(root))
            active = [
                r
                for r in rules
                if not any(binds(e, rel) for e in rule_excludes(r))
            ]
            findings.extend(scan_text(p.read_text(encoding="utf-8"), rel, active))
    return findings, files


# --- self test: every rule must fire on its violating snippet ------------

VIOLATING_SNIPPETS = {
    "libc-rand": "int pick() { return rand() % 7; }\n",
    "random-device": "std::random_device rd;\nauto s = rd();\n",
    "wall-clock-time": "long stamp() { return time(nullptr); }\n",
    "chrono-clock-now": "auto t0 = std::chrono::steady_clock::now();\n",
    "wall-clock-type": "using Clock = std::chrono::steady_clock;\n",
    "unordered-iter": "std::unordered_map<int, int> seen;\n",
    "direct-world": "void rogue(Env& env) { env.world()->objects(); }\n",
    "fp-mutation": "void rogue(World& w) { w.injectCrash(2); }\n",
    "global-mutable": "static int g_hits = 0;\n",
    "hot-path-alloc": "Pid pick(const ProcSet& r) { return r.members()[0]; }\n",
    "nondet-iteration": (
        "std::unordered_map<std::uint64_t, Entry> cache_;\n"
        "void dump() { for (const auto& [k, v] : cache_) use(k, v); }\n"
    ),
    "ipc-primitive": (
        "int fds[2];\n"
        "int rogue() { if (::fork() == 0) _exit(0); return pipe(fds); }\n"
    ),
    "step-drive": (
        "void rogue(Run& run, Pid p) {\n"
        "  while (!run.scheduler().allCorrectDone()) run.scheduler().step(p);\n"
        "}\n"
    ),
    "thread-spawn": (
        "std::vector<std::thread> threads;\n"
        "for (int k = 0; k < w; ++k) threads.emplace_back([&body, k] { body(k); });\n"
    ),
    "text-codec": (
        "std::vector<std::uint64_t> decodeSigs(const std::string& line) {\n"
        "  std::vector<std::uint64_t> sigs;\n"
        "  std::istringstream is(line);\n"
        "  std::uint64_t sig = 0;\n"
        "  while (is >> std::hex >> sig) sigs.push_back(sig);\n"
        "  return sigs;\n"
        "}\n"
    ),
    "scan-copy": (
        "struct OpResult {\n"
        "  RegVal scalar;\n"
        "  std::vector<RegVal> snapshot;\n"
        "};\n"
    ),
    # The tuple payload as RegVal held it before it had a block of its own.
    "atomic-share": (
        "struct Tuple {\n"
        "  std::shared_ptr<const RegVal[]> elems;\n"
        "  std::size_t size = 0;\n"
        "};\n"
    ),
    # Trace's private copy of the mix round, before the one definition.
    "one-mix": (
        "  static std::uint64_t mix(std::uint64_t h, std::uint64_t x) {\n"
        "    h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);\n"
        "    h *= 0xFF51AFD7ED558CCDULL;\n"
        "    h ^= h >> 33;\n"
        "    return h;\n"
        "  }\n"
    ),
}

CLEAN_SNIPPET = """\
// A legal algorithm fragment: seeded rng, logical time, ordered maps.
// Mentions of rand(), time() and world() in comments must not fire.
#include <map>
inline constexpr int kRounds = 3;            // constexpr global: immutable
static const char* kName = "fig1";           // const global: immutable
inline bool operator!=(const RegVal& a, const RegVal& b) { return !(a == b); }
static int helper(int x);                    // function decl, not state
Coro<Unit> algo(Env& env, Value v) {
  static const auto kTable = std::map<int, int>{};  // local const static
  const ObjId r = env.reg(ObjKey{"D", 0});
  co_await env.write(r, RegVal(v));           // one op per step
  const auto res = co_await env.read(r);
  std::map<int, int> ordered;                 // deterministic iteration
  for (const auto& [k, val] : ordered) use(k, val);  // ordered: legal
  const auto fp = FailurePattern::random(4, 2, 60, 7);  // seeded factory
  const char* s = "call rand() at time(0) on world()";  // string, not code
  env.decide(res.scalar.asInt());
  co_return Unit{};
}
"""


def self_test() -> int:
    failures = 0
    for rule, snippet in VIOLATING_SNIPPETS.items():
        found = {r for (_p, _l, r, _s) in scan_text(snippet, "<snippet>")}
        if rule not in found:
            print(f"self-test FAIL: rule {rule} did not fire on its snippet")
            failures += 1
        else:
            print(f"self-test ok: {rule} fires")
    # Scoped rules: the std::set/std::map half of hot-path-alloc binds the
    # algorithm-side step files only, so the same text is legal elsewhere.
    ordered = "std::vector<Value> f(const View& v) {\n  std::set<Value> s;\n"
    for rel, fires in (
        ("src/core/kconverge.cc", True),
        ("src/memory/snapshot_afek.cc", True),
        ("src/core/checkers.cc", True),
        ("src/core/adversary.cc", False),
        ("src/sim/runner.cc", False),
    ):
        hits = scan_text(ordered, rel, rules_for(rel))
        found = {r for (_p, _l, r, _s) in hits}
        if ("hot-path-alloc" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: hot-path-alloc {verb} on std::set in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: hot-path-alloc {verb} on std::set in {rel}")
    # The explorer half binds src/sim/explore.cc, and the naming half the
    # object table: the node-based memo the walk once declared and the
    # table's former key index fire there, the files as they stand are
    # clean, and the report cache may keep its unordered map. The cell
    # half binds reg_val.cc: its former CellBlock::allocate fires there
    # and nowhere else (the block pool itself calls operator new).
    repo = pathlib.Path(__file__).resolve().parent.parent
    node_memo = "std::unordered_set<std::uint64_t> memo;\n"
    node_index = "  std::unordered_map<ObjKey, ObjId, ObjKeyHash> ids_;\n"
    heap_cells = (
        "CellBlock* CellBlock::allocate(std::size_t n) {\n"
        "  void* p = ::operator new(sizeof(CellBlock) + n * sizeof(RegVal));\n"
        "  return ::new (p) CellBlock(n);\n"
        "}\n"
    )
    # The per-run half binds the checkers (the event copy and pid vector
    # the agreement checker once built) and k-converge (its former value
    # vector); the adversary and the Afek snapshot may keep theirs.
    event_copy = (
        "  for (const auto& e : rr.trace().ofKind(sim::EventKind::kDecide)) {\n"
    )
    pid_vector = "  for (Pid p : fp.correct().members()) {\n"
    count_map = "  std::map<Pid, int> decide_count;\n"
    value_vector = (
        "  const std::vector<Value> u = mem::distinctValues(sa);\n"
    )
    cases = [
        ("src/core/checkers.cc", event_copy, "an ofKind copy", True),
        ("src/core/adversary.cc", event_copy, "an ofKind copy", False),
        ("src/core/checkers.cc", pid_vector, "a members() vector", True),
        ("src/core/extraction.cc", pid_vector, "a members() vector", False),
        ("src/core/checkers.cc", count_map, "a std::map of counts", True),
        ("src/core/adversary.cc", count_map, "a std::map of counts", False),
        ("src/core/kconverge.cc", value_vector, "a distinctValues vector",
         True),
        ("src/core/ablations.cc", value_vector, "a distinctValues vector",
         False),
        ("src/sim/explore.cc", node_memo, "a node-based memo", True),
        ("src/sim/report_cache.h", node_memo, "a node-based memo", False),
        ("src/sim/object_table.h", node_index, "the node-based index", True),
        ("src/sim/object_table.cc", node_index, "the node-based index", True),
        ("src/common/reg_val.cc", heap_cells, "heap cell blocks", True),
        ("src/common/frame_pool.h", heap_cells, "heap cell blocks", False),
    ]
    for rel in ("src/sim/explore.cc", "src/sim/object_table.h",
                "src/sim/object_table.cc", "src/common/reg_val.cc",
                "src/core/checkers.cc", "src/core/kconverge.cc"):
        cases.append(
            (rel, (repo / rel).read_text(encoding="utf-8"), "the file", False))
    for rel, text, what, fires in cases:
        found = {r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))}
        if ("hot-path-alloc" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: hot-path-alloc {verb} on {what} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: hot-path-alloc {verb} on {what} in {rel}")
    # thread-spawn binds src/ minus the pool itself, and a
    # hardware_concurrency query is not a spawn.
    spawn = VIOLATING_SNIPPETS["thread-spawn"]
    hw = "unsigned hw = std::thread::hardware_concurrency();\n"
    for rel, text, fires in (
        ("src/sim/explore.cc", spawn, True),
        ("src/sim/steal_pool.cc", spawn, False),
        ("src/sim/steal_pool.h", spawn, False),
        ("src/sim/batch.cc", hw, False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))}
        if ("thread-spawn" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: thread-spawn {verb} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: thread-spawn {verb} in {rel}")
    # ipc-primitive binds all of src/ (src/sim included) and the harness
    # trees; tests/ stays free, since the store's two-writer test forks.
    fork = "pid_t child = fork();\n"
    for rel, fires in (
        ("src/sim/batch.cc", True),
        ("src/sim/store.cc", True),
        ("bench/bench_batch.cc", True),
        ("tests/persistent_store_test.cc", False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(fork, rel, rules_for(rel))}
        if ("ipc-primitive" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: ipc-primitive {verb} on fork( in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: ipc-primitive {verb} on fork( in {rel}")
    # step-drive also covers the two halves of a step, outside the two
    # exempt files, but not World::execute (two arguments) or a coroutine
    # handle's resume() (none).
    halves = (
        "void rogue(Scheduler& s, Pid p) {\n"
        "  s.execute(p);\n"
        "  s.resume(static_cast<Pid>(p));\n"
        "}\n"
    )
    for rel, text, want in (
        ("src/sim/batch.cc", halves, 2),
        ("src/sim/batch.cc", "void f(Run& run) { run.scheduler().resume(0); }\n", 1),
        ("src/sim/explore.cc", halves, 0),
        ("src/sim/scheduler.cc", halves, 0),
        ("src/sim/batch.cc", "OpResult r = w->execute(p, *ctx.pending);\n", 0),
        ("src/sim/batch.cc", "void f(std::coroutine_handle<> h) { h.resume(); }\n", 0),
    ):
        hits = [r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))
                if r == "step-drive"]
        what = f"{text.splitlines()[0]!r} in {rel}"
        if len(hits) != want:
            print(f"self-test FAIL: step-drive found {len(hits)} of {want} "
                  f"calls on {what}")
            failures += 1
        else:
            print(f"self-test ok: step-drive finds {want} call(s) on {what}")
    # fp-mutation covers a served scan view as it covers a crash, outside
    # src/sim only.
    served = "void rogue(World& w) { w.serveScan(0, 1, {}, {}); }\n"
    for rel, fires in (
        ("src/core/kconverge.cc", True),
        ("bench/bench_chaos.cc", True),
        ("src/sim/chaos.cc", False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(served, rel, rules_for(rel))}
        if ("fp-mutation" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: fp-mutation {verb} on serveScan( in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: fp-mutation {verb} on serveScan( in {rel}")
    # text-codec binds src/sim only, and the byte codec itself is clean.
    codec = VIOLATING_SNIPPETS["text-codec"]
    codec_cc = repo / "src/sim/codec.cc"
    for rel, text, fires in (
        ("src/sim/explore.cc", codec, True),
        ("src/sim/store.cc", codec, True),
        ("bench/bench_explore.cc", codec, False),
        ("src/sim/codec.cc", codec_cc.read_text(encoding="utf-8"), False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))}
        if ("text-codec" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: text-codec {verb} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: text-codec {verb} in {rel}")
    # scan-copy binds the two files scan results are made and typed in;
    # World's published outputs (world.h) stay a plain vector.
    copy = VIOLATING_SNIPPETS["scan-copy"]
    for rel, fires in (
        ("src/sim/ops.h", True),
        ("src/sim/world.cc", True),
        ("src/sim/world.h", False),
        ("src/memory/snapshot_afek.cc", False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(copy, rel, rules_for(rel))}
        if ("scan-copy" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: scan-copy {verb} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: scan-copy {verb} in {rel}")
    # atomic-share binds the single-thread payloads and the result log,
    # whose files as they stand are clean; World keeps the failure
    # pattern's shared_ptr.
    share = VIOLATING_SNIPPETS["atomic-share"]
    log = "using ResultLog = std::shared_ptr<const ResultNode>;\n"
    for rel, text, what, fires in (
        ("src/common/reg_val.h", share, "a shared_ptr tuple", True),
        ("src/common/slot_array.h", share, "a shared_ptr tuple", True),
        ("src/sim/trace.h", share, "a shared_ptr tuple", True),
        ("src/sim/scheduler.h", log, "a shared_ptr log", True),
        ("src/sim/scheduler.cc", log, "a shared_ptr log", True),
        ("src/sim/world.h", share, "a shared_ptr tuple", False),
        ("src/common/reg_val.h",
         (repo / "src/common/reg_val.h").read_text(encoding="utf-8"),
         "the file", False),
        ("src/sim/scheduler.h",
         (repo / "src/sim/scheduler.h").read_text(encoding="utf-8"),
         "the file", False),
    ):
        found = {r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))}
        if ("atomic-share" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: atomic-share {verb} on {what} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: atomic-share {verb} on {what} in {rel}")
    # one-mix binds src/: a copy of the round fires wherever it sits there
    # but in its home, which may hold the literal once and not twice; the
    # tests' reference copy is out of scope, and the files that once held
    # copies are clean.
    copy = VIOLATING_SNIPPETS["one-mix"]
    home = (repo / "src/common/types.h").read_text(encoding="utf-8")
    cases = [
        ("src/sim/trace.h", copy, "a copy of the round", True),
        ("src/sim/ops.h", copy, "a copy of the round", True),
        ("tests/golden_hash_test.cc", copy, "a copy of the round", False),
        ("src/common/types.h", home, "the file", False),
        ("src/common/types.h", home + copy, "a second copy", True),
    ]
    for rel in ("src/sim/trace.h", "src/sim/ops.h", "src/common/reg_val.h",
                "src/fd/failure_detector.h"):
        cases.append(
            (rel, (repo / rel).read_text(encoding="utf-8"), "the file", False))
    for rel, text, what, fires in cases:
        found = {r for (_p, _l, r, _s) in scan_text(text, rel, rules_for(rel))}
        if ("one-mix" in found) != fires:
            verb = "did not fire" if fires else "fired"
            print(f"self-test FAIL: one-mix {verb} on {what} in {rel}")
            failures += 1
        else:
            verb = "fires" if fires else "stays silent"
            print(f"self-test ok: one-mix {verb} on {what} in {rel}")
    # The clean snippet is algorithm code, so it is held to the rules that
    # bind an algorithm file (its std::map is legal there).
    clean = scan_text(CLEAN_SNIPPET, "<clean>", rules_for("src/core/algo.cc"))
    if clean:
        print(f"self-test FAIL: clean snippet produced findings: {clean}")
        failures += 1
    else:
        print("self-test ok: clean snippet produces no findings")
    allow = scan_text("int x = rand();  // model-lint-allow: test fixture\n", "<allow>")
    if allow:
        print("self-test FAIL: model-lint-allow suppression ignored")
        failures += 1
    else:
        print("self-test ok: model-lint-allow suppresses")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path, default=pathlib.Path("."),
                    help="repository root (contains src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on a violating snippet")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings, files = scan_tree(args.root.resolve())
    if findings is None:
        return 2
    why = dict((r[0], r[2]) for r in RULES)
    for path, lineno, rule, src in findings:
        print(f"{path}:{lineno}: [{rule}] {src}")
        print(f"    {why[rule]}")
    if findings:
        print(f"model_lint: {len(findings)} finding(s) in {files} files")
        return 1
    print(f"model_lint: clean ({files} files in {', '.join(all_linted_dirs())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
