"""framelat benchmark: whole CLI commands, end to end, with an optional per-function trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-replay --seed 1 --seconds 20 --trace 0

Process model: a closed loop with one client.  This process runs one CLI
command at a time, each in a fresh interpreter (``child.py``), the way users
run the CLI; no in-process memo can carry from one command to the next.  Each
command gets ``--format json --cache <dir>``, where the directory is a private
temp dir under ``perfbench/out``, so the repository's ``cache/`` is never read
or written.  Every output is checked (``checks.py``).

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``paper-replay``: ``verify-all`` (never ``--skip``: it would hide the known
  25x50 mismatch) then ``table1``, on a cache seeded with the committed
  ``cache/conference-25.json``.
* ``search-cold``: ``search k`` for k in 13, 21, 25, 27 on a cache dir emptied
  before every pass; 21 and 27 need ``--allow-unverified``.
* ``analyze-sweep``: ``analyze`` over selectors drawn from ``--seed`` (a new
  draw each pass), warm cache.

Set-up (untimed): a few import-only interpreters, the cache seeding, and for the
warm-cache workloads a warm-up that writes the k = 5/13 cache files.  Then
passes run while the next one is expected to end within ``--seconds`` (at
least one).  With ``--trace 1``
untraced and traced passes alternate; the end-to-end numbers always come from
untraced passes, the per-layer numbers from traced ones.

Output: a human-readable report, a result file with provenance under
``perfbench/out``, and as the last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import checks
from tracer import TARGETS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")
COMMITTED_CACHE_25 = os.path.join(ROOT, "cache", "conference-25.json")

IMPORT_PROBES = 5  # extra import-only interpreters per run, for setup_s
COMMAND_TIMEOUT_S = 150


class Command(NamedTuple):
    argv: tuple
    check: Callable[[int, str], None]


class Workload(NamedTuple):
    commands: Callable[[random.Random], list]
    warm_cache: bool  # seed conference-25.json and run WARM_UP
    reset_each_pass: bool  # empty the cache dir before every pass


def paper_replay(rng: random.Random) -> list:
    return [Command(("verify-all",), checks.check_verify_all),
            Command(("table1",), checks.check_table1)]


def search_cold(rng: random.Random) -> list:
    return [Command(("search", str(k), "--allow-unverified"), checks.search_checker(k, "search"))
            for k in (13, 21, 25, 27)]


def analyze_sweep(rng: random.Random) -> list:
    """The seeded draw: 2 x (25,50), 4 x (13,26), 1 x (5,10), 2 simplex, 2 explicit."""
    sel = []
    for k, pairs, count in ((25, 20, 2), (13, 12, 4), (5, 4, 1)):
        combos = [(i, v) for i in range(pairs) for v in ("plus", "minus")]
        sel += [f"conference:{k}:{i}:{v}" for i, v in rng.sample(combos, count)]
    # The second simplex size mirrors the first inside [8, 24], which keeps the
    # cost of the pair (steep in k) close to the same from seed to seed.
    k1 = rng.randint(8, 24)
    sel += [f"simplex:{k1}", f"simplex:{32 - k1}", "explicit:6x16", "explicit:7x28"]
    return [Command(("analyze", s), checks.analyze_checker(s)) for s in sel]


# Untimed warm-up of the warm-cache workloads.  These searches write the k = 5
# and k = 13 cache files, the only files a first pass would add to the seeded
# cache, so every timed pass reads the same warm cache.  A whole untimed pass
# would do the same at 10-12 s per run, time better spent on timed passes.
WARM_UP = (Command(("search", "5"), checks.search_checker(5, "search")),
           Command(("search", "13"), checks.search_checker(13, "search")))

WORKLOADS = {
    "paper-replay": Workload(paper_replay, warm_cache=True, reset_each_pass=False),
    "search-cold": Workload(search_cold, warm_cache=False, reset_each_pass=True),
    "analyze-sweep": Workload(analyze_sweep, warm_cache=True, reset_each_pass=False),
}


# --- running commands --------------------------------------------------------------


def run_child(argv: tuple, cache: str, trace: bool) -> dict:
    """Run one command (or, with no argv, only the import) in a fresh interpreter."""
    cmd = [sys.executable, CHILD, SRC, "1" if trace else "0"]
    if argv:
        cmd += [*argv, "--format", "json", "--cache", cache]
    proc = subprocess.run(cmd, cwd=os.path.dirname(cache), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    """Runs passes of one workload and keeps every sample and failure."""

    def __init__(self, cache: str):
        self.cache = cache
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []

    def run_command(self, command: Command, trace: bool) -> dict | None:
        self.attempted += 1
        try:
            rec = run_child(command.argv, self.cache, trace)
            self.setup_samples.append(rec["setup_s"])
            command.check(rec["code"], rec["stdout"])
        except (checks.CheckFailed, RuntimeError, subprocess.TimeoutExpired,
                ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{' '.join(command.argv)}: {type(exc).__name__}: {exc}")
            return None
        return rec

    def run_pass(self, commands: list, trace: bool, reset: bool) -> dict:
        if reset:
            for name in os.listdir(self.cache):
                os.remove(os.path.join(self.cache, name))
        records = [self.run_command(c, trace) for c in commands]
        ok = [r for r in records if r is not None]
        return {
            "trace": trace,
            "ok": len(ok) == len(records),
            "pass_s": sum(r["cmd_s"] for r in ok),
            "cmd_max_s": max((r["cmd_s"] for r in ok), default=0.0),
            "peak_rss_mib": max((r["maxrss_kib"] for r in ok), default=0) / 1024,
            "cmd_s": [[" ".join(c.argv), r["cmd_s"]] for c, r in zip(commands, records) if r],
            "traces": [r["trace"] for r in ok if "trace" in r],
        }


# --- metrics -------------------------------------------------------------------------


def tail_percentile(samples: list) -> tuple | None:
    """(p, value) for the highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def layer_metrics(traces: list, overhead_s: float) -> dict:
    """Per-layer values of one traced pass, from the span reports of its commands."""
    m: dict[str, float] = {}
    for mod, fn in TARGETS:
        for stat in ("calls", "time_s", "self_s"):
            m[f"{mod}.{fn}.{stat}"] = 0
    for label in checks.VERIFY_LABELS:
        m[f"cli.verify.{label}.time_s"] = 0.0
    counts: dict[str, int] = {}
    pair_keys, gram_keys = set(), set()
    for t in traces:
        for name, (calls, time_s, self_s) in t["spans"].items():
            if name.startswith("cli.verify."):
                m[f"{name}.time_s"] += time_s
                continue
            m[f"{name}.calls"] += calls
            m[f"{name}.time_s"] += time_s
            m[f"{name}.self_s"] += self_s
        for key, value in t["counts"].items():
            old = counts.get(key, 0)
            counts[key] = max(old, value) if key == "bareiss_max_dim" else old + value
        pair_keys.update(t["pair_keys"])
        gram_keys.update(t["gram_keys"])

    def ratio(a, b):
        return a / b if b else 0.0

    m.update({
        "cli.pair_facts.distinct": len(pair_keys),
        "cli.pair_facts.distinct_ratio": ratio(len(pair_keys), m["cli._pair_facts.calls"]),
        "circulant.search.candidates": counts.get("search_candidates", 0),
        "circulant.search.pairs": counts.get("search_pairs", 0),
        "circulant.cache.hits": m["circulant.load_pairs.calls"],
        "circulant.cache.misses": m["circulant.save_pairs.calls"],
        "lattice.enum.vectors": counts.get("enum_vectors", 0),
        "lattice.enum.minimal_ratio": ratio(counts.get("minimal_vectors", 0),
                                            counts.get("enum_vectors_for_minimum", 0)),
        "exact.ldl_decompose.calls_per_lattice": ratio(m["exact.ldl_decompose.calls"],
                                                       len(gram_keys)),
        "geometry.perfection.matrix_entries": counts.get("perfection_entries", 0),
        "exact.bareiss.max_dim": counts.get("bareiss_max_dim", 0),
        "trace.overhead_s": overhead_s,
    })
    return m


def end_to_end_metrics(passes: list, setup_samples: list) -> dict:
    untraced = [p for p in passes if not p["trace"]]
    m = {key: statistics.median(p[key] for p in untraced)
         for key in ("pass_s", "cmd_max_s", "peak_rss_mib")}
    m["setup_s"] = statistics.median(setup_samples)
    return m


def traced_layer_metrics(passes: list) -> dict:
    # passes alternate untraced, traced; each pair ran the same commands
    per_pass = [layer_metrics(t["traces"], t["pass_s"] - u["pass_s"])
                for u, t in zip(passes[::2], passes[1::2])]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


# --- provenance and reporting ---------------------------------------------------------------


def git_head() -> str | None:
    """HEAD's commit id, read from .git directly (the checkout may not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def measure(workload: Workload, rng: random.Random, seconds: float, trace: bool) -> tuple:
    """Set up, then run passes; returns (runner, passes, setup wall s, measure wall s)."""
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        cache = os.path.join(tmp, "cache")
        os.mkdir(cache)
        runner = Runner(cache)
        setup_start = time.perf_counter()
        for _ in range(IMPORT_PROBES):
            runner.setup_samples.append(run_child((), cache, False)["setup_s"])
        if workload.warm_cache:
            warm_up = list(WARM_UP)
            if os.path.isfile(COMMITTED_CACHE_25):
                shutil.copy(COMMITTED_CACHE_25, cache)
            else:
                warm_up.append(Command(("search", "25"), checks.search_checker(25, "search")))
            runner.run_pass(warm_up, trace=False, reset=False)
        setup_wall_s = time.perf_counter() - setup_start

        # Each untraced pass draws its commands anew (only analyze-sweep uses the
        # draw), so one run averages over several draws; a traced pass repeats
        # the untraced pass before it, which trace.overhead_s compares it with.
        # A pass starts only if it is expected to end within `seconds`, judged
        # by the longest pass so far, so a run's length stays bounded.
        passes, longest = [], 0.0
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if not traced:
                commands = workload.commands(rng)
            pass_start = time.perf_counter()
            passes.append(runner.run_pass(commands, traced, workload.reset_each_pass))
            longest = max(longest, time.perf_counter() - pass_start)
            if trace and not traced:
                continue
            if time.perf_counter() - start + longest * (2 if trace else 1) > seconds:
                break
        return runner, passes, setup_wall_s, time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "framelat", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no framelat sources at {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    runner, passes, setup_wall_s, measure_wall_s = measure(
        WORKLOADS[args.workload], random.Random(args.seed), args.seconds, bool(args.trace))

    correct = not runner.failures and all(p["ok"] for p in passes)
    metrics = {}
    if correct:
        values = (traced_layer_metrics(passes) if args.trace
                  else end_to_end_metrics(passes, runner.setup_samples))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_frac = len(runner.failures) / runner.attempted

    untraced = [p for p in passes if not p["trace"]]
    samples = {
        "setup_s": runner.setup_samples,
        "pass_s": [p["pass_s"] for p in untraced],
        "cmd_max_s": [p["cmd_max_s"] for p in untraced],
        "peak_rss_mib": [p["peak_rss_mib"] for p in untraced],
    }
    provenance = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "git_head": git_head(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "setup_wall_s": setup_wall_s,
        "measure_wall_s": measure_wall_s,
    }

    print(f"framelat benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes in {measure_wall_s:.1f} s")
    for key in ("nproc", "python", "numpy", "git_head"):
        print(f"  {key}: {provenance[key]}")
    print(f"  commands of the first pass: {'; '.join(c for c, _ in passes[0]['cmd_s'])}")
    print(f"  failed_frac: {failed_frac:.4g} ({len(runner.failures)} of {runner.attempted} commands)")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    percentiles = {}
    for name, vals in samples.items():
        tail = tail_percentile(vals)
        percentiles[name] = {"n": len(vals), "median": statistics.median(vals),
                             "tail": None if tail is None else {"p": tail[0], "value": tail[1]}}
        tail_txt = f", p{tail[0]:g} {_fmt(tail[1])}" if tail else ""
        print(f"  {name}: median {_fmt(statistics.median(vals))}{tail_txt} (n = {len(vals)})")
    for name, m in metrics.items():
        print(f"  metric {name} = {_fmt(m['value'])} {m['unit']}")

    result = {"correct": correct, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"provenance": provenance, "result": result, "failed_frac": failed_frac,
                   "failures": runner.failures, "percentiles": percentiles,
                   "samples": samples,
                   "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
