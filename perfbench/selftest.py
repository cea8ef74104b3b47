"""Smoke test of the benchmark itself, on tiny passes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
(untraced and traced), that a deliberately wrong command output is counted as
failed so the correctness gate can fail, that nested spans are not counted
twice in self time, and that the benchmark refuses to run without the sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time

import checks
import run
from tracer import Tracer


def smoke_commands(rng) -> list:
    return [
        run.Command(("search", "5"), checks.search_checker(5, "search")),
        run.Command(("analyze", "conference:5:0:plus"), checks.analyze_checker("conference:5:0:plus")),
        run.Command(("analyze", "simplex:3"), checks.analyze_checker("simplex:3")),
    ]


def wrong_output_commands(rng) -> list:
    def corrupted(code, out):  # flip the first -1 sign of the first pair
        checks.search_checker(5, "search")(code, out.replace("-1", "1", 1))
    return [run.Command(("search", "5"), corrupted), smoke_commands(rng)[2]]


def run_smoke(workload: str, trace: int) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, code
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    with open(os.path.join(run.OUT, f"{workload}-seed1-trace{trace}.json")) as fh:
        return result, json.load(fh)


def check_metrics_emitted() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run_smoke("smoke", trace)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, sorted(set(want) ^ set(got))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert record["provenance"]["nproc"] and record["provenance"]["python"]
        if trace:
            # bareiss_determinant is reached through names bound in lattice and cli
            assert result["metrics"]["exact.bareiss_determinant.calls"]["value"] > 0
            assert result["metrics"]["circulant.search.candidates"]["value"] == 2 ** 2 + 2 ** 3


def check_wrong_output_fails() -> None:
    result, record = run_smoke("wrong-output", 0)
    assert not result["correct"], result
    assert result["failed"] == 1 and result["attempted"] == 2, result
    assert record["failed_frac"] == 0.5, record["failed_frac"]


def check_self_time() -> None:
    tracer = Tracer()

    def inner(n):
        time.sleep(0.01)
        return traced_inner(n - 1) if n else 0

    def outer():
        time.sleep(0.01)
        return traced_inner(2)

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    (o_calls, o_time, o_self), (i_calls, i_time, i_self) = tracer.spans["outer"], tracer.spans["inner"]
    assert (o_calls, i_calls) == (1, 3)
    assert abs(o_self + i_self - o_time) < 1e-6, (o_self, i_self, o_time)
    assert i_time < o_time, "recursive activations counted twice in time_s"


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.BENCH_DIR, name), os.path.join(bare, "perfbench"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search-cold",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    run.WORKLOADS["smoke"] = run.Workload(smoke_commands, warm_cache=False, reset_each_pass=True)
    run.WORKLOADS["wrong-output"] = run.Workload(wrong_output_commands, warm_cache=False,
                                                 reset_each_pass=True)
    for check in (check_self_time, check_metrics_emitted, check_wrong_output_fails,
                  check_refuses_without_sources):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
