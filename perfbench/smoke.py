"""Smoke test of the benchmark itself.

Runs every workload at its smallest op, untraced and traced, and asserts
that the last stdout line is the result object with every metric that
BENCHMARK.json names, each with its unit, and that the outputs checked
out; that only an op's known defect counts as a refusal, and any other
exit 3 makes the run incorrect; and that without the catlab source the
benchmark exits non-zero and prints no result.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: outputs failed their checks"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    assert set(result["metrics"]) == set(expected), (
        f"{label}: metrics {sorted(set(result['metrics']) ^ set(expected))} differ"
    )
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name], f"{label}: {name} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name}"
        assert math.isfinite(entry["value"]), f"{label}: {name} = {entry['value']}"


def check_refusals() -> None:
    """An exit 3 is a refusal only for the op's known defect; else it is wrong."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    import workloads as w

    sized = w._quasimode_op(w.QUASIMODE_T1_MAPS[0], 1, 0.0, min(w.QUASIMODE_SIZES))
    default_n = w._quasimode_op(w.QUASIMODE_T1_MAPS[0], 1, 0.0, None)
    prop = w._propagator_op(w.PROPAGATOR_MAPS[1][0], 4096, "pow2", 0)
    cases = [
        (prop, "error[NoInvariantTheta]: no theta", "refused"),
        (prop, "error[UnsupportedMatrix]: kernel not unitary", "wrong"),
        (sized, "error[BallsOverlap]: balls overlap", "wrong"),
        (sized, "error[TruncationFailure]: tail too heavy", "wrong"),
        (default_n, "error[BallsOverlap]: balls overlap", "refused"),
        (default_n, "error[RadiusOutOfRange]: rho", "wrong"),
    ]
    for op, stderr, expected in cases:
        status, _ = w.classify(op, 3, stderr, Path("."))
        assert status == expected, f"{op.kind} {stderr}: {status}, expected {expected}"

    # through the CLI: the default-N op is refused, a sized op whose Husimi
    # grid is too coarse exits 3 with ResolutionTooCoarse and is wrong
    coarse = w._quasimode_op(w.QUASIMODE_T1_MAPS[0], 1, 0.0, min(w.QUASIMODE_SIZES))
    coarse.files = {"config.txt": coarse.files["config.txt"].replace(
        f"G = {coarse.size['G']}", "G = 8")}
    bench = run.Run(w, time.perf_counter)
    try:
        assert bench.op(default_n).status == "refused"
        assert bench.correct, bench.wrong
        outcome = bench.op(coarse)
        assert outcome.status == "wrong", outcome
        assert "ResolutionTooCoarse" in outcome.detail, outcome.detail
        assert not bench.correct
    finally:
        bench.close()
    print("ok only known defects count as refusals")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace), "--smallest"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            check_result(last_json(proc.stdout), expected[trace], label)
            print(f"ok {label}")
    check_refusals()

    # a directory holding only the benchmark: it must refuse to run
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=180)
        assert proc.returncode != 0, "benchmark ran without the catlab source"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without catlab"
        print("ok refuses to run without the catlab source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
