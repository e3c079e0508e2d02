"""catlab benchmark: four CLI workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload quasimode_cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload is a closed loop with one caller: the next op (one in-process
``catlab.cli.main`` call) starts when the previous one returns.  The seed
makes the inputs; catlab sees only the generated configs and arguments.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every op is run once untraced and once traced, and the
last line carries the per-layer metrics (see perfbench/README.md).
Exit code 2 means the benchmark could not run (no catlab source).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("quasimode_cli", "gap_sweep", "propagator_check", "orbits_cli")
# fresh processes that repeat the set-up; setup_s is the median over them
# and the measuring process
SETUP_REPEATS = 4


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smallest", action="store_true",
                    help="run only the workload's smallest op (smoke test)")
    return ap.parse_args(argv)


def environment(seed: int, nproc: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def ranked(outcomes) -> list:
    """Op times ascending, failed ops ranked above every success (None)."""
    ok = sorted(o.seconds for o in outcomes if o.status == "ok")
    return ok + [None] * (len(outcomes) - len(ok))


def order_stat(times: list, k: int, ceiling: float) -> float:
    """times[k]; a failed op there reads as ``ceiling``, the run's busy time."""
    return times[k] if times[k] is not None else ceiling


def tail_rank(n: int) -> int:
    """Highest rank with at least ten ops beyond it, and never below the median.

    Below 21 ops no rank above the median has ten ops beyond it, so the
    tail reads as the median there rather than as a lower percentile.
    """
    return max(n - 11, (n - 1) // 2)


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def setup(args):
    """Import, generate the inputs and warm up; returns the schedule."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    # a traced run runs every op twice
    cycles = wl.cycles(args.seconds / (2 if args.trace else 1))
    if args.smallest:
        schedule = [wl.smallest()]
    else:
        schedule = [op for i in range(cycles) for op in wl.cycle(rng, i, cycles)]
    return workloads, wl, schedule


class Run:
    """Runs ops in a scratch directory inside the checkout and keeps score."""

    def __init__(self, workloads, clock):
        self.workloads = workloads
        self.clock = clock
        tmp_root = ROOT / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        self.count = 0
        self.reports = {}
        self.wrong = []

    def op(self, op, tracer=None):
        outdir = self.tmp / f"op{self.count}"
        self.count += 1
        outcome, report = self.workloads.run_op(op, outdir, self.clock, tracer)
        if report is not None:
            first = self.reports.setdefault(op.key, report)
            if first != report:
                outcome.status, outcome.detail = "wrong", "report.json bytes differ for one config"
        shutil.rmtree(outdir, ignore_errors=True)
        if outcome.status == "wrong":
            self.wrong.append(f"{op.argv[0]} {op.key!r}: {outcome.detail}")
        return outcome

    @property
    def correct(self) -> bool:
        """No op so far was wrong (a known refusal is failed, not wrong)."""
        return not self.wrong

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(args, nproc: int) -> int:
    clock = time.perf_counter
    workloads, wl, schedule = setup(args)
    run = Run(workloads, clock)
    try:
        for op in wl.warmup(schedule):
            run.op(op)
        setup_s = clock() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "wrong": run.wrong}))
            return 0
        if args.trace:
            result = timed_traced(run, schedule, list(metric_units(1)))
        else:
            result = timed(run, schedule)
            result["metrics"]["setup_s"] = median_setup(args, setup_s, run)
    finally:
        run.close()
    report(args, nproc, run, schedule, result)
    return 0


def timed(run: Run, schedule) -> dict:
    outcomes = [run.op(op) for op in schedule]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(o.seconds for o in outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    times = ranked(outcomes)
    n = len(times)
    k = tail_rank(n)
    return {
        "outcomes": outcomes,
        "metrics": {
            "ops_per_s": ok / busy,
            "op_p50_s": order_stat(times, (n - 1) // 2, busy),
            "op_tail_s": order_stat(times, k, busy),
            "peak_rss_mb": peak_mb,
        },
        "notes": {"tail_percentile": 100.0 * (k + 1) / n, "samples": n, "busy_s": busy},
    }


def timed_traced(run: Run, schedule, names) -> dict:
    import spans

    tracer = spans.Tracer(run.clock)
    outcomes, traced_s, untraced_s = [], 0.0, 0.0
    for i, op in enumerate(schedule):
        # alternate which side runs first so warm caches favour neither
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                outcome = run.op(op, tracer)
                traced_s += outcome.seconds
            else:
                outcome = run.op(op)
                untraced_s += outcome.seconds
            outcomes.append(outcome)
    metrics = spans.per_layer_metrics(names, tracer, len(schedule), traced_s, untraced_s)
    return {"outcomes": outcomes, "metrics": metrics, "notes": {"traced_ops": len(schedule)}}


def median_setup(args, own: float, run: Run) -> float:
    """Median set-up time over this process and SETUP_REPEATS fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.smallest:
        cmd.append("--smallest")
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        run.wrong += child["wrong"]
        samples.append(child["setup_s"])
    return statistics.median(samples)


def report(args, nproc: int, run: Run, schedule, result: dict) -> None:
    outcomes = result["outcomes"]
    failed = sum(o.status != "ok" for o in outcomes)
    units = metric_units(args.trace)
    assert set(result["metrics"]) == set(units), "metrics differ from BENCHMARK.json"
    print(json.dumps({"environment": environment(args.seed, nproc)}))
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "error_ratio": failed / len(outcomes),
        "refused": dict(Counter(o.detail for o in outcomes if o.status == "refused")),
        "wrong": run.wrong[:20],
        **result["notes"],
        "inputs": run.workloads.input_properties(schedule),
    }))
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


# ---------------------------------------------------------------------------
# All workloads, each in its own process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if not (SRC / "catlab" / "__init__.py").is_file():
        print(f"error: catlab source not found at {SRC / 'catlab'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
