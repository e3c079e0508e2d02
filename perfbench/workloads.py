"""The four benchmark workloads: seeded inputs, one CLI call per op, checks.

Every op is one in-process call of ``catlab.cli.main``, exactly as a user
would type the subcommand.  Each workload builds its op list in *cycles*:
a cycle has a fixed composition (op kinds, sizes, known-defect share, and
whatever else sets an op's cost) and the seed draws only what leaves the
cost alone (phases, state seeds, some maps, the order), so runs with
different seeds do the same mix of work.

An op ends in one of three outcomes:

* ``ok``: exit code 0 and the output passes the workload's check;
* ``refused``: exit code 3 with the one error the op is known to hit
  (``Op.known_refusal``): ``BallsOverlap`` on the default-N quasimode path
  and the spurious ``NoInvariantTheta`` of propagator checks;
* ``wrong``: any other exit code, exit 3 with any other error (a failed
  unitarity spot check, a truncation failure, ...), an escaped exception,
  or exit 0 with an output outside its check.

Both ``refused`` and ``wrong`` are failed ops; only ``wrong`` makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from catlab import cli
from catlab.classical import fixed_point_count, validate_cat_map

# ---------------------------------------------------------------------------
# Ops and outcomes
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI call: its argv, files it needs, and how to check it.

    ``argv`` may contain ``{out}``, replaced by the op's output directory.
    ``key`` identifies the config: ops with equal keys must write
    byte-identical reports.
    """

    kind: str
    argv: List[str]
    check: Callable[["Op", Path], Optional[str]]
    key: str
    files: Dict[str, str] = field(default_factory=dict)
    size: Dict[str, int] = field(default_factory=dict)
    weight: float = 0.0  # grows with the op's expected cost
    # the CLI error (exit 3) that is a known defect for this op, if any
    known_refusal: str = ""


@dataclass
class Outcome:
    status: str  # "ok", "refused" or "wrong"
    seconds: float
    detail: str = ""


_ERROR_TAG = re.compile(r"error\[([^\]]+)\]")


def call_cli(argv: List[str]) -> Tuple[Optional[int], str]:
    """Run the CLI in-process with its output captured; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a wrong op
            return None, f"escaped {type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def classify(op: Op, rc: Optional[int], stderr: str, outdir: Path) -> Tuple[str, str]:
    if rc == 0:
        problem = op.check(op, outdir)
        return ("wrong", problem) if problem else ("ok", "")
    tag = _ERROR_TAG.search(stderr)
    reason = tag.group(1) if tag else stderr.strip()[:200]
    if rc == 3 and op.known_refusal and reason == op.known_refusal:
        return "refused", reason
    return "wrong", f"exit {rc}: {reason}"


def _arg(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# quasimode_cli
# ---------------------------------------------------------------------------

# Positive-trace hyperbolic maps with entries in 0..4 and trace <= 6: at
# T = 1 every one passes all acceptance laws at N = 4096, the hardest of
# the three sizes for ball disjointness (2 rho < 1/l).  At T = 2 only the
# trace-3 maps do.
QUASIMODE_T1_MAPS = [
    (a, b, c, d)
    for a in range(5)
    for b in range(1, 5)
    for c in range(1, 5)
    for d in range(5)
    if a * d - b * c == 1 and 2 < a + d <= 6
]
QUASIMODE_T2_MAPS = [(2, 1, 1, 1), (1, 1, 1, 2)]
# ops per cycle at each N: the count falls as the cost grows, so each size
# takes a similar share of the time and a run holds enough ops for its
# order statistics; half of each count (alternating cycles for an odd
# count) at T = 1, the rest at T = 2
QUASIMODE_SIZES = {4096: 8, 16384: 4, 65536: 1}
QUASIMODE_DEFAULT_N_PER_CYCLE = 2


def husimi_G(N: int) -> int:
    """Smallest multiple of 128 that resolves sqrt(hbar): G >= sqrt(2 pi N)."""
    return 128 * math.ceil(math.sqrt(2.0 * math.pi * N) / 128.0)


def _matrix_text(m) -> str:
    return ",".join(str(v) for v in m)


def check_quasimode(op: Op, outdir: Path) -> Optional[str]:
    """The acceptance laws scaled to T, plus the artifacts' shapes."""
    r = json.loads((outdir / "report.json").read_text())
    T, N = r["T"], r["N"]
    problems = []
    if abs(r["norm_sq"] - T) > 0.01 * T:
        problems.append(f"norm_sq {r['norm_sq']} != T")
    if r["residual"] > 2.0 / math.sqrt(T) + 0.01:
        problems.append(f"residual {r['residual']} > 2/sqrt(T)")
    if len(r["ball_masses"]) != T or any(abs(m - 1.0) > 0.02 for m in r["ball_masses"]):
        problems.append(f"ball masses {r['ball_masses']}")
    if abs(r["off_support"]) >= 1e-6:
        problems.append(f"off_support {r['off_support']}")
    if r["scmeasure_max_error"] > r["scmeasure_rate_bound"]:
        problems.append("scmeasure error above its rate bound")
    for space in ("phase", "physical"):
        w = r["nonequi"][space]["witnesses"]
        if w["miss"]["mass"] >= 1e-6 or w["hit"]["mass"] < 0.96 / T:
            problems.append(f"{space} hit/miss {w['hit']['mass']}/{w['miss']['mass']}")
    if "N" in op.size and N != op.size["N"]:
        problems.append(f"N {N} != {op.size['N']}")
    state = outdir / "report.state.bin"
    if state.stat().st_size != 32 + 16 * N:
        problems.append("state file size")
    side = json.loads((outdir / "report.husimi.csv.json").read_text())
    if side["N"] != N or side["G"] != op.size.get("G", 256):
        problems.append("husimi sidecar")
    orbit = json.loads((outdir / "report.orbit.json").read_text())
    if len(orbit) != 1 or len(orbit[0]["points"]) != T:
        problems.append("orbit file")
    return "; ".join(problems)


def _quasimode_op(matrix, T: int, phi: float, N: Optional[int]) -> Op:
    lines = [f"matrix = {_matrix_text(matrix)}", f"T = {T}", f"phi = {phi!r}"]
    size = {}
    if N is not None:
        G = husimi_G(N)
        lines += [f"N = {N}", f"G = {G}"]
        size = {"N": N, "G": G}
    text = "\n".join(lines) + "\n"
    return Op(
        kind="sized" if N is not None else "default_N",
        argv=["quasimode", "--config", "{out}/config.txt", "--out", "{out}/report.json"],
        check=check_quasimode,
        key=text,
        files={"config.txt": text},
        size=size,
        weight=size.get("N", 0),
        known_refusal="" if N is not None else "BallsOverlap",
    )


def quasimode_cycle(rng: np.random.Generator, index: int, count: int) -> List[Op]:
    """QUASIMODE_SIZES ops at fixed N, plus configs that omit N.

    Which map an op at a given N gets is fixed, not drawn: the cost of an
    op differs by up to 2x between maps, so drawing them would make the op
    mix, and with it every order statistic, depend on the seed.  At each N
    the T = 1 ops walk the map list from their own offset, cycle after
    cycle, so a run covers it; T = 2 ops alternate the two T = 2 maps.  The
    seed draws each op's phase, the default-N configs and the order.  The
    default-N configs take the README's documented default path; they are
    a fixed share (two in fifteen) and are refused today (BallsOverlap: the
    schedule's N is too small for disjoint balls).
    """
    ops = []
    offset = 0
    for N, per_cycle in QUASIMODE_SIZES.items():
        t1 = (per_cycle + 1 - index % 2) // 2
        first = offset + index * ((per_cycle + 1) // 2)
        for k in range(per_cycle):
            if k < t1:
                matrix, T = QUASIMODE_T1_MAPS[(first + k) % len(QUASIMODE_T1_MAPS)], 1
            else:
                matrix, T = QUASIMODE_T2_MAPS[k % len(QUASIMODE_T2_MAPS)], 2
            phi = round(float(rng.uniform(0.0, 2.0 * math.pi)), 6)
            ops.append(_quasimode_op(matrix, T, phi, N))
        offset += 2 * ((per_cycle + 1) // 2)
    everything = [(m, 1) for m in QUASIMODE_T1_MAPS] + [(m, 2) for m in QUASIMODE_T2_MAPS]
    for _ in range(QUASIMODE_DEFAULT_N_PER_CYCLE):
        matrix, T = everything[rng.integers(len(everything))]
        ops.append(_quasimode_op(matrix, T, 0.0, None))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# gap_sweep
# ---------------------------------------------------------------------------

GAP_MAPS = [(1, 1, 1, 2), (3, 1, 2, 1), (5, 2, 2, 1)]
# once per run: the dense N = 2048 operators (about 64 MB each) and their
# power iteration; the map is fixed because the three differ by ~40% in cost
GAP_LADDER = "512,1024,2048"
GAP_LADDER_MAP = (3, 1, 2, 1)
# every map once per cycle: enough ops for the order statistics
GAP_SHORT_LADDER = "64,128,256"


def check_gap(op: Op, outdir: Path) -> Optional[str]:
    rows = list(csv.reader((outdir / "sweep.csv").read_text().splitlines()))
    ladder = [int(v) for v in _arg(op, "--ladder").split(",")]
    if [int(r[0]) for r in rows[1:-1]] != ladder:
        return "ladder rows"
    if not all(float(r[2]) > 0.0 for r in rows[1:-1]):
        return "non-positive gap"
    slope = float(rows[-1][1])
    if abs(slope + 1.0) > 0.3:
        return f"slope {slope} outside -1 +- 0.3"
    return None


def _gap_op(matrix, ladder: str) -> Op:
    N = [int(v) for v in ladder.split(",")]
    return Op(
        kind="sweep" if ladder == GAP_SHORT_LADDER else "full_sweep",
        argv=[
            "sweep", "--kind", "waw-gap", "--matrix", _matrix_text(matrix),
            "--ladder", ladder, "--G", "256", "--out", "{out}/sweep.csv",
        ],
        check=check_gap,
        key=f"{_matrix_text(matrix)}|{ladder}",
        size={"N2": sum(n * n for n in N)},
        weight=sum(n * n for n in N),
    )


def gap_cycle(rng: np.random.Generator, index: int, count: int) -> List[Op]:
    """Every map on the short ladder, in seeded order; the first cycle also
    holds the run's one full-ladder sweep."""
    ops = [_gap_op(m, GAP_SHORT_LADDER) for m in GAP_MAPS]
    if index == 0:
        ops.append(_gap_op(GAP_LADDER_MAP, GAP_LADDER))
    return [ops[i] for i in rng.permutation(len(ops))]


def smallest_gap_op() -> Op:
    return _gap_op(GAP_MAPS[0], GAP_SHORT_LADDER)


# ---------------------------------------------------------------------------
# propagator_check
# ---------------------------------------------------------------------------

# Two maps per |b| in {1, 2, 3}; the FFT length is N |b|.  One of each
# pair has a large |cd|, where the float compatibility residual (about
# N pi |cd| eps) crosses choose_theta's 1e-9 tolerance for some N in range:
# a spurious NoInvariantTheta.
PROPAGATOR_MAPS = {
    1: [(2, 1, 1, 1), (1, 1, 8, 9)],
    2: [(5, 2, 2, 1), (1, 2, 4, 9)],
    3: [(2, 3, 1, 2), (4, 3, 9, 7)],
}
# sized so a run holds several cycles: an arbitrary N near the top with
# |b| = 3 and a large prime factor takes seconds
PROPAGATOR_LOG2_RANGE = (12, 16)


def check_propagator(op: Op, outdir: Path) -> Optional[str]:
    r = json.loads((outdir / "check.json").read_text())
    if r["N"] != op.size["N"]:
        return "N mismatch"
    if not r["unitarity_defect"] < 1e-10:
        return f"unitarity defect {r['unitarity_defect']}"
    if not r["egorov_defect"] < 1e-8:
        return f"conjugation defect {r['egorov_defect']}"
    return None


def _propagator_op(matrix, N: int, kind: str, seed: int) -> Op:
    return Op(
        kind=kind,
        argv=[
            "propagator-check", "--matrix", _matrix_text(matrix), "--N", str(N),
            "--states", "1", "--nmax", "1", "--seed", str(seed),
            "--out", "{out}/check.json",
        ],
        check=check_propagator,
        key=f"{_matrix_text(matrix)}|{N}|{seed}",
        size={"N": N, "L": N * abs(matrix[1])},
        weight=N * abs(matrix[1]),
        known_refusal="NoInvariantTheta",
    )


def propagator_cycle(rng: np.random.Generator, index: int, count: int) -> List[Op]:
    """For each |b|: three arbitrary N and three powers of two near them.

    The log2 range is cut into 3 * count strata; cycle ``index`` draws one
    arbitrary N log-uniformly from stratum ``3 * third + index`` of each
    third, so a run covers the range evenly.  Arbitrary N are the kind the
    dimension schedule produces, and N |b| is mostly not 7-smooth; each is
    paired with the power of two nearest to it.  NoInvariantTheta refusals
    among them are kept as failed ops.

    The N are drawn from a generator fixed by the cycle, not by the seed:
    an op's cost varies fivefold with the prime factors of N |b|, and the
    few dozen draws of one run do not average that out, so seeded N would
    make every order statistic depend on the seed.  The seed draws the map
    for each |b|, the states' seeds and the order.
    """
    lo, hi = PROPAGATOR_LOG2_RANGE
    strata = 3 * count
    sizes = np.random.default_rng([index, count])
    ops = []
    for maps in PROPAGATOR_MAPS.values():
        m = maps[rng.integers(len(maps))]
        for third in range(3):
            log2 = lo + (hi - lo) * (third * count + index + sizes.uniform()) / strata
            seed = int(rng.integers(2**31))
            ops.append(_propagator_op(m, 2 ** round(log2), "pow2", seed))
            ops.append(_propagator_op(m, int(2.0**log2), "arbitrary", seed))
    return [ops[i] for i in rng.permutation(len(ops))]


def is_smooth7(n: int) -> bool:
    """True when n has no prime factor above 7 (a fast FFT length)."""
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


# ---------------------------------------------------------------------------
# orbits_cli
# ---------------------------------------------------------------------------


def _orbit_pool() -> List[Tuple[Tuple[int, int, int, int], int, int]]:
    """(map, T, l) with entries in 0..4, positive trace and 1000 <= l <= 10000."""
    pool = []
    for a in range(5):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(5):
                    if a * d - b * c != 1 or a + d <= 2:
                        continue
                    cat = validate_cat_map(a, b, c, d)
                    for T in range(1, 12):
                        l = fixed_point_count(cat, T)
                        if 1000 <= l <= 10000:
                            pool.append(((a, b, c, d), T, l))
    return sorted(pool, key=lambda e: e[2])


ORBIT_POOL = _orbit_pool()


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def prime_orbit_count(cat, T: int) -> int:
    """Moebius inversion of the fixed-point counts over the divisors of T."""
    total = sum(_mobius(T // d) * fixed_point_count(cat, d) for d in range(1, T + 1) if T % d == 0)
    return total // T


def check_orbits(op: Op, outdir: Path) -> Optional[str]:
    docs = json.loads((outdir / "orbits.json").read_text())
    a, b, c, d = (int(v) for v in _arg(op, "--matrix").split(","))
    T = int(_arg(op, "--T"))
    cat = validate_cat_map(a, b, c, d)
    if len(docs) != prime_orbit_count(cat, T):
        return f"{len(docs)} orbits, Moebius count {prime_orbit_count(cat, T)}"
    divisors = [s for s in range(1, T) if T % s == 0]
    for doc in docs:
        l = doc["l"]
        if len(doc["points"]) != T:
            return "orbit of wrong length"
        for j, k in doc["points"]:
            x = (j, k)
            for t in range(1, T + 1):
                x = ((a * x[0] + b * x[1]) % l, (c * x[0] + d * x[1]) % l)
                if t in divisors and x == (j, k):
                    return f"point ({j},{k})/{l} has period {t} < {T}"
            if x != (j, k):
                return f"point ({j},{k})/{l} is not T-periodic"
    return None


def _orbits_op(matrix, T: int, l: int) -> Op:
    return Op(
        kind="orbits",
        argv=["orbits", "--matrix", _matrix_text(matrix), "--T", str(T), "--out", "{out}/orbits.json"],
        check=check_orbits,
        key=f"{_matrix_text(matrix)}|{T}",
        size={"l": l},
        weight=l,
    )


def orbits_cycle(rng: np.random.Generator, index: int, count: int) -> List[Op]:
    """One pair per distinct l, in seeded order.

    The lattice scan costs ~l^2, so drawing l freely would make the op mix
    differ between seeds; the seed picks which map of each l and the order.
    """
    by_l: Dict[int, list] = {}
    for entry in ORBIT_POOL:
        by_l.setdefault(entry[2], []).append(entry)
    ops = [_orbits_op(*group[rng.integers(len(group))]) for group in by_l.values()]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def cheapest_of_each_kind(ops: List[Op]) -> List[Op]:
    """Warm-up: the cheapest scheduled op of every kind.  Taking it from the
    schedule means the determinism check always meets a timed op with the
    same config; taking the cheapest keeps set-up time independent of the
    seed."""
    best: Dict[str, Op] = {}
    for op in ops:
        if op.kind not in best or op.weight < best[op.kind].weight:
            best[op.kind] = op
    return list(best.values())


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng, cycle index, cycle count) -> the ops of one cycle
    cycle: Callable[[np.random.Generator, int, int], List[Op]]
    # nominal seconds per cycle on a 2-core Xeon; fixes how many cycles a
    # run of --seconds does, so the op count (and with it which order
    # statistic the tail is) does not change when the code gets faster
    cycle_seconds: float
    smallest: Callable[[], Op]
    warmup: Callable[[List[Op]], List[Op]] = cheapest_of_each_kind
    # nominal seconds of the ops that only the first cycle holds
    once_seconds: float = 0.0

    def cycles(self, seconds: float) -> int:
        return max(1, round((seconds - self.once_seconds) / self.cycle_seconds))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "quasimode_cli",
            quasimode_cycle,
            11.0,
            lambda: _quasimode_op(QUASIMODE_T1_MAPS[0], 1, 0.0, min(QUASIMODE_SIZES)),
        ),
        Workload(
            "gap_sweep",
            gap_cycle,
            1.5,
            smallest_gap_op,
            # the full sweep runs the same code at larger N: warm up on the
            # short ladder only
            warmup=lambda ops: [smallest_gap_op()],
            once_seconds=5.5,
        ),
        Workload(
            "propagator_check",
            propagator_cycle,
            3.4,
            lambda: _propagator_op(PROPAGATOR_MAPS[1][0], 2 ** PROPAGATOR_LOG2_RANGE[0], "pow2", 0),
        ),
        Workload(
            "orbits_cli",
            orbits_cycle,
            1.5,
            lambda: _orbits_op(*ORBIT_POOL[0]),
        ),
    )
}


def run_op(
    op: Op, outdir: Path, clock: Callable[[], float], tracer=None
) -> Tuple[Outcome, Optional[bytes]]:
    """Write the op's input files, time the CLI call, classify the result.

    With a tracer, it is installed around the CLI call only, so the check
    leaves no spans.  Returns the outcome and, for a successful op that
    writes report.json, its bytes (for the determinism comparison).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in op.files.items():
        (outdir / name).write_text(text)
    argv = [a.replace("{out}", str(outdir)) for a in op.argv]
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = clock()
        rc, stderr = call_cli(argv)
        seconds = clock() - t0
    try:
        status, detail = classify(op, rc, stderr, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        status, detail = "wrong", f"unreadable output: {type(exc).__name__}: {exc}"
    report = None
    if status == "ok" and (outdir / "report.json").exists():
        report = (outdir / "report.json").read_bytes()
    return Outcome(status, seconds, detail), report


def input_properties(ops: List[Op]) -> Dict[str, float]:
    """Per-run values of the input properties the ops' cost depends on."""
    props: Dict[str, float] = {}
    sized = [op for op in ops if "G" in op.size]
    if sized:
        props["sum_G2_per_sized_op"] = sum(op.size["G"] ** 2 for op in sized) / len(sized)
        props["default_N_share"] = 1.0 - len(sized) / len(ops)
    if any("N2" in op.size for op in ops):
        props["sum_N2_per_sweep"] = sum(op.size["N2"] for op in ops) / len(ops)
    if any("L" in op.size for op in ops):
        props["nonsmooth_fft_length_share"] = sum(not is_smooth7(op.size["L"]) for op in ops) / len(ops)
    if any("l" in op.size for op in ops):
        props["lattice_points_per_op"] = sum(op.size["l"] ** 2 for op in ops) / len(ops)
    return props
