"""Orbit quasimodes and their diagnostics.

A quasimode is the phased sum of propagated coherent states along a prime
closed orbit.  Within the admissible time window (orbit length at most
delta times the Ehrenfest time, delta < 1/4) the terms occupy disjoint
phase-space balls, which yields the norm law, the residual bound, the ball
decomposition of the Husimi density, recovery of the orbit delta measure,
and small-scale non-equidistribution witnesses.  Each diagnostic here
reports numbers; assertions live in the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .classical import CatMap, Orbit, orbit_fourier_coefficient, torus_distance
from .coherent import HusimiGrid, ball_mass, husimi, torus_coherent
from .errors import BallsOverlap, NTooLarge, PreconditionError, RadiusOutOfRange
from .hilbert import (
    LinearMap,
    PlanckGrid,
    QuantumState,
    _require_invariant_theta,
    propagator,
)
from .quantize import Symbol, antiwick_expectation, bump_symbols, position_interval_mass

__all__ = [
    "QuasimodeSpec",
    "BallReport",
    "NonequiReport",
    "ScMeasureReport",
    "ehrenfest_time",
    "choose_N",
    "build_quasimode",
    "residual",
    "husimi_ball_report",
    "scmeasure_error",
    "nonequidistribution_report",
    "Experiment",
    "run_pipeline",
    "run_experiment",
    "loglog_slope",
]

# Ball-report radius constant: coverage of the widest orbit component is at
# least 2.1 e^lambda >= 5.5 sigma for any SL(2,Z) map (lambda >= log((3+sqrt5)/2)),
# while 2 rho < 1/l still holds at the desk-scale reference point T=2, N=4096.
BALL_CONSTANT = 2.1
# Scan-interval constants for non-equidistribution radii.
SEP_CONSTANT = 0.25
C1_CONSTANT = 0.15
N_CAP = 2**20


def ehrenfest_time(N: int, lyapunov: float) -> float:
    """T_E = |log hbar| / lambda = log(2 pi N) / lambda."""
    return math.log(2.0 * math.pi * N) / lyapunov


class ChosenN(NamedTuple):
    N: int
    ehrenfest_ok: bool


def choose_N(T: int, delta: float, lyapunov: float, cap: int = N_CAP) -> ChosenN:
    """Dimension schedule N = ceil(e^{lambda T / delta} / (2 pi)).

    Also reports whether T <= delta T_E holds at the chosen N (it does,
    by construction of the ceiling).

    Raises
    ------
    NTooLarge
        If the schedule exceeds cap; choose (T, delta) or N manually.
    """
    if not (0.0 < delta < 0.25):
        raise ValueError("delta must lie in (0, 1/4)")
    if T < 1:
        raise ValueError("T must be >= 1")
    N = math.ceil(math.exp(lyapunov * T / delta) / (2.0 * math.pi))
    if N > cap:
        raise NTooLarge(
            f"schedule gives N = {N} > cap {cap} for T={T}, delta={delta}; "
            "set N explicitly or reduce T"
        )
    ok = T <= delta * ehrenfest_time(N, lyapunov)
    return ChosenN(N, ok)


@dataclass(frozen=True)
class QuasimodeSpec:
    """Parameters of one quasimode construction.

    Validates the time-window invariant T <= delta T_E and the pairing of
    the Bloch angle with the map.
    """

    orbit: Orbit
    phi: float
    delta: float
    grid: PlanckGrid
    catmap: CatMap

    def __post_init__(self):
        if not (0.0 < self.delta < 0.25):
            raise ValueError("delta must lie in (0, 1/4)")
        T = self.orbit.length
        te = ehrenfest_time(self.grid.N, self.catmap.lyapunov)
        if T > self.delta * te + 1e-12:
            raise PreconditionError(
                f"orbit length T={T} exceeds delta T_E = {self.delta * te:.4f} "
                f"at N={self.grid.N}"
            )
        _require_invariant_theta(self.catmap, self.grid)

    @property
    def T(self) -> int:
        return self.orbit.length


def build_quasimode(
    spec: QuasimodeSpec, prop: Optional[LinearMap] = None
) -> Tuple[QuantumState, QuantumState]:
    """Sum_t e^{-i phi t} U^t |x_0, c0, theta> and its normalization.

    Built by T-1 successive propagator applications starting from the
    torus coherent state at the orbit's canonical point.
    """
    if prop is None:
        prop = propagator(spec.catmap, spec.grid)
    term = torus_coherent(spec.orbit.start(), spec.catmap, spec.grid).amplitudes
    total = term.copy()
    for t in range(1, spec.T):
        term = prop.apply(term)
        total += np.exp(-1j * spec.phi * t) * term
    psi = QuantumState(total, spec.grid)
    return psi, psi.normalized()


def residual(psi_n: QuantumState, phi: float, prop: LinearMap) -> float:
    """|| (U - e^{i phi}) psi || for a normalized state psi."""
    out = prop.apply(psi_n.amplitudes) - np.exp(1j * phi) * psi_n.amplitudes
    return float(np.linalg.norm(out))


@dataclass(frozen=True)
class BallReport:
    """Per-orbit-point Husimi ball masses and the off-support remainder."""

    balls: Tuple[Dict, ...]
    off_support: float
    disjoint: bool
    radius: float
    constant: float
    total: float

    def masses(self) -> List[float]:
        return [b["mass"] for b in self.balls]


def _checked_ball_radius(spec: QuasimodeSpec, C: float) -> float:
    """Radius rho = C sqrt(hbar) e^{lambda T} of the balls at the orbit points.

    Checks that they are disjoint: 2 rho < 1/l and every pairwise orbit
    separation exceeds 2 rho.  Depends only on N, T, the orbit and C, so
    it can run before anything is built.

    Raises
    ------
    BallsOverlap
        With the offending pair when the separation precondition fails.
    """
    rho = C * math.sqrt(spec.grid.hbar) * math.exp(spec.catmap.lyapunov * spec.T)
    l = spec.orbit.l
    if 2.0 * rho >= 1.0 / l:
        raise BallsOverlap(
            f"2 rho = {2 * rho:.4f} >= 1/l = {1.0 / l:.4f}; "
            "increase N or decrease C",
            pair=None,
        )
    pts = (spec.orbit.jk / spec.orbit.l).tolist()
    for s in range(len(pts)):
        for t in range(s + 1, len(pts)):
            if torus_distance(pts[s], pts[t]) < 2.0 * rho:
                raise BallsOverlap(
                    f"orbit points {s} and {t} are {torus_distance(pts[s], pts[t]):.4f} "
                    f"apart < 2 rho = {2 * rho:.4f}",
                    pair=(s, t),
                )
    return rho


def husimi_ball_report(
    psi: QuantumState,
    spec: QuasimodeSpec,
    C: float = BALL_CONSTANT,
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> BallReport:
    """Husimi mass in balls of radius C sqrt(hbar) e^{lambda T} at orbit points.

    The balls are checked to be disjoint first (see _checked_ball_radius).

    Raises
    ------
    BallsOverlap
        With the offending pair when the separation precondition fails.
    """
    rho = _checked_ball_radius(spec, C)
    pts = (spec.orbit.jk / spec.orbit.l).tolist()
    if hgrid is None:
        hgrid = husimi(psi, spec.catmap, G)
    balls = []
    for t, x in enumerate(pts):
        balls.append(
            {"t": t, "center": x, "radius": rho, "mass": ball_mass(hgrid, x, rho)}
        )
    total = hgrid.total()
    off = total - sum(b["mass"] for b in balls)
    return BallReport(
        balls=tuple(balls),
        off_support=off,
        disjoint=True,
        radius=rho,
        constant=C,
        total=total,
    )


@dataclass(frozen=True)
class ScMeasureReport:
    """Anti-Wick expectations vs orbit delta-measure Fourier coefficients."""

    per_frequency: Tuple[Dict, ...]
    max_error: float
    rate_bound: float  # c hbar^{1/2 - delta} with c = 1


def scmeasure_error(
    psi_n: QuantumState,
    spec: QuasimodeSpec,
    frequencies: Sequence[Tuple[int, int]],
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> ScMeasureReport:
    """max_n | <psi| e_n^aw |psi> - mu_gamma(e_n) | over the given frequencies."""
    for n in frequencies:
        if max(abs(n[0]), abs(n[1])) > 8:
            raise PreconditionError(f"frequency {n} outside |n|_inf <= 8")
    if hgrid is None:
        hgrid = husimi(psi_n, spec.catmap, G)
    rows = []
    worst = 0.0
    for n in frequencies:
        lhs = antiwick_expectation(psi_n, Symbol.plane_wave(n), spec.catmap, hgrid=hgrid)
        rhs = orbit_fourier_coefficient(spec.orbit, n)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        rows.append(
            {"n": (int(n[0]), int(n[1])), "lhs": lhs, "rhs": rhs, "error": err}
        )
    bound = spec.grid.hbar ** (0.5 - spec.delta)
    return ScMeasureReport(tuple(rows), worst, bound)


@dataclass(frozen=True)
class NonequiReport:
    """Extremal ball-mass ratios over orbit points and a separated net."""

    space: str
    radius: float
    sup_ratio: float
    inf_ratio: float
    witnesses: Dict
    cells: int


def _net_centers_1d(r: float) -> np.ndarray:
    K = math.ceil(1.0 / (3.0 * r))
    return (np.arange(K) + 0.5) / K


def nonequidistribution_report(
    psi_n: QuantumState,
    spec: QuasimodeSpec,
    space: str,
    r: float,
    C_sep: float = SEP_CONSTANT,
    c1: float = C1_CONSTANT,
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> NonequiReport:
    """Scan ball masses at orbit points plus a 3r-separated net of centers.

    Physical space uses exact interval masses of |psi|^2; phase space uses
    anti-Wick bump expectations, the lower bump certifying hits and the
    upper bump certifying misses.  Ratios are mass over ball volume.

    Raises
    ------
    RadiusOutOfRange
        When r is outside [2 C_sep sqrt(hbar) e^{lambda T}, c1/T] (physical)
        or [2 C_sep sqrt(hbar) e^{lambda T}, c1/sqrt(T)] (phase).
    """
    T = spec.T
    lam = spec.catmap.lyapunov
    r_lo = 2.0 * C_sep * math.sqrt(spec.grid.hbar) * math.exp(lam * T)
    r_hi = c1 / T if space == "physical" else c1 / math.sqrt(T)
    if not (r_lo <= r <= r_hi):
        raise RadiusOutOfRange(
            f"radius {r} outside admissible [{r_lo:.5f}, {r_hi:.5f}] for "
            f"{space} space at T={T}, N={spec.grid.N}",
            admissible=(r_lo, r_hi),
        )
    orbit_pts = (spec.orbit.jk / spec.orbit.l).tolist()

    if space == "physical":
        centers = [q for q, _ in orbit_pts] + list(_net_centers_1d(r))
        cells = len(_net_centers_1d(r))
        vol = 2.0 * r
        masses = [
            position_interval_mass(psi_n, q, r) for q in centers
        ]
        hits = misses = masses
    elif space == "phase":
        net = _net_centers_1d(r)
        cells = len(net) ** 2
        centers = orbit_pts + [(qc, pc) for qc in net for pc in net]
        vol = math.pi * r * r
        if hgrid is None:
            hgrid = husimi(psi_n, spec.catmap, G)
        hits, misses = [], []
        for x in centers:
            lower, upper = bump_symbols(x, r)
            hits.append(
                antiwick_expectation(psi_n, lower, spec.catmap, hgrid=hgrid).real
            )
            misses.append(
                antiwick_expectation(psi_n, upper, spec.catmap, hgrid=hgrid).real
            )
    else:
        raise ValueError("space must be 'physical' or 'phase'")

    i_hit = int(np.argmax(hits))
    i_miss = int(np.argmin(misses))
    sup_ratio = hits[i_hit] / vol
    inf_ratio = misses[i_miss] / vol
    witnesses = {
        "hit": {"center": centers[i_hit], "mass": float(hits[i_hit])},
        "miss": {"center": centers[i_miss], "mass": float(misses[i_miss])},
    }
    return NonequiReport(
        space=space,
        radius=r,
        sup_ratio=float(sup_ratio),
        inf_ratio=float(inf_ratio),
        witnesses=witnesses,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# End-to-end experiment
# ---------------------------------------------------------------------------

DEFAULT_FREQUENCIES = [
    (n1, n2) for n1 in range(-2, 3) for n2 in range(-2, 3) if (n1, n2) != (0, 0)
]


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass(frozen=True)
class Experiment:
    """One quasimode run: the report and the objects it was computed from.

    hgrid is the Husimi grid of psi_n at the configured G; timings maps
    each pipeline stage to its wall-clock seconds.
    """

    report: Dict
    catmap: CatMap
    orbit: Orbit
    grid: PlanckGrid
    prop: LinearMap
    psi: QuantumState
    psi_n: QuantumState
    hgrid: HusimiGrid
    timings: Dict[str, float]


def run_experiment(config: Dict) -> Dict:
    """The deterministic report dict of run_pipeline(config)."""
    return run_pipeline(config).report


def run_pipeline(config: Dict) -> Experiment:
    """Build a quasimode per config and run every diagnostic.

    Recognized keys: matrix (4 ints), T or orbit_start ([j, k, l]), delta,
    N (optional, else the dimension schedule), phi, C0, c_sep, c1, G,
    frequencies, r_phase, r_physical, seed.  The propagator, the quasimode
    and the Husimi grid of psi_n are built once and shared by every
    diagnostic; file emission is the CLI's job.
    """
    from .classical import enumerate_prime_orbits, orbit_through, validate_cat_map
    from .hilbert import choose_theta

    timings: Dict[str, float] = {}
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        timings[stage] = now - last
        last = now

    cat = validate_cat_map(*config["matrix"])
    delta = float(config.get("delta", 0.24))
    phi = float(config.get("phi", 0.0))
    C0 = float(config.get("C0", BALL_CONSTANT))
    c_sep = float(config.get("c_sep", SEP_CONSTANT))
    c1 = float(config.get("c1", C1_CONSTANT))
    G = int(config.get("G", 256))

    if "orbit_start" in config:
        j, k, l = (int(v) for v in config["orbit_start"])
        orbit = orbit_through(cat, j, k, l)
        T = orbit.length
    else:
        T = int(config["T"])
        orbits = enumerate_prime_orbits(cat, T)
        if not orbits:
            raise PreconditionError(f"no prime orbit of length {T} for {cat}")
        orbit = orbits[0]

    if "N" in config and config["N"] is not None:
        N = int(config["N"])
        schedule = None
    else:
        chosen = choose_N(T, delta, cat.lyapunov)
        N = chosen.N
        schedule = {"N": chosen.N, "ehrenfest_ok": chosen.ehrenfest_ok}
    lap("orbit")

    grid = choose_theta(cat, N)
    lap("theta")
    spec = QuasimodeSpec(orbit=orbit, phi=phi, delta=delta, grid=grid, catmap=cat)
    # refuse overlapping balls before building anything
    _checked_ball_radius(spec, C0)
    prop = propagator(cat, grid)
    lap("propagator")
    psi, psi_n = build_quasimode(spec, prop)
    res = residual(psi_n, phi, prop)
    lap("quasimode")
    hgrid = husimi(psi_n, cat, G)
    lap("husimi")

    # the Husimi density is quadratic in the state, so psi's grid is
    # psi_n's scaled by ||psi||^2
    norm_sq = psi.norm2()
    ball = husimi_ball_report(
        psi,
        spec,
        C=C0,
        G=G,
        hgrid=replace(hgrid, values=hgrid.values * norm_sq, state_norm2=norm_sq),
    )
    lap("ball_report")
    freqs = [tuple(int(v) for v in n) for n in config.get("frequencies", DEFAULT_FREQUENCIES)]
    sc = scmeasure_error(psi_n, spec, freqs, G=G, hgrid=hgrid)
    lap("scmeasure")

    lam = cat.lyapunov
    r_lo = 2.0 * c_sep * math.sqrt(grid.hbar) * math.exp(lam * T)
    r_phase = float(
        config.get("r_phase", min(max(0.1, r_lo), 0.99 * c1 / math.sqrt(T)))
    )
    r_physical = float(config.get("r_physical", min(max(0.05, r_lo), 0.99 * c1 / T)))
    nq_phase = nonequidistribution_report(
        psi_n, spec, "phase", r_phase, C_sep=c_sep, c1=c1, G=G, hgrid=hgrid
    )
    lap("nonequi_phase")
    nq_phys = nonequidistribution_report(
        psi_n, spec, "physical", r_physical, C_sep=c_sep, c1=c1, G=G
    )
    lap("nonequi_physical")

    def cplx(z: complex):
        return [float(z.real), float(z.imag)]

    report = {
        "matrix": list(cat.entries),
        "lyapunov": cat.lyapunov,
        "T": T,
        "orbit": {
            "l": orbit.l,
            "points": orbit.jk.tolist(),
        },
        "N": N,
        "theta": [grid.theta[0], grid.theta[1]],
        "delta": delta,
        "phi": phi,
        "schedule": schedule,
        "norm_sq": norm_sq,
        "residual": res,
        "residual_bound": 2.0 / math.sqrt(T),
        "ball_constant": C0,
        "ball_radius": ball.radius,
        "ball_masses": [b["mass"] for b in ball.balls],
        "off_support": ball.off_support,
        "scmeasure": {
            f"{row['n'][0]},{row['n'][1]}": {
                "lhs": cplx(row["lhs"]),
                "rhs": cplx(row["rhs"]),
                "error": row["error"],
            }
            for row in sc.per_frequency
        },
        "scmeasure_max_error": sc.max_error,
        "scmeasure_rate_bound": sc.rate_bound,
        "nonequi": {
            "phase": {
                "r": nq_phase.radius,
                "sup_ratio": nq_phase.sup_ratio,
                "inf_ratio": nq_phase.inf_ratio,
                "witnesses": nq_phase.witnesses,
                "cells": nq_phase.cells,
            },
            "physical": {
                "r": nq_phys.radius,
                "sup_ratio": nq_phys.sup_ratio,
                "inf_ratio": nq_phys.inf_ratio,
                "witnesses": nq_phys.witnesses,
                "cells": nq_phys.cells,
            },
        },
    }
    return Experiment(
        report=report,
        catmap=cat,
        orbit=orbit,
        grid=grid,
        prop=prop,
        psi=psi,
        psi_n=psi_n,
        hgrid=hgrid,
        timings=timings,
    )
