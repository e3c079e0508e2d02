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
import numbers
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .classical import (
    CatMap,
    Orbit,
    enumerate_prime_orbits,
    orbit_fourier_coefficient,
    orbit_through,
    validate_cat_map,
)
from .coherent import (
    HusimiGrid,
    _check_resolution,
    axis_variances,
    ball_mass,
    husimi,
    torus_coherent,
)
from .errors import (
    BallsOverlap,
    ConfigError,
    NTooLarge,
    PreconditionError,
    RadiusOutOfRange,
)
from .hilbert import (
    LinearMap,
    PlanckGrid,
    QuantumState,
    _norm,
    _require_invariant_theta,
    choose_theta,
    egorov_defect,
    propagator,
    random_states,
)
from .quantize import (
    Symbol,
    antiwick_plane_waves,
    bump_masses,
    position_interval_mass,
    weyl_antiwick_gap,
)

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
    "propagator_check",
    "waw_gap_sweep",
    "husimi_width_sweep",
    "scmeasure_sweep",
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


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 0.25:
        raise ConfigError(f"delta must lie in (0, 1/4), got {delta}")


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
    _check_delta(delta)
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
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
        _check_delta(self.delta)
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
    return _norm(out)


@dataclass(frozen=True)
class BallReport:
    """Per-orbit-point Husimi ball masses and the off-support remainder."""

    balls: Tuple[Dict, ...]
    off_support: float
    radius: float
    constant: float
    total: float

    def masses(self) -> List[float]:
        return [b["mass"] for b in self.balls]


def _checked_ball_radius(spec: QuasimodeSpec, C: float) -> float:
    """Radius rho = C sqrt(hbar) e^{lambda T} of the balls at the orbit points.

    Checks that they are disjoint, which 2 rho < 1/l guarantees: the
    orbit's points are distinct points of the lattice L_l (orbits are
    walked along a permutation of L_l, and load_orbits_json refuses a
    shorter period), so any two lie at least 1/l apart on the torus.
    Depends only on N, T, the orbit and C, so it can run before anything
    is built.

    Raises
    ------
    BallsOverlap
        When 2 rho >= 1/l.
    """
    rho = C * math.sqrt(spec.grid.hbar) * math.exp(spec.catmap.lyapunov * spec.T)
    l = spec.orbit.l
    if 2.0 * rho >= 1.0 / l:
        raise BallsOverlap(
            f"2 rho = {2 * rho:.4f} >= 1/l = {1.0 / l:.4f}; "
            "increase N or decrease C"
        )
    return rho


def _radius_floor(spec: QuasimodeSpec, C_sep: float) -> float:
    """Smallest admissible non-equidistribution radius 2 C_sep sqrt(hbar) e^{lambda T}."""
    return 2.0 * C_sep * math.sqrt(spec.grid.hbar) * math.exp(spec.catmap.lyapunov * spec.T)


def husimi_ball_report(
    psi: QuantumState,
    spec: QuasimodeSpec,
    hgrid: HusimiGrid,
    C: float = BALL_CONSTANT,
) -> BallReport:
    """Husimi mass in balls of radius C sqrt(hbar) e^{lambda T} at orbit points.

    The balls are checked to be disjoint first (see _checked_ball_radius).
    hgrid may be the Husimi grid of any nonzero multiple of psi: the
    density is quadratic in the state, so masses and total are read from
    it scaled by ||psi||^2 / hgrid.state_norm2.

    Raises
    ------
    BallsOverlap
        When the balls are not disjoint.
    ResolutionTooCoarse
        When the radius is below 2/G.
    """
    rho = _checked_ball_radius(spec, C)
    pts = (spec.orbit.jk / spec.orbit.l).tolist()
    scale = psi.norm2() / hgrid.state_norm2
    balls = tuple(
        {"t": t, "center": x, "radius": rho, "mass": ball_mass(hgrid, x, rho) * scale}
        for t, x in enumerate(pts)
    )
    total = hgrid.total() * scale
    return BallReport(
        balls=balls,
        off_support=total - sum(b["mass"] for b in balls),
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
) -> ScMeasureReport:
    """max_n | <psi| e_n^aw |psi> - mu_gamma(e_n) | over the given frequencies.

    The anti-Wick values come from the state in closed form
    (antiwick_plane_waves), all frequencies in one pass; no Husimi grid.
    """
    for n in frequencies:
        if max(abs(n[0]), abs(n[1])) > 8:
            raise PreconditionError(f"frequency {n} outside |n|_inf <= 8")
    values = antiwick_plane_waves(psi_n, spec.catmap, frequencies)
    rows = []
    worst = 0.0
    for n, value in zip(frequencies, values):
        lhs = complex(value)
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


# a witness is the first center in scan order whose mass is within this
# fraction of ||psi_n||^2 of the extreme: the masses tie up to rounding
# (misses near 1e-33, hits at 0.5 +- 1 ulp), so the plain argmax/argmin
# would hang on the last bit of the state
_WITNESS_TOL = 1e-12


def nonequidistribution_report(
    psi_n: QuantumState,
    spec: QuasimodeSpec,
    space: str,
    r: float,
    C_sep: float = SEP_CONSTANT,
    c1: float = C1_CONSTANT,
    hgrid: Optional[HusimiGrid] = None,
) -> NonequiReport:
    """Scan ball masses at orbit points plus a 3r-separated net of centers.

    Physical space uses exact interval masses of |psi|^2 and reads no
    grid; phase space uses anti-Wick bump expectations read from hgrid,
    the Husimi grid of psi_n that the caller passes, the lower bump
    certifying hits and the upper bump certifying misses.  Ratios are the
    extreme masses over ball volume; each witness is the first center, in
    scan order, whose mass is within _WITNESS_TOL ||psi_n||^2 of its
    extreme, and reports its own mass.

    Raises
    ------
    RadiusOutOfRange
        When r is outside [2 C_sep sqrt(hbar) e^{lambda T}, c1/T] (physical)
        or [2 C_sep sqrt(hbar) e^{lambda T}, c1/sqrt(T)] (phase).
    ValueError
        For a phase-space scan without hgrid, or an unknown space.
    """
    T = spec.T
    r_lo = _radius_floor(spec, C_sep)
    r_hi = c1 / T if space == "physical" else c1 / math.sqrt(T)
    if not (r_lo <= r <= r_hi):
        raise RadiusOutOfRange(
            f"radius {r} outside admissible [{r_lo:.5f}, {r_hi:.5f}] for "
            f"{space} space at T={T}, N={spec.grid.N}",
            admissible=(r_lo, r_hi),
        )
    orbit_pts = (spec.orbit.jk / spec.orbit.l).tolist()
    net = _net_centers_1d(r)

    if space == "physical":
        centers = [q for q, _ in orbit_pts] + list(net)
        cells = len(net)
        vol = 2.0 * r
        hits = misses = [position_interval_mass(psi_n, q, r) for q in centers]
    elif space == "phase":
        if hgrid is None:
            raise ValueError("a phase-space scan reads the Husimi grid hgrid of psi_n; pass it")
        centers = orbit_pts + [(qc, pc) for qc in net for pc in net]
        cells = len(net) ** 2
        vol = math.pi * r * r
        hits, misses = bump_masses(hgrid, centers, r)
    else:
        raise ValueError("space must be 'physical' or 'phase'")

    hits, misses = np.asarray(hits), np.asarray(misses)
    tol = _WITNESS_TOL * psi_n.norm2()
    i_hit = int(np.flatnonzero(hits >= hits.max() - tol)[0])
    i_miss = int(np.flatnonzero(misses <= misses.min() + tol)[0])
    sup_ratio = hits.max() / vol
    inf_ratio = misses.min() / vol
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

# Fourier coefficients of the real symbol whose Weyl/anti-Wick gap the
# waw-gap sweeps measure.
GAP_SYMBOL = {
    (0, 0): 1.0, (1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.2, (0, -1): 0.2, (1, 1): 0.1, (-1, -1): 0.1
}


def _ls_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of y against x, in closed form:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2.

    Raises
    ------
    ValueError
        Unless x holds at least two distinct values.
    """
    dx = np.asarray(x, dtype=float)
    dx = dx - dx.mean()
    dy = np.asarray(y, dtype=float)
    dy = dy - dy.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("a slope needs at least two distinct abscissae")
    return float(np.dot(dx, dy)) / sxx


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    return _ls_slope(np.log(x), np.log(y))


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
    psi: QuantumState
    psi_n: QuantumState
    hgrid: HusimiGrid
    timings: Dict[str, float]


def _config_int(key: str, value, count: Optional[int] = None):
    """A config value that must be exactly an integer, or with count given a
    list of count of them (returned as a tuple).

    Exactly an integer means an int other than a bool, or a float with no
    fractional part; anything else is a ConfigError that names the key.
    """
    if count is not None:
        if not isinstance(value, (list, tuple)) or len(value) != count:
            raise ConfigError(f"config key {key} needs {count} integers, got {value!r}")
        return tuple(_config_int(key, v) for v in value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"config key {key} must be an integer, got {value!r}")


def _config_float(key: str, value) -> float:
    """A config value that must be a finite real number.

    An int or a float passes (not a bool); strings, nan, inf and anything
    else are a ConfigError that names the key.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
    raise ConfigError(f"config key {key} must be a finite number, got {value!r}")


def run_pipeline(config: Dict) -> Experiment:
    """Build a quasimode per config and run every diagnostic.

    Recognized keys: matrix (4 ints), T or orbit_start ([j, k, l]), delta,
    N (optional, else the dimension schedule), phi, C0, c_sep, c1, G,
    frequencies, r_phase, r_physical, seed.  N, T, G and the entries of
    orbit_start and frequencies must be exactly integers (_config_int);
    delta, phi, C0, c_sep, c1, r_phase and r_physical finite numbers
    (_config_float).
    Ball disjointness and resolution are checked before anything is built;
    the propagator, the quasimode and the Husimi grid of psi_n are built
    once and shared by the diagnostics that read them; file emission is
    the CLI's job.
    """
    timings: Dict[str, float] = {}
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        timings[stage] = now - last
        last = now

    cat = validate_cat_map(*config["matrix"])
    delta = _config_float("delta", config.get("delta", 0.24))
    phi = _config_float("phi", config.get("phi", 0.0))
    C0 = _config_float("C0", config.get("C0", BALL_CONSTANT))
    c_sep = _config_float("c_sep", config.get("c_sep", SEP_CONSTANT))
    c1 = _config_float("c1", config.get("c1", C1_CONSTANT))
    G = _config_int("G", config.get("G", 256))
    freqs = config.get("frequencies", DEFAULT_FREQUENCIES)
    if not isinstance(freqs, (list, tuple)):
        raise ConfigError(f"config key frequencies needs a list of pairs, got {freqs!r}")
    freqs = [_config_int("frequencies", n, 2) for n in freqs]

    if "orbit_start" in config:
        j, k, l = _config_int("orbit_start", config["orbit_start"], 3)
        orbit = orbit_through(cat, j, k, l)
        T = orbit.length
    else:
        T = _config_int("T", config["T"])
        orbits = enumerate_prime_orbits(cat, T)
        if not orbits:
            raise PreconditionError(f"no prime orbit of length {T} for {cat}")
        orbit = orbits[0]

    if "N" in config and config["N"] is not None:
        N = _config_int("N", config["N"])
        schedule = None
    else:
        chosen = choose_N(T, delta, cat.lyapunov)
        N = chosen.N
        schedule = {"N": chosen.N, "ehrenfest_ok": chosen.ehrenfest_ok}
    lap("orbit")

    grid = choose_theta(cat, N)
    lap("theta")
    spec = QuasimodeSpec(orbit=orbit, phi=phi, delta=delta, grid=grid, catmap=cat)
    # refuse overlapping or unresolved balls before building anything
    _check_resolution(G, _checked_ball_radius(spec, C0))
    prop = propagator(cat, grid)
    lap("propagator")
    psi, psi_n = build_quasimode(spec, prop)
    res = residual(psi_n, phi, prop)
    lap("quasimode")
    hgrid = husimi(psi_n, cat, G)
    lap("husimi")

    norm_sq = psi.norm2()
    ball = husimi_ball_report(psi, spec, hgrid, C=C0)
    lap("ball_report")
    sc = scmeasure_error(psi_n, spec, freqs)
    lap("scmeasure")

    r_lo = _radius_floor(spec, c_sep)
    r_phase = _config_float(
        "r_phase", config.get("r_phase", min(max(0.1, r_lo), 0.99 * c1 / math.sqrt(T)))
    )
    r_physical = _config_float(
        "r_physical", config.get("r_physical", min(max(0.05, r_lo), 0.99 * c1 / T))
    )
    nq_phase = nonequidistribution_report(
        psi_n, spec, "phase", r_phase, C_sep=c_sep, c1=c1, hgrid=hgrid
    )
    lap("nonequi_phase")
    nq_phys = nonequidistribution_report(
        psi_n, spec, "physical", r_physical, C_sep=c_sep, c1=c1
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
            nq.space: {
                "r": nq.radius,
                "sup_ratio": nq.sup_ratio,
                "inf_ratio": nq.inf_ratio,
                "witnesses": nq.witnesses,
                "cells": nq.cells,
            }
            for nq in (nq_phase, nq_phys)
        },
    }
    return Experiment(
        report=report,
        catmap=cat,
        orbit=orbit,
        grid=grid,
        psi=psi,
        psi_n=psi_n,
        hgrid=hgrid,
        timings=timings,
    )


def propagator_check(catmap: CatMap, N: int, seed: int, states: int, nmax: int) -> Dict:
    """Unitarity and conjugation (Egorov) defects of the propagator at N.

    U is applied to `states` seeded random unit vectors; the conjugation
    law is checked on the first five of them over n in [-nmax, nmax]^2.
    """
    if states < 1 or nmax < 0:
        raise ConfigError(f"need states >= 1 and nmax >= 0, got states {states}, nmax {nmax}")
    grid = choose_theta(catmap, N)
    u = propagator(catmap, grid)
    vecs = random_states(np.random.default_rng(seed), N, states)
    unit = max(abs(_norm(u.apply(s)) - 1.0) for s in vecs)
    return {
        "matrix": list(catmap.entries),
        "N": N,
        "theta": [grid.theta[0], grid.theta[1]],
        "unitarity_defect": unit,
        "egorov_defect": egorov_defect(u, catmap, grid, vecs[:5], nmax),
        "states": states,
        "nmax": nmax,
    }


_SweepTable = Tuple[List[str], List[List[float]], float]


def waw_gap_sweep(catmap: CatMap, ladder: Sequence[int]) -> _SweepTable:
    """Weyl/anti-Wick gap of GAP_SYMBOL at each N of the ladder.

    Each gap is the norm of a sum of six damped translations, found matrix
    free (weyl_antiwick_gap), so time and memory grow like N per Lanczos
    step and no N is too large for memory.  Returns (header, rows, slope),
    the slope that of log gap against log N.  A ladder with an N below 1
    is refused before the first gap is computed.
    """
    grids = [choose_theta(catmap, N) for N in ladder]
    sym = Symbol.from_fourier(GAP_SYMBOL, real=True)
    rows = [[g.N, g.hbar, weyl_antiwick_gap(sym, catmap, g)] for g in grids]
    return ["N", "hbar", "gap"], rows, loglog_slope(ladder, [r[2] for r in rows])


def husimi_width_sweep(catmap: CatMap, N: int, ladder: Sequence[int], G: int) -> _SweepTable:
    """Husimi variances of U^t |0> along both axes at each time t of the ladder.

    Each row carries the unstable-axis law hbar/(1 - tanh(lambda t)); the
    slope is that of log var_unstable against t.
    """
    if min(ladder) < 0:
        raise ConfigError(f"ladder times must be >= 0, got {min(ladder)}")
    grid = choose_theta(catmap, N)
    u = propagator(catmap, grid)
    amp = torus_coherent((0.0, 0.0), catmap, grid).amplitudes
    rows = []
    for t in range(0, max(ladder) + 1):
        if t > 0:
            amp = u.apply(amp)
        if t in ladder:
            h = husimi(QuantumState(amp, grid), catmap, G)
            var_u, var_s = axis_variances(h, catmap, (0.0, 0.0))
            theory = grid.hbar / (1.0 - math.tanh(catmap.lyapunov * t))
            rows.append([t, var_u, var_s, theory])
    slope = _ls_slope([r[0] for r in rows], np.log([r[1] for r in rows]))
    return ["t", "var_unstable", "var_stable", "theory_unstable"], rows, slope


def scmeasure_sweep(
    catmap: CatMap, ladder: Sequence[int], T: int, delta: float
) -> _SweepTable:
    """Semiclassical-measure error of the first prime T-orbit's quasimode at each N.

    The error is max_n |<e_n^aw> - mu_gamma(e_n)| over DEFAULT_FREQUENCIES;
    the slope is that of log error against log N.  Every ladder point's
    spec is checked before the first quasimode is built.
    """
    orbit = enumerate_prime_orbits(catmap, T)[0]
    specs = [
        QuasimodeSpec(
            orbit=orbit, phi=0.0, delta=delta, grid=choose_theta(catmap, N), catmap=catmap
        )
        for N in ladder
    ]
    rows = []
    for spec in specs:
        _, psi_n = build_quasimode(spec)
        err = scmeasure_error(psi_n, spec, DEFAULT_FREQUENCIES).max_error
        rows.append([spec.grid.N, spec.grid.hbar, err])
    return ["N", "hbar", "max_error"], rows, loglog_slope(ladder, [r[2] for r in rows])
