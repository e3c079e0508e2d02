"""Orbit quasimodes and their diagnostics.

A quasimode is the phased sum of propagated coherent states along a prime
closed orbit.  The cat map is metaplectic, so each propagated state is
again a torus Gaussian, a coherent.TorusGaussian that steps in closed
form: the quasimode is built, and its residual evaluated, without the
propagator.  Within the admissible time window (orbit length at most
delta times the Ehrenfest time, delta < 1/4) the terms occupy disjoint
phase-space balls, which yields the norm law, the residual bound, the ball
decomposition of the Husimi density, recovery of the orbit delta measure,
and small-scale non-equidistribution witnesses.  Each diagnostic here
reports numbers; assertions live in the test suite.
"""

from __future__ import annotations

import cmath
import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, List, Optional, Sequence, Tuple

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
    TorusGaussian,
    _check_resolution,
    _evolved_widths,
    _truncation_cut,
    axis_variances,
    ball_mass,
    husimi,
    torus_coherent,
    z_parameter,
)
from .errors import (
    BallsOverlap,
    ConfigError,
    NTooLarge,
    PreconditionError,
    RadiusOutOfRange,
    ResolutionTooCoarse,
)
from .hilbert import (
    PlanckGrid,
    QuantumState,
    _norm,
    _real_inner,
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
    position_interval_masses,
    weyl_antiwick_gap,
)

__all__ = [
    "QuasimodeSpec",
    "ehrenfest_time",
    "choose_N",
    "build_quasimode",
    "return_amplitude",
    "residual",
    "husimi_ball_report",
    "scmeasure_error",
    "nonequidistribution_report",
    "Experiment",
    "CONFIG",
    "OUTPUTS",
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


def choose_N(T: int, delta: float, lyapunov: float) -> int:
    """Dimension schedule N = ceil(e^{lambda T / delta} / (2 pi)): the least
    N where the time window T <= delta T_E holds.

    Raises
    ------
    NTooLarge
        If the schedule exceeds N_CAP; choose (T, delta) or N manually.
    """
    _check_delta(delta)
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    N = math.ceil(math.exp(lyapunov * T / delta) / (2.0 * math.pi))
    if N > N_CAP:
        raise NTooLarge(
            f"schedule gives N = {N} > cap {N_CAP} for T={T}, delta={delta}; "
            "set N explicitly or reduce T"
        )
    return N


@dataclass(frozen=True)
class QuasimodeSpec:
    """Parameters of one quasimode construction.

    Validates the time-window invariant T <= delta T_E (up to 1e-12 of
    rounding) and the pairing of the Bloch angle with the map.
    """

    orbit: Orbit
    phi: float
    delta: float
    grid: PlanckGrid
    catmap: CatMap

    def __post_init__(self):
        _check_delta(self.delta)
        N = self.grid.N
        window = self.delta * ehrenfest_time(N, self.catmap.lyapunov)
        if self.T > window + 1e-12:
            raise PreconditionError(
                f"orbit length T={self.T} exceeds delta T_E = {window:.4f} at N={N}"
            )
        _require_invariant_theta(self.catmap, self.grid)

    @property
    def T(self) -> int:
        return self.orbit.length

    @cached_property
    def gaussians(self) -> List[TorusGaussian]:
        """U^t x for t = 0, ..., T, x the coherent state at the orbit's
        start: each a TorusGaussian kappa_t g_{x_t, z_t}, one step from the
        last.  Built once per spec and shared by build_quasimode and
        return_amplitude; it does not depend on phi."""
        path = [TorusGaussian(self.orbit.start(), z_parameter(self.catmap), self.grid)]
        for _ in range(self.T):
            path.append(path[-1].step(self.catmap))
        return path


def build_quasimode(spec: QuasimodeSpec) -> Tuple[QuantumState, QuantumState]:
    """Sum_t e^{-i phi t} U^t |x_0, c0, theta> over t < T, and its normalization.

    Each term is a closed-form torus Gaussian, kappa_t g_{x_t, z_t}
    (spec.gaussians): the coherent state at the orbit's canonical point
    x_0 is term 0, and term t sits at the orbit's point x_t with the
    Moebius width z_t.  O(T K) work for windows of K sites, plus the
    length-N sum; no propagator is built.
    """
    psi = spec.gaussians[0].state()
    for t, g in enumerate(spec.gaussians[1 : spec.T], 1):
        psi.amplitudes[g.sites] += (cmath.exp(-1j * spec.phi * t) * g.kappa) * g.window[1]
    return psi, psi.normalized()


def return_amplitude(spec: QuasimodeSpec) -> Tuple[complex, float]:
    """(<x|U^T x>, ||x||^2) for x the coherent state at the orbit's start.

    M^T x = x mod 1, so U^T x = kappa_T g_{x, z_T} and <x|U^T x> is one
    TorusGaussian overlap.  Its modulus is sqrt(2/|tr M^T|) up to the
    Gaussian truncation.
    """
    x = spec.gaussians[0]
    values = x.window[1]
    return x.overlap(spec.gaussians[-1]), float(_real_inner(values, values))


def residual(psi: QuantumState, spec: QuasimodeSpec) -> float:
    """|| (U - e^{i phi}) psi || / ||psi|| for psi = build_quasimode(spec)[0].

    The sum telescopes: U psi - e^{i phi} psi = e^{i phi} (e^{-i phi T}
    U^T x - x), so the residual is sqrt(2 ||x||^2 - 2 Re(e^{-i phi T}
    <x|U^T x>)) / ||psi|| (return_amplitude).  No propagator is built.
    """
    amplitude, x_norm2 = return_amplitude(spec)
    turned = cmath.exp(-1j * spec.phi * spec.T) * amplitude
    return math.sqrt(max(2.0 * (x_norm2 - turned.real), 0.0) / psi.norm2())


def _ball_radius(spec: QuasimodeSpec, C: float) -> float:
    """C sqrt(hbar) e^{lambda T}: the orbit balls' radius, or half the radius floor."""
    return C * math.sqrt(spec.grid.hbar) * math.exp(spec.catmap.lyapunov * spec.T)


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
    rho = _ball_radius(spec, C)
    l = spec.orbit.l
    if 2.0 * rho >= 1.0 / l:
        raise BallsOverlap(
            f"2 rho = {2 * rho:.4f} >= 1/l = {1.0 / l:.4f}; "
            "increase N or decrease C"
        )
    return rho


def _radius_range(spec: QuasimodeSpec, space: str, C_sep: float, c1: float):
    """Admissible non-equidistribution radii [2 C_sep sqrt(hbar) e^{lambda T},
    hi], hi = c1/T in physical space and c1/sqrt(T) in phase space."""
    hi = c1 / spec.T if space == "physical" else c1 / math.sqrt(spec.T)
    return 2.0 * _ball_radius(spec, C_sep), hi


def _check_radius(spec: QuasimodeSpec, space: str, r: float, C_sep: float, c1: float) -> None:
    """Raise RadiusOutOfRange unless r lies in _radius_range."""
    r_lo, r_hi = _radius_range(spec, space, C_sep, c1)
    if not (r_lo <= r <= r_hi):
        raise RadiusOutOfRange(
            f"radius {r} outside admissible [{r_lo:.5f}, {r_hi:.5f}] for "
            f"{space} space at T={spec.T}, N={spec.grid.N}",
            admissible=(r_lo, r_hi),
        )


def _check_frequencies(frequencies: Sequence[Tuple[int, int]]) -> None:
    """Raise PreconditionError for a frequency outside |n|_inf <= 8."""
    for n in frequencies:
        if max(abs(n[0]), abs(n[1])) > 8:
            raise PreconditionError(f"frequency {n} outside |n|_inf <= 8")


def husimi_ball_report(
    psi: QuantumState,
    spec: QuasimodeSpec,
    hgrid: HusimiGrid,
    C: float = BALL_CONSTANT,
) -> Dict:
    """Husimi mass in balls of radius C sqrt(hbar) e^{lambda T} at orbit points.

    Returns the report block: ball_constant C, ball_radius, ball_masses in
    orbit order and off_support, the mass outside the balls.  The balls
    are checked to be disjoint first (see _checked_ball_radius).
    hgrid may be the Husimi grid of any nonzero multiple of psi: the
    density is quadratic in the state, so the masses are read from it
    scaled by ||psi||^2 / hgrid.state_norm2.

    Raises
    ------
    BallsOverlap
        When the balls are not disjoint.
    ResolutionTooCoarse
        When the radius is below 2/G.
    """
    rho = _checked_ball_radius(spec, C)
    scale = psi.norm2() / hgrid.state_norm2
    masses = [ball_mass(hgrid, x, rho) * scale for x in (spec.orbit.jk / spec.orbit.l).tolist()]
    return {
        "ball_constant": C,
        "ball_radius": rho,
        "ball_masses": masses,
        "off_support": hgrid.total() * scale - sum(masses),
    }


def scmeasure_error(
    psi_n: QuantumState,
    spec: QuasimodeSpec,
    frequencies: Sequence[Tuple[int, int]],
) -> Dict:
    """max_n | <psi| e_n^aw |psi> - mu_gamma(e_n) | over the given frequencies.

    Returns the report block: scmeasure maps "n1,n2" to the anti-Wick
    value lhs, the orbit coefficient rhs (each [re, im]) and their
    distance error; scmeasure_max_error is the largest error and
    scmeasure_rate_bound is hbar^{1/2 - delta}.  The anti-Wick values
    come from the state in closed form (antiwick_plane_waves), all
    frequencies in one pass; no Husimi grid.
    """
    _check_frequencies(frequencies)
    values = antiwick_plane_waves(psi_n, spec.catmap, frequencies)
    rows = {}
    worst = 0.0
    for n, value in zip(frequencies, values):
        lhs = complex(value)
        rhs = orbit_fourier_coefficient(spec.orbit, n)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        rows[f"{n[0]},{n[1]}"] = {"lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag],
                                  "error": err}
    return {
        "scmeasure": rows,
        "scmeasure_max_error": worst,
        "scmeasure_rate_bound": spec.grid.hbar ** (0.5 - spec.delta),
    }


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
) -> Dict:
    """Scan ball masses at orbit points plus a 3r-separated net of centers.

    Physical space uses exact interval masses of |psi|^2 and reads no
    grid; phase space uses anti-Wick bump expectations read from hgrid,
    the Husimi grid of psi_n that the caller passes, the lower bump
    certifying hits and the upper bump certifying misses.  Ratios are the
    extreme masses over ball volume; each witness is the first center, in
    scan order, whose mass is within _WITNESS_TOL ||psi_n||^2 of its
    extreme, and reports its own mass.  Returns the report block: r,
    sup_ratio, inf_ratio, witnesses and cells, the number of net cells.

    Raises
    ------
    RadiusOutOfRange
        When r is outside _radius_range(spec, space, C_sep, c1).
    ValueError
        For an unknown space, before the radius is checked, or a
        phase-space scan without hgrid.
    """
    if space not in ("physical", "phase"):
        raise ValueError(f"space must be 'physical' or 'phase', got {space!r}")
    _check_radius(spec, space, r, C_sep, c1)
    orbit_pts = (spec.orbit.jk / spec.orbit.l).tolist()
    net = _net_centers_1d(r)

    if space == "physical":
        centers = [q for q, _ in orbit_pts] + list(net)
        cells = len(net)
        vol = 2.0 * r
        hits = misses = position_interval_masses(psi_n, centers, r)
    else:
        if hgrid is None:
            raise ValueError("a phase-space scan reads the Husimi grid hgrid of psi_n; pass it")
        centers = orbit_pts + [(qc, pc) for qc in net for pc in net]
        cells = len(net) ** 2
        vol = math.pi * r * r
        hits, misses = bump_masses(hgrid, centers, r)

    hits, misses = np.asarray(hits), np.asarray(misses)
    tol = _WITNESS_TOL * psi_n.norm2()
    i_hit = int(np.flatnonzero(hits >= hits.max() - tol)[0])
    i_miss = int(np.flatnonzero(misses <= misses.min() + tol)[0])
    return {
        "r": r,
        "sup_ratio": float(hits.max() / vol),
        "inf_ratio": float(misses.min() / vol),
        "witnesses": {
            "hit": {"center": centers[i_hit], "mass": float(hits[i_hit])},
            "miss": {"center": centers[i_miss], "mass": float(misses[i_miss])},
        },
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# End-to-end experiment
# ---------------------------------------------------------------------------

DEFAULT_FREQUENCIES = tuple(
    (n1, n2) for n1 in range(-2, 3) for n2 in range(-2, 3) if (n1, n2) != (0, 0)
)

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

    config maps every CONFIG key to the value that ran, defaults, the
    chosen orbit's T and orbit_start, the schedule's N and the derived
    radii included; hgrid is the Husimi grid of psi_n at the configured
    G; timings maps each pipeline stage to its wall-clock seconds.
    """

    report: Dict
    config: Dict
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


def _config_positive(key: str, value) -> float:
    """A config value that must be a finite number above 0."""
    x = _config_float(key, value)
    if x <= 0:
        raise ConfigError(f"config key {key} must be positive, got {value!r}")
    return x


def _config_pairs(key: str, value) -> Tuple[Tuple[int, int], ...]:
    """A config value that must be a list of integer pairs."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key} needs a list of pairs, got {value!r}")
    return tuple(_config_int(key, n, 2) for n in value)


# the artifacts catlab quasimode can write beside the report
OUTPUTS = ("state", "husimi", "orbit")


def _config_outputs(key: str, value) -> Tuple[str, ...]:
    """Output names from a list, a comma list or one name, each in OUTPUTS."""
    names = [s.strip() for s in value.split(",")] if isinstance(value, str) else value
    if not isinstance(names, list):
        raise ConfigError(f"config key {key} needs a list of names, got {value!r}")
    unknown = [str(name) for name in names if name not in OUTPUTS]
    if unknown:
        raise ConfigError(
            f"unknown output(s) {', '.join(unknown)} in config key {key}; "
            f"known: {', '.join(OUTPUTS)}"
        )
    return tuple(names)


# Every quasimode config key: (parser, default).  A parser takes (key,
# value) and returns the value or raises a ConfigError naming the key.
# matrix is required, and so is T or orbit_start (T, if given too, must be
# the orbit's period); a default of None is filled in by the run: N by the
# dimension schedule (also for N = None), r_phase and r_physical inside
# their admissible ranges.
CONFIG = {
    "matrix": (partial(_config_int, count=4), None),
    "T": (_config_int, None),
    "orbit_start": (partial(_config_int, count=3), None),
    "N": (lambda key, value: None if value is None else _config_int(key, value), None),
    "delta": (_config_float, 0.24),
    "phi": (_config_float, 0.0),
    "C0": (_config_positive, BALL_CONSTANT),
    "c_sep": (_config_positive, SEP_CONSTANT),
    "c1": (_config_positive, C1_CONSTANT),
    "G": (_config_int, 256),
    "frequencies": (_config_pairs, DEFAULT_FREQUENCIES),
    "r_phase": (_config_float, None),
    "r_physical": (_config_float, None),
    "outputs": (_config_outputs, OUTPUTS),
}


def run_pipeline(config: Dict) -> Experiment:
    """Build a quasimode per config and run every diagnostic.

    The keys, their parsers and their defaults are CONFIG's; an unknown
    key is a ConfigError, and every key is parsed before any work.  outputs
    is read by the CLI only.
    The Gaussian truncation of every width z_t, t <= T, ball disjointness
    and resolution, the frequencies, both non-equidistribution radii and
    the Husimi side G >= sqrt(2 pi N) are checked before anything is
    built.  The quasimode is a sum of T closed-form Gaussians
    (build_quasimode), its residual an identity in the return amplitude
    <x|U^T x> (residual), which the report gives as return_amplitude, its
    modulus and phase for the normalized x; no propagator is built.  The
    quasimode and the Husimi grid of psi_n are built once and shared by
    the diagnostics that read them; file emission is the CLI's job.
    """
    timings: Dict[str, float] = {}
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        timings[stage] = now - last
        last = now

    unknown = [str(key) for key in config if key not in CONFIG]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if "matrix" not in config:
        raise ConfigError("config needs a 'matrix' entry")
    cfg = {key: parse(key, config[key]) if key in config else default
           for key, (parse, default) in CONFIG.items()}
    cat = validate_cat_map(*cfg["matrix"])
    delta, phi, c_sep, c1 = cfg["delta"], cfg["phi"], cfg["c_sep"], cfg["c1"]

    if cfg["orbit_start"] is not None:
        orbit = orbit_through(cat, *cfg["orbit_start"])
        if cfg["T"] not in (None, orbit.length):
            raise ConfigError(
                f"config key T = {cfg['T']} differs from the period {orbit.length} "
                f"of orbit_start {cfg['orbit_start']}"
            )
    elif cfg["T"] is not None:
        orbits = enumerate_prime_orbits(cat, cfg["T"])
        if not orbits:
            raise PreconditionError(f"no prime orbit of length {cfg['T']} for {cat}")
        orbit = orbits[0]
    else:
        raise ConfigError("config needs a 'T' or an 'orbit_start' entry")
    T = cfg["T"] = orbit.length
    cfg["orbit_start"] = (*orbit.jk[0].tolist(), orbit.l)

    schedule = None
    if cfg["N"] is None:
        schedule = {"N": choose_N(T, delta, cat.lyapunov)}
        cfg["N"] = schedule["N"]
    N = cfg["N"]
    lap("orbit")

    grid = choose_theta(cat, N)
    lap("theta")
    spec = QuasimodeSpec(orbit=orbit, phi=phi, delta=delta, grid=grid, catmap=cat)
    # refuse bad truncation, balls, frequencies, radii and G before building anything
    for z in _evolved_widths(cat, T):
        _truncation_cut(grid, z.imag)
    _check_resolution(cfg["G"], _checked_ball_radius(spec, cfg["C0"]))
    _check_frequencies(cfg["frequencies"])
    r_lo, _ = _radius_range(spec, "phase", c_sep, c1)
    if cfg["r_phase"] is None:
        cfg["r_phase"] = min(max(0.1, r_lo), 0.99 * c1 / math.sqrt(T))
    if cfg["r_physical"] is None:
        cfg["r_physical"] = min(max(0.05, r_lo), 0.99 * c1 / T)
    _check_radius(spec, "phase", cfg["r_phase"], c_sep, c1)
    _check_radius(spec, "physical", cfg["r_physical"], c_sep, c1)
    least_G = 1.0 / math.sqrt(grid.hbar)  # as husimi's warning reads it
    if cfg["G"] < least_G:
        raise ResolutionTooCoarse(
            f"G = {cfg['G']} < sqrt(2 pi N) = {least_G:.2f} at N = {N}; "
            f"G >= {math.ceil(least_G)} resolves sqrt(hbar)"
        )
    psi, psi_n = build_quasimode(spec)
    amplitude, x_norm2 = return_amplitude(spec)
    amplitude /= x_norm2
    res = residual(psi, spec)
    lap("quasimode")
    hgrid = husimi(psi_n, cat, cfg["G"])
    lap("husimi")

    report = {
        "matrix": list(cat.entries),
        "lyapunov": cat.lyapunov,
        "T": T,
        "orbit": {"l": orbit.l, "points": orbit.jk.tolist()},
        "N": N,
        "theta": [grid.theta[0], grid.theta[1]],
        "delta": delta,
        "phi": phi,
        "schedule": schedule,
        "norm_sq": psi.norm2(),
        "residual": res,
        "residual_bound": 2.0 / math.sqrt(T),
        "return_amplitude": {"modulus": abs(amplitude), "phase": cmath.phase(amplitude)},
    }
    report.update(husimi_ball_report(psi, spec, hgrid, C=cfg["C0"]))
    lap("ball_report")
    report.update(scmeasure_error(psi_n, spec, cfg["frequencies"]))
    lap("scmeasure")
    report["nonequi"] = {}
    for space in ("phase", "physical"):
        report["nonequi"][space] = nonequidistribution_report(
            psi_n, spec, space, cfg[f"r_{space}"], C_sep=c_sep, c1=c1, hgrid=hgrid
        )
        lap(f"nonequi_{space}")
    return Experiment(
        report=report,
        config=cfg,
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
        err = scmeasure_error(psi_n, spec, DEFAULT_FREQUENCIES)["scmeasure_max_error"]
        rows.append([spec.grid.N, spec.grid.hbar, err])
    return ["N", "hbar", "max_error"], rows, loglog_slope(ladder, [r[2] for r in rows])
