"""Weyl and anti-Wick quantization of torus symbols, matrix free.

Weyl operators are finite sums of quantum translations.  For a plane wave
the anti-Wick operator is a damped translation,

    A^aw(e_n) = d_z(n) T(n),  d_z(n) = exp(-pi |n1 z0 - n2|^2 / (2 N Im z0)),

with z0 = coherent.z_parameter(catmap): the coherent projector's Fourier
coefficients are Gaussian in n.  So anti-Wick values of Fourier symbols
come from the state alone, sum_n c_n d_z(n) <psi|T(n) psi>, in O(N) per
distinct n1 and per frequency, with no Husimi grid and no aliasing; see
antiwick_plane_waves.  Other symbols are sampled on every cell of a
Husimi grid that the caller builds and integrated against it.
bump_masses integrates a whole scan of bumps of one radius at once: a
bump's cell values depend on its center only through the center's offset
within its grid cell, so each radial profile is evaluated once per
distinct offset.
Weyl operators, and the Weyl/anti-Wick difference sum_n c_n (1 - d_z(n))
T(n), are translation sums, which hilbert.py builds (_shift_phase_terms,
_shift_phase_map): the translations that share a shift n1 mod N share it
in one phase vector, so an apply is one cyclic shift and multiply per
distinct n1.  The gap is the norm of that difference, found by Lanczos
iteration; no N x N array is built anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classical import CatMap, min_image
from .coherent import HusimiGrid, _read_block, z_parameter
from .errors import RadiusOutOfRange
from .hilbert import (
    LinearMap,
    PlanckGrid,
    QuantumState,
    _adjoint_terms,
    _norm,
    _phase_progression,
    _real_inner,
    _shift_phase_map,
    _shift_phase_sum,
    _shift_phase_terms,
    _site_offset,
    _unit_phase,
    _wrap_twist,
    random_states,
)

__all__ = [
    "Symbol",
    "weyl_quantize",
    "antiwick_plane_waves",
    "antiwick_expectation",
    "bump_symbols",
    "bump_masses",
    "position_interval_mass",
    "position_interval_masses",
    "weyl_antiwick_gap",
]

Freq = Tuple[int, int]

# the gap's Lanczos iteration stops once its top Ritz pair has a residual
# below this fraction of the Ritz value, checked every _LANCZOS_CHECK steps
_LANCZOS_TOL = 1e-10
_LANCZOS_CHECK = 10


@dataclass
class Symbol:
    """A torus observable: finite Fourier data and/or a sampling rule.

    fourier maps integer frequencies n to coefficients of
    exp(2 pi i (n ^ x)) with n ^ x = n2 x1 - n1 x2.  fn(q, p) evaluates the
    symbol on (broadcastable) coordinate arrays.  Fourier symbols keep fn
    None: evaluate sums their plane waves, and antiwick_expectation takes
    the closed form for them.
    """

    fourier: Optional[Dict[Freq, complex]] = None
    fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    real: bool = False
    label: str = ""

    def __post_init__(self):
        if self.fourier is None and self.fn is None:
            raise ValueError("symbol needs fourier data or an evaluation rule")
        if self.fourier is not None:
            self.fourier = {
                (int(n[0]), int(n[1])): complex(c) for n, c in self.fourier.items()
            }
            if self.real:
                for n, c in self.fourier.items():
                    cneg = self.fourier.get((-n[0], -n[1]), 0.0)
                    if abs(c - np.conj(cneg)) > 1e-12:
                        raise ValueError(
                            f"real symbol must have Hermitian-symmetric "
                            f"coefficients; violated at n={n}"
                        )

    @staticmethod
    def from_fourier(coeffs: Dict[Freq, complex], real: bool = False, label: str = "") -> "Symbol":
        return Symbol(fourier=dict(coeffs), real=real, label=label)

    def evaluate(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        if self.fn is not None:
            return self.fn(q, p)
        out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for (n1, n2), c in self.fourier.items():
            out = out + c * np.exp(2j * np.pi * (n2 * q - n1 * p))
        return out

    def sample(self, G: int) -> np.ndarray:
        """Values on the G x G grid of cell centers, a-index = position."""
        c = (np.arange(G) + 0.5) / G
        return self.evaluate(c[:, None], c[None, :])


def weyl_quantize(symbol: Symbol, grid: PlanckGrid) -> LinearMap:
    """Weyl operator sum_n a~(n) T_N(n): an apply, or adjoint, is one cyclic
    shift and phase multiply per distinct n1 mod N (hilbert._shift_phase_terms)."""
    if symbol.fourier is None:
        raise ValueError("Weyl quantization needs Fourier data")
    terms = _shift_phase_terms(symbol.fourier, grid)
    return _shift_phase_map(terms, grid.N, f"weyl({symbol.label or len(symbol.fourier)} terms)")


def _damping(catmap: CatMap, N: int, freqs: Sequence[Freq]) -> np.ndarray:
    """d_z(n) = exp(-pi |n1 z0 - n2|^2 / (2 N Im z0)) for each frequency."""
    z0 = z_parameter(catmap)
    n = np.asarray(freqs, dtype=float).reshape(-1, 2)
    return np.exp(-math.pi * np.abs(n[:, 0] * z0 - n[:, 1]) ** 2 / (2.0 * N * z0.imag))


def antiwick_plane_waves(
    psi: QuantumState, catmap: CatMap, freqs: Sequence[Freq]
) -> np.ndarray:
    """<psi| e_n^aw |psi> = d_z(n) <psi|T(n) psi> for each frequency n.

    T(n) psi at site j is exp(2 pi i n2 (j + eta - n1/2)/N) exp(-i theta1 w_j)
    psi[j - n1 mod N], where w_j = floor((j - n1)/N) counts the wraps.  So
    one product conj(psi[j]) psi[j - n1 mod N], twisted on the wrapped
    sites, serves every frequency with that n1, and each n2 takes its dot
    product with the powers omega^(n2 j) of the N-th roots of unity, one
    exact progression per |n2|: no translation and no exp of length N per
    frequency.  As T(-n) = T(n)*, a pair n, -n costs one dot product.
    """
    grid = psi.grid
    N = grid.N
    p, q_eta = _site_offset(grid)
    amp = psi.amplitudes
    conj_amp = np.conj(amp)
    powers: Dict[int, np.ndarray] = {}
    # each pair n, -n through its member with n1 > 0, or n1 = 0 and n2 >= 0
    wanted: Dict[int, set] = {}
    for n in freqs:
        n1, n2 = max((int(n[0]), int(n[1])), (-int(n[0]), -int(n[1])))
        wanted.setdefault(n1, set()).add(n2)
    overlaps: Dict[Freq, complex] = {}
    prod = np.empty(N, dtype=complex)
    conj_prod = np.empty(N, dtype=complex)
    for n1, n2s in wanted.items():
        s = n1 % N
        np.multiply(conj_amp[:s], amp[N - s :], out=prod[:s])
        np.multiply(conj_amp[s:], amp[: N - s], out=prod[s:])
        _wrap_twist(grid, n1, prod)
        np.conj(prod, out=conj_prod)
        for n2 in n2s:
            k = abs(n2)
            if k == 0:
                dot = prod.sum()
            else:
                if k not in powers:
                    powers[k] = _phase_progression(0, k, N, N)
                # omega^(-k j) = conj(omega^(k j)): a negative n2 reads
                # conj(prod); einsum, not BLAS (see hilbert._real_inner)
                if n2 > 0:
                    dot = np.einsum("j,j->", prod, powers[k])
                else:
                    dot = np.conj(np.einsum("j,j->", conj_prod, powers[k]))
            # exp(2 pi i n2 (eta - n1/2)/N), reduced exactly
            phase = _unit_phase((n2 * (p - n1 * q_eta // 2)) % (q_eta * N), q_eta * N)
            overlaps[n1, n2] = phase * dot
    values = [
        overlaps[n] if n in overlaps else np.conj(overlaps[-n[0], -n[1]])
        for n in ((int(n[0]), int(n[1])) for n in freqs)
    ]
    return _damping(catmap, N, freqs) * np.array(values, dtype=complex)


def antiwick_expectation(
    psi: QuantumState, symbol: Symbol, catmap: CatMap, hgrid: Optional[HusimiGrid] = None
) -> complex:
    """<psi| a^aw |psi>.

    A Fourier symbol takes the closed form sum_n c_n d_z(n) <psi|T(n) psi>
    (antiwick_plane_waves) and reads no grid.  Any other symbol is sampled
    on every cell of hgrid, the Husimi grid of psi that the caller builds,
    and integrated against it.

    Raises
    ------
    ValueError
        For a symbol without Fourier data when hgrid is not given.
    """
    if symbol.fn is None:
        freqs = sorted(symbol.fourier)
        coefs = np.array([symbol.fourier[n] for n in freqs], dtype=complex)
        return complex(np.dot(coefs, antiwick_plane_waves(psi, catmap, freqs)))
    if hgrid is None:
        raise ValueError("a sampled symbol needs hgrid, the Husimi grid of psi")
    return complex(np.sum(symbol.sample(hgrid.G) * hgrid.values) * hgrid.weight)


# ---------------------------------------------------------------------------
# Bump symbols
# ---------------------------------------------------------------------------

_PROFILE_TABLE: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _transition_profile(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 1 at s <= -1 to 0 at s >= 1.

    Normalized integral of exp(-1/(1 - u^2)); both endpoints are flat to
    all orders.  Evaluated through a dense cached table (a trapezoid
    cumulative sum on 8193 points, interpolation error ~1e-8).
    """
    global _PROFILE_TABLE
    if _PROFILE_TABLE is None:
        M = 8193
        u = np.linspace(-1.0, 1.0, M)
        g = np.zeros(M)
        interior = np.abs(u) < 1.0
        g[interior] = np.exp(-1.0 / (1.0 - u[interior] ** 2))
        h = u[1] - u[0]
        cum = np.concatenate([[0.0], np.cumsum((g[:-1] + g[1:]) * h / 2.0)])
        ramp = 1.0 - cum / cum[-1]
        _PROFILE_TABLE = (u, ramp)
    u, ramp = _PROFILE_TABLE
    return np.interp(np.clip(s, -1.0, 1.0), u, ramp)


def _torus_radial(q, p, x0):
    return np.hypot(min_image(np.asarray(q) - x0[0]), min_image(np.asarray(p) - x0[1]))


def _bump_radii(r: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """(r_in, r_out) of the lower and the upper bump of radius r.

    Raises
    ------
    RadiusOutOfRange
        Unless 0 < r < 1/4.
    """
    if not (0.0 < r < 0.25):
        raise RadiusOutOfRange(f"bump radius {r} outside (0, 1/4)", admissible=(0.0, 0.25))
    return (2.0 * r / 3.0, r), (r, 1.5 * r)


def _bump_profile(rho: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """The radial bump: 1 inside r_in, 0 from r_out on, the ramp between.

    The annulus is empty when r_in == r_out (radii near the smallest
    floats), so the ramp never divides by zero.
    """
    rho = np.asarray(rho)
    out = np.where((rho <= r_in) & (rho < r_out), 1.0, 0.0)
    ramp = (rho > r_in) & (rho < r_out)
    out[ramp] = _transition_profile((2.0 * rho[ramp] - (r_out + r_in)) / (r_out - r_in))
    return out


def bump_symbols(x0: Sequence[float], r: float) -> Tuple[Symbol, Symbol]:
    """Smooth lower/upper approximations of the indicator of B2(x0, r).

    b- is 1 on B2(x0, 2r/3) and supported in B2(x0, r); b+ is 1 on
    B2(x0, r) and supported in B2(x0, 3r/2); both use the standard
    exp(-1/(1-s^2)) transition, so b- <= indicator <= b+ pointwise.
    Scans use bump_masses; these symbols, through antiwick_expectation,
    are the oracle it is held to.

    Raises
    ------
    RadiusOutOfRange
        Unless 0 < r < 1/4.
    """
    radii = _bump_radii(r)
    x0 = (float(x0[0]), float(x0[1]))

    def make(r_in: float, r_out: float, label: str) -> Symbol:
        def fn(q, p):
            return _bump_profile(_torus_radial(q, p, x0), r_in, r_out)

        return Symbol(fn=fn, real=True, label=label)

    lower = make(*radii[0], f"bump-({x0},{r})")
    upper = make(*radii[1], f"bump+({x0},{r})")
    return lower, upper


def bump_masses(
    hgrid: HusimiGrid, centers: Sequence[Sequence[float]], r: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Anti-Wick values of both bump_symbols(x, r) for every center x, on hgrid.

    Returns the (lower, upper) arrays; entry i equals antiwick_expectation
    of bump_symbols(centers[i], r) against hgrid, to roundoff.  A cell's
    offset from a center x is (k + 1/2 - f)/G on each axis, with k an
    integer and f = frac(G x): so a bump's values on its support cells
    depend on x only through (f_q, f_p).  A bump whose patch rows are all
    zero has mass 0.0 and evaluates nothing; any other evaluates its
    profile once per distinct pair, on a patch ordered by k, and its mass
    is one multiply-sum of that patch against the patch's cells, copied
    from the grid slice by slice (coherent._read_block).

    Raises
    ------
    RadiusOutOfRange
        Unless 0 < r < 1/4.
    """
    G = hgrid.G
    radii = _bump_radii(r)
    scaled = np.asarray(centers, dtype=float).reshape(-1, 2) * G
    base = np.floor(scaled)
    frac = scaled - base
    base = base.astype(np.int64)
    live = hgrid.values.any(axis=1)
    masses = np.zeros((2, len(scaled)))
    offsets: Dict[Tuple[float, int], Tuple[np.ndarray, np.ndarray]] = {}
    profiles: Dict[Tuple[float, float, int], np.ndarray] = {}

    def axis(f: float, side: int) -> Tuple[np.ndarray, np.ndarray]:
        if (f, side) not in offsets:
            offsets[f, side] = _bump_offsets(G, f, radii[side][1])
        return offsets[f, side]

    for i in range(len(scaled)):
        for side, (r_in, r_out) in enumerate(radii):
            kq, dq = axis(frac[i, 0], side)
            rows = (base[i, 0] + kq) % G
            if not live[rows].any():
                continue
            kp, dp = axis(frac[i, 1], side)
            key = (frac[i, 0], frac[i, 1], side)
            if key not in profiles:
                profiles[key] = _bump_profile(np.hypot(dq[:, None], dp[None, :]), r_in, r_out)
            cells = _read_block(hgrid.values, rows, (base[i, 1] + kp) % G)
            masses[side, i] = np.einsum("ij,ij->", cells, profiles[key]) * hgrid.weight
    return masses[0], masses[1]


def _bump_offsets(G: int, f: float, r_out: float) -> Tuple[np.ndarray, np.ndarray]:
    """The cell offsets k on one axis within r_out of a center with
    sub-cell offset f, and their distances (k + 1/2 - f)/G."""
    reach = int(math.ceil(G * r_out)) + 1
    k = np.arange(-reach, reach + 1)
    d = (k + 0.5 - f) / G
    inside = np.abs(d) <= r_out
    return k[inside], d[inside]


# ---------------------------------------------------------------------------
# Position-space masses
# ---------------------------------------------------------------------------

def _interval_run(grid: PlanckGrid, q0: float, r: float) -> Tuple[int, int]:
    """(first, count): the sites j with |min_image((j + eta)/N - q0)| <= r,
    the float test as the site mask evaluates it, are the count sites
    first, first + 1, ... taken mod N.  The run's ends come from the
    interval's closed form and are moved until the sites at them pass and
    their outer neighbours fail that same test."""
    N, eta = grid.N, grid.eta

    def inside(j: int) -> bool:
        return bool(np.abs(min_image((np.array([j % N]) + eta) / N - q0))[0] <= r)

    centre, half = N * q0 - eta, N * r
    lo, hi = math.ceil(centre - half), math.floor(centre + half)
    while hi - lo + 1 < N and inside(lo - 1):
        lo -= 1
    while lo <= hi and not inside(lo):
        lo += 1
    while hi - lo + 1 < N and inside(hi + 1):
        hi += 1
    while hi >= lo and not inside(hi):
        hi -= 1
    return lo % N, min(max(hi - lo + 1, 0), N)


def position_interval_masses(
    psi: QuantumState, centers: Sequence[float], r: float
) -> List[float]:
    """Mass of psi in each circle interval B1(q0, r), q0 in centers: the
    squared amplitudes of the sites in the interval (exact).

    |psi|^2 is formed once; each interval's sites are one run mod N
    (_interval_run), so its mass is one slice sum, or for a run that wraps
    past N the sum of its two slices joined in site order.  That is the
    sum of the masked sites in the mask's order, so each mass equals the
    sum over a site mask, bit for bit.
    """
    if not (0.0 < r <= 0.5):
        raise RadiusOutOfRange(f"interval radius {r} outside (0, 1/2]", admissible=(0.0, 0.5))
    density = np.abs(psi.amplitudes) ** 2
    N = psi.grid.N
    masses = []
    for q0 in centers:
        first, count = _interval_run(psi.grid, q0, r)
        if first + count <= N:
            run = density[first : first + count]
        else:
            run = np.concatenate((density[: first + count - N], density[first:]))
        masses.append(float(np.sum(run)))
    return masses


def position_interval_mass(psi: QuantumState, q0: float, r: float) -> float:
    """Mass of psi in the circle interval B1(q0, r) (position_interval_masses)."""
    return position_interval_masses(psi, [q0], r)[0]


# ---------------------------------------------------------------------------
# The Weyl/anti-Wick gap
# ---------------------------------------------------------------------------

def weyl_antiwick_gap(symbol: Symbol, catmap: CatMap, grid: PlanckGrid) -> float:
    """Operator norm of a^w - a^aw, matrix free.

    The difference is the translation sum D = sum_n c_n (1 - d_z(n)) T(n).
    Its norm is the square root of the top eigenvalue of D* D, found by a
    three-term Lanczos recurrence from a seeded random start, D and D*
    applied as one shift-phase per distinct n1 mod N (_shift_phase_terms,
    _adjoint_terms) into buffers that every step reuses.  The iteration
    stops when the top Ritz pair's residual is below _LANCZOS_TOL of its
    Ritz value, or after N steps, when the Krylov space is all of H_N.
    Scales like hbar for a fixed smooth symbol.
    """
    if symbol.fourier is None:
        raise ValueError("gap computation needs Fourier data for the Weyl side")
    freqs = sorted(symbol.fourier)
    damping = _damping(catmap, grid.N, freqs)
    coeffs = {
        n: symbol.fourier[n] * (1.0 - d) for n, d in zip(freqs, damping) if d != 1.0
    }
    forward = _shift_phase_terms(coeffs, grid)
    backward = _adjoint_terms(forward)
    v = random_states(np.random.default_rng(0), grid.N, 1)[0]
    # the step's four vectors besides v, reused: v_prev and w trade places
    # with v as the recurrence moves on
    v_prev, w, dv, tmp = (np.zeros_like(v) for _ in range(4))
    alphas, betas = [], []
    beta = 0.0
    for step in range(1, grid.N + 1):
        _shift_phase_sum(forward, v, dv, tmp)
        _shift_phase_sum(backward, dv, w, tmp)
        alpha = _real_inner(v, w)
        w -= np.multiply(v, alpha, out=tmp)
        w -= np.multiply(v_prev, beta, out=tmp)
        beta = _norm(w)
        alphas.append(alpha)
        if step % _LANCZOS_CHECK == 0 or step == grid.N or beta == 0.0:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz, vecs = np.linalg.eigh(tri)
            if beta * abs(vecs[-1, -1]) <= _LANCZOS_TOL * ritz[-1] or beta == 0.0:
                break
        betas.append(beta)
        w /= beta
        v_prev, v, w = v, w, v_prev
    return math.sqrt(max(ritz[-1], 0.0))
