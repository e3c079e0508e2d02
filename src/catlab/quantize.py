"""Weyl and anti-Wick quantization of torus symbols, matrix free.

Weyl operators are finite sums of quantum translations.  For a plane wave
the anti-Wick operator is a damped translation,

    A^aw(e_n) = d_z(n) T(n),  d_z(n) = exp(-pi |n1 z0 - n2|^2 / (2 N Im z0)),

with z0 = coherent.z_parameter(catmap): the coherent projector's Fourier
coefficients are Gaussian in n.  So anti-Wick values of Fourier symbols
come from the state alone, sum_n c_n d_z(n) <psi|T(n) psi>, in O(N) per
distinct n1 and per frequency, with no Husimi grid and no aliasing; see
antiwick_plane_waves.  Other symbols are integrated against the Husimi
density on a G x G grid: a bump symbol is evaluated only on the cells of
its support ball, any other symbol on the full grid.  The Weyl/anti-Wick
gap is the norm of the translation sum sum_n c_n (1 - d_z(n)) T(n),
found by Lanczos iteration through the translations' apply and adjoint;
no N x N array is built anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .classical import CatMap, min_image
from .coherent import HusimiGrid, husimi, z_parameter
from .errors import RadiusOutOfRange
from .hilbert import LinearMap, PlanckGrid, QuantumState, translation

__all__ = [
    "Symbol",
    "weyl_quantize",
    "antiwick_plane_waves",
    "antiwick_expectation",
    "bump_symbols",
    "position_interval_mass",
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
    the closed form for them.  rho is the small-scale class exponent,
    recorded for rate bookkeeping.  support_ball, set by bump_symbols, is a
    (center, radius) ball outside which fn is exactly 0.
    """

    fourier: Optional[Dict[Freq, complex]] = None
    fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    rho: float = 0.0
    real: bool = False
    label: str = ""
    support_ball: Optional[Tuple[Tuple[float, float], float]] = None

    def __post_init__(self):
        if self.fourier is None and self.fn is None:
            raise ValueError("symbol needs fourier data or an evaluation rule")
        if not (0.0 <= self.rho < 0.5):
            raise ValueError("rho must lie in [0, 1/2)")
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

    @staticmethod
    def plane_wave(n: Freq) -> "Symbol":
        return Symbol(fourier={(int(n[0]), int(n[1])): 1.0}, label=f"e_{n}")

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
    """Weyl operator sum_n a~(n) T_N(n), applied as stacked shift-phases."""
    if symbol.fourier is None:
        raise ValueError("Weyl quantization needs Fourier data")
    terms = [(translation(n, grid), c) for n, c in sorted(symbol.fourier.items())]

    def apply(vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec, dtype=complex)
        for t, c in terms:
            out += c * t.apply(vec)
        return out

    def adjoint(vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec, dtype=complex)
        for t, c in terms:
            out += np.conj(c) * t.apply_adjoint(vec)
        return out

    return LinearMap(
        grid.N,
        apply,
        adjoint,
        label=f"weyl({symbol.label or len(terms)} terms)",
    )


def _damping(catmap: CatMap, N: int, freqs: Sequence[Freq]) -> np.ndarray:
    """d_z(n) = exp(-pi |n1 z0 - n2|^2 / (2 N Im z0)) for each frequency."""
    z0 = z_parameter(catmap)
    n = np.asarray(freqs, dtype=float).reshape(-1, 2)
    return np.exp(-math.pi * np.abs(n[:, 0] * z0 - n[:, 1]) ** 2 / (2.0 * N * z0.imag))


def _roots_of_unity(N: int) -> np.ndarray:
    """exp(2 pi i j / N) for j in [0, N), to about 2 ulp.

    The outer product of two tables of about sqrt(N) exponentials: one
    length-N complex multiplication instead of N complex exps.
    """
    B = math.isqrt(N - 1) + 1
    coarse = np.exp(2j * math.pi * (B * np.arange(-(-N // B))) / N)
    fine = np.exp(2j * math.pi * np.arange(B) / N)
    return np.outer(coarse, fine).ravel()[:N]


def antiwick_plane_waves(
    psi: QuantumState, catmap: CatMap, freqs: Sequence[Freq]
) -> np.ndarray:
    """<psi| e_n^aw |psi> = d_z(n) <psi|T(n) psi> for each frequency n.

    T(n) psi at site j is exp(2 pi i n2 (j + eta - n1/2)/N) exp(-i theta1 w_j)
    psi[j - n1 mod N], where w_j = floor((j - n1)/N) counts the wraps.  So
    one product conj(psi[j]) psi[j - n1 mod N], twisted on the wrapped
    sites, serves every frequency with that n1, and each n2 takes its dot
    product with the powers omega^(n2 j) of one table of N-th roots of
    unity: no translation and no exp of length N per frequency.  As
    T(-n) = T(n)*, a pair n, -n costs one dot product.
    """
    grid = psi.grid
    N, eta, theta1 = grid.N, grid.eta, grid.theta[0]
    amp = psi.amplitudes
    conj_amp = np.conj(amp)
    j = np.arange(N)
    roots = _roots_of_unity(N)
    powers = {1: roots}
    # each pair n, -n through its member with n1 > 0, or n1 = 0 and n2 >= 0
    wanted: Dict[int, set] = {}
    for n in freqs:
        n1, n2 = max((int(n[0]), int(n[1])), (-int(n[0]), -int(n[1])))
        wanted.setdefault(n1, set()).add(n2)
    overlaps: Dict[Freq, complex] = {}
    prod = np.empty(N, dtype=complex)
    conj_prod = np.empty(N, dtype=complex)
    for n1, n2s in wanted.items():
        # w_j = -(q + 1) on the sites j < s and -q on the others
        s, q = n1 % N, n1 // N
        np.multiply(conj_amp[:s], amp[N - s :], out=prod[:s])
        np.multiply(conj_amp[s:], amp[: N - s], out=prod[s:])
        if theta1:
            prod[:s] *= np.exp(1j * theta1 * (q + 1))
            prod[s:] *= np.exp(1j * theta1 * q)
        np.conj(prod, out=conj_prod)
        for n2 in n2s:
            k = abs(n2)
            if k == 0:
                dot = prod.sum()
            else:
                if k not in powers:
                    powers[k] = roots.take(k * j, mode="wrap")
                # omega^(-k j) = conj(omega^(k j)): a negative n2 reads
                # conj(prod); einsum, not BLAS (see _real_inner)
                if n2 > 0:
                    dot = np.einsum("j,j->", prod, powers[k])
                else:
                    dot = np.conj(np.einsum("j,j->", conj_prod, powers[k]))
            phase = np.exp(2j * math.pi * ((n2 * (eta - n1 / 2.0) / N) % 1.0))
            overlaps[n1, n2] = phase * dot
    values = [
        overlaps[n] if n in overlaps else np.conj(overlaps[-n[0], -n[1]])
        for n in ((int(n[0]), int(n[1])) for n in freqs)
    ]
    return _damping(catmap, N, freqs) * np.array(values, dtype=complex)


def antiwick_expectation(
    psi: QuantumState,
    symbol: Symbol,
    catmap: CatMap,
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> complex:
    """<psi| a^aw |psi>.

    A Fourier symbol takes the closed form sum_n c_n d_z(n) <psi|T(n) psi>
    (antiwick_plane_waves) and reads neither G nor hgrid.  Any other
    symbol is integrated against the Husimi density of psi on a G x G grid;
    pass a precomputed HusimiGrid to amortize it over many symbols.
    Symbols with a support ball are evaluated only on the cells within its
    radius on both axes.
    """
    if symbol.fn is None:
        freqs = sorted(symbol.fourier)
        coefs = np.array([symbol.fourier[n] for n in freqs], dtype=complex)
        return complex(np.dot(coefs, antiwick_plane_waves(psi, catmap, freqs)))
    if hgrid is None:
        hgrid = husimi(psi, catmap, G)
    H = hgrid.values
    c = hgrid.centers()
    if symbol.support_ball is not None:
        (q0, p0), radius = symbol.support_ball
        iq = np.flatnonzero(np.abs(min_image(c - q0)) <= radius)
        ip = np.flatnonzero(np.abs(min_image(c - p0)) <= radius)
        vals = symbol.fn(c[iq, None], c[None, ip])
        return complex(np.sum(vals * H[np.ix_(iq, ip)]) * hgrid.weight)
    vals = symbol.sample(hgrid.G)
    return complex(np.sum(vals * H) * hgrid.weight)


# ---------------------------------------------------------------------------
# Bump symbols
# ---------------------------------------------------------------------------

_PROFILE_TABLE: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _transition_profile(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 1 at s <= -1 to 0 at s >= 1.

    Normalized integral of exp(-1/(1 - u^2)); both endpoints are flat to
    all orders.  Evaluated through a dense cached table (Simpson weights on
    8193 points, interpolation error ~1e-8).
    """
    global _PROFILE_TABLE
    if _PROFILE_TABLE is None:
        M = 8193
        u = np.linspace(-1.0, 1.0, M)
        g = np.zeros(M)
        interior = np.abs(u) < 1.0
        g[interior] = np.exp(-1.0 / (1.0 - u[interior] ** 2))
        w = np.ones(M)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = u[1] - u[0]
        cum = np.concatenate([[0.0], np.cumsum((g[:-1] + g[1:]) * h / 2.0)])
        ramp = 1.0 - cum / cum[-1]
        _PROFILE_TABLE = (u, ramp)
    u, ramp = _PROFILE_TABLE
    return np.interp(np.clip(s, -1.0, 1.0), u, ramp)


def _torus_radial(q, p, x0):
    return np.hypot(min_image(np.asarray(q) - x0[0]), min_image(np.asarray(p) - x0[1]))


def bump_symbols(x0: Sequence[float], r: float) -> Tuple[Symbol, Symbol]:
    """Smooth lower/upper approximations of the indicator of B2(x0, r).

    b- is 1 on B2(x0, 2r/3) and supported in B2(x0, r); b+ is 1 on
    B2(x0, r) and supported in B2(x0, 3r/2); both use the standard
    exp(-1/(1-s^2)) transition, so b- <= indicator <= b+ pointwise.

    Raises
    ------
    RadiusOutOfRange
        Unless 0 < r < 1/4.
    """
    if not (0.0 < r < 0.25):
        raise RadiusOutOfRange(f"bump radius {r} outside (0, 1/4)", admissible=(0.0, 0.25))
    x0 = (float(x0[0]), float(x0[1]))

    def make(r_in: float, r_out: float, label: str) -> Symbol:
        def fn(q, p):
            # 1 inside r_in, 0 from r_out on, the ramp on the open annulus
            # between; the annulus is empty when r_in == r_out (radii near
            # the smallest floats), so the ramp never divides by zero
            rho = np.asarray(_torus_radial(q, p, x0))
            out = np.where((rho <= r_in) & (rho < r_out), 1.0, 0.0)
            ramp = (rho > r_in) & (rho < r_out)
            out[ramp] = _transition_profile(
                (2.0 * rho[ramp] - (r_out + r_in)) / (r_out - r_in)
            )
            return out

        return Symbol(fn=fn, real=True, label=label, support_ball=(x0, r_out))

    lower = make(2.0 * r / 3.0, r, f"bump-({x0},{r})")
    upper = make(r, 1.5 * r, f"bump+({x0},{r})")
    return lower, upper


# ---------------------------------------------------------------------------
# Position-space masses
# ---------------------------------------------------------------------------

def position_interval_mass(psi: QuantumState, q0: float, r: float) -> float:
    """Mass of psi in the circle interval B1(q0, r): the squared amplitudes
    of the sites in the interval (exact)."""
    if not (0.0 < r <= 0.5):
        raise RadiusOutOfRange(f"interval radius {r} outside (0, 1/2]", admissible=(0.0, 0.5))
    d = np.abs(min_image(psi.grid.sites() - q0))
    return float(np.sum(np.abs(psi.amplitudes[d <= r]) ** 2))


# ---------------------------------------------------------------------------
# The Weyl/anti-Wick gap
# ---------------------------------------------------------------------------

def _real_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Re <x|y> of two contiguous complex vectors, as one real einsum: the
    BLAS level-1 routines behind np.vdot and np.linalg.norm can be far
    slower on some multithreaded builds."""
    return float(np.einsum("i,i->", x.view(float), y.view(float)))


def weyl_antiwick_gap(symbol: Symbol, catmap: CatMap, grid: PlanckGrid) -> float:
    """Operator norm of a^w - a^aw, matrix free.

    The difference is the translation sum D = sum_n c_n (1 - d_z(n)) T(n).
    Its norm is the square root of the top eigenvalue of D* D, found by a
    three-term Lanczos recurrence from a seeded random start, D and D*
    applied through the translations.  The iteration stops when the top
    Ritz pair's residual is below _LANCZOS_TOL of its Ritz value, or after
    N steps, when the Krylov space is all of H_N.  Scales like
    hbar^(1 - 2 rho).
    """
    if symbol.fourier is None:
        raise ValueError("gap computation needs Fourier data for the Weyl side")
    freqs = sorted(symbol.fourier)
    damping = _damping(catmap, grid.N, freqs)
    coeffs = {
        n: symbol.fourier[n] * (1.0 - d) for n, d in zip(freqs, damping) if d != 1.0
    }
    D = weyl_quantize(Symbol.from_fourier(coeffs), grid)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    v /= math.sqrt(_real_inner(v, v))
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    for step in range(1, grid.N + 1):
        w = D.apply_adjoint(D.apply(v))
        alpha = _real_inner(v, w)
        w -= alpha * v + beta * v_prev
        beta = math.sqrt(_real_inner(w, w))
        alphas.append(alpha)
        if step % _LANCZOS_CHECK == 0 or step == grid.N or beta == 0.0:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz, vecs = np.linalg.eigh(tri)
            if beta * abs(vecs[-1, -1]) <= _LANCZOS_TOL * ritz[-1] or beta == 0.0:
                break
        betas.append(beta)
        v_prev, v = v, w / beta
    return math.sqrt(max(ritz[-1], 0.0))
