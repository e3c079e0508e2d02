"""Weyl and anti-Wick quantization of torus symbols.

Weyl operators are finite sums of quantum translations and stay matrix
free.  Anti-Wick values are always taken through the Husimi density
(the defining integral) on a G x G grid H.  A Fourier symbol costs O(G^2)
per frequency and no G^2 exp: sum_n c_n e_q(n2)^T H e_p(-n1) with
length-G exponential vectors.  A bump symbol costs O(support cells): it
is evaluated only on the cells of its support ball.  Other symbols are
sampled on the full grid.  The dense anti-Wick operator is materialized
only for the Weyl/anti-Wick comparison at N <= MAX_DENSE_N, assembled by
midpoint quadrature of coherent projectors with a windowed column
algorithm: the symbol rows go through one batched inverse DFT, and each
column's K x K block is added by one cyclic scatter, windows that wrap
the torus folded onto Z_N first.  The gap negates that array in place and
adds the Weyl translations into it, so it holds one N x N array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .classical import CatMap
from .coherent import (
    HusimiGrid,
    _check_resolution,
    _min_image,
    _truncation_cut,
    husimi,
    z_parameter,
)
from .errors import DimensionTooLarge, RadiusOutOfRange, ResolutionTooCoarse
from .hilbert import LinearMap, PlanckGrid, QuantumState, _translation_data, translation

__all__ = [
    "Symbol",
    "weyl_quantize",
    "antiwick_expectation",
    "antiwick_quantize_dense",
    "bump_symbols",
    "position_interval_mass",
    "weyl_antiwick_gap",
]

Freq = Tuple[int, int]

# largest N for which the dense N x N gap path is built
MAX_DENSE_N = 2048


@dataclass
class Symbol:
    """A torus observable: finite Fourier data and/or a sampling rule.

    fourier maps integer frequencies n to coefficients of
    exp(2 pi i (n ^ x)) with n ^ x = n2 x1 - n1 x2.  fn(q, p) evaluates the
    symbol on (broadcastable) coordinate arrays; symbols built from Fourier
    data get fn synthesized automatically.  rho is the small-scale class
    exponent, recorded for rate bookkeeping.  support_ball, set by
    bump_symbols, is a (center, radius) ball outside which fn is exactly 0.
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

    def sup_norm_bound(self) -> float:
        if self.fourier is not None:
            return float(sum(abs(c) for c in self.fourier.values()))
        return float(np.max(np.abs(self.sample(256))))


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


def weyl_dense(symbol: Symbol, grid: PlanckGrid) -> np.ndarray:
    W = np.zeros((grid.N, grid.N), dtype=complex)
    _add_weyl_terms(W, symbol, grid)
    return W


def antiwick_expectation(
    psi: QuantumState,
    symbol: Symbol,
    catmap: CatMap,
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> complex:
    """<psi| a^aw |psi> as the quadrature of a times the Husimi density.

    This integral is the sole access path to anti-Wick values at large N;
    pass a precomputed HusimiGrid to amortize over many symbols.  Fourier
    symbols never sample the grid, and symbols with a support ball are
    evaluated only on the cells within its radius on both axes.
    """
    if hgrid is None:
        hgrid = husimi(psi, catmap, G)
    H = hgrid.values
    c = hgrid.centers()
    if symbol.fn is None:
        total = 0j
        for (n1, n2), coef in symbol.fourier.items():
            ep = np.exp(-2j * np.pi * n1 * c)
            # H is real: two real products, no complex copy of the grid
            row = H @ ep.real + 1j * (H @ ep.imag)
            total += coef * np.dot(np.exp(2j * np.pi * n2 * c), row)
        return complex(total * hgrid.weight)
    if symbol.support_ball is not None:
        (q0, p0), radius = symbol.support_ball
        iq = np.flatnonzero(np.abs(_min_image(c - q0)) <= radius)
        ip = np.flatnonzero(np.abs(_min_image(c - p0)) <= radius)
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
    dq = np.mod(np.asarray(q) - x0[0] + 0.5, 1.0) - 0.5
    dp = np.mod(np.asarray(p) - x0[1] + 0.5, 1.0) - 0.5
    return np.hypot(dq, dp)


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

def position_interval_mass(
    psi: QuantumState,
    q0: float,
    r: float,
    via: str = "direct",
    catmap: Optional[CatMap] = None,
    G: int = 256,
    hgrid: Optional[HusimiGrid] = None,
) -> float:
    """Mass of psi in the circle interval B1(q0, r).

    "direct" sums squared amplitudes over sites in the interval (exact);
    "husimi" integrates the Husimi density over the strip B1(q0, r) x T^1,
    which agrees up to boundary smoothing at the coherent width scale.
    """
    if not (0.0 < r <= 0.5):
        raise RadiusOutOfRange(f"interval radius {r} outside (0, 1/2]", admissible=(0.0, 0.5))
    if via == "direct":
        d = np.abs(np.mod(psi.grid.sites() - q0 + 0.5, 1.0) - 0.5)
        return float(np.sum(np.abs(psi.amplitudes[d <= r]) ** 2))
    if via == "husimi":
        if catmap is None and hgrid is None:
            raise ValueError("husimi path needs the catmap or a HusimiGrid")
        if hgrid is None:
            hgrid = husimi(psi, catmap, G)
        d = np.abs(np.mod(hgrid.centers() - q0 + 0.5, 1.0) - 0.5)
        return float(hgrid.values[d <= r, :].sum() * hgrid.weight)
    raise ValueError(f"unknown path {via!r}; use 'direct' or 'husimi'")


# ---------------------------------------------------------------------------
# Dense anti-Wick assembly and the Weyl/anti-Wick gap
# ---------------------------------------------------------------------------

def antiwick_quantize_dense(
    symbol: Symbol, catmap: CatMap, grid: PlanckGrid, G: int = 256
) -> np.ndarray:
    """Dense N x N anti-Wick operator by midpoint quadrature.

    N integral a(x) |x><x| dx over the G x G grid.  Coherent columns are
    windowed; for each position column the momentum sum is carried by the
    symbol row's inverse DFT, taken for all rows in one batched FFT.  The
    window starts and Gaussian weights of all G columns are (G, K) arrays
    with one common window length K (cells past a column's own window
    weigh 0), and the K x K index-difference table is built once.  Each
    column's block is added by one cyclic scatter into the accumulator;
    a window longer than N wraps the torus and is first folded onto Z_N.
    Assembly costs O(G (K^2 + G log G)) and holds one N x N array.  Warns
    like husimi when G does not resolve sqrt(hbar).
    """
    N = grid.N
    if G < 16:
        raise ResolutionTooCoarse(f"G = {G} < 16")
    _check_resolution(G, grid)
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    c0 = (2.0 * N * z0.imag) ** 0.25
    # the windows of _window_indices, for all position columns at once
    qa = (np.arange(G) + 0.5) / G
    lo = np.floor(N * (qa - cut) - grid.eta).astype(np.int64)
    length = np.ceil(N * (qa + cut) - grid.eta).astype(np.int64) - lo + 1
    K = int(length.max())
    if K > N:
        K = -(-K // N) * N
    k = np.arange(K)
    m = lo[:, None] + k
    dy = (m + grid.eta) / N - qa[:, None]
    w = c0 * np.exp(1j * math.pi * N * z0 * dy * dy)
    w = w * np.exp(-1j * grid.theta[0] * (m // N))
    # the common K must not widen the Gaussian truncation of any column
    w[k[None, :] >= length[:, None]] = 0.0
    wc = np.conj(w)
    # beta[a, d] = sum_b vals[a, b] e^{2 pi i (b + 1/2) d / G} for the
    # differences |d| < K of two window cells, from one batched inverse DFT
    # of the symbol rows; each column reads it as a K x K Toeplitz block
    d = np.arange(1 - K, K)
    base = np.fft.ifft(symbol.sample(G), axis=1) * G
    beta = np.exp(1j * np.pi * d / G) * base[:, d % G]
    toeplitz = k[:, None] - k[None, :] + (K - 1)
    starts = lo % N
    acc = np.zeros((N, N), dtype=complex)
    for a in range(G):
        block = (w[a, :, None] * wc[a, None, :]) * beta[a][toeplitz]
        if K > N:
            block = block.reshape(K // N, N, K // N, N).sum(axis=(0, 2))
        _add_cyclic(acc, block, int(starts[a]))
    acc /= G * G
    return acc


def _add_cyclic(acc: np.ndarray, block: np.ndarray, start: int) -> None:
    """acc[(start + i) % N, (start + j) % N] += block[i, j], block side <= N.

    The cyclic range splits at the seam into at most two slices per axis,
    so the block is added through views, with no index arrays.
    """
    L = len(block)
    c = min(L, len(acc) - start)
    parts = ((slice(0, c), slice(start, start + c)), (slice(c, L), slice(0, L - c)))
    for bi, ai in parts:
        for bj, aj in parts:
            acc[ai, aj] += block[bi, bj]


def _add_weyl_terms(out: np.ndarray, symbol: Symbol, grid: PlanckGrid) -> None:
    """out += sum_n a~(n) T_N(n) in place, N entries per frequency."""
    rows = np.arange(grid.N)
    for n, c in sorted(symbol.fourier.items()):
        n1, phase = _translation_data(n, grid)
        out[rows, (rows - n1) % grid.N] += c * phase


def _operator_norm(mat: np.ndarray, iters: int = 80, seed: int = 0) -> float:
    """Fixed-step lower estimate of the largest singular value.

    Power iteration on A*A for a fixed number of steps from a seeded start,
    with no convergence test, so the result never exceeds the true norm
    and may fall short of it when the top singular values are close.
    A* is applied as conj(conj(A v) A): no conjugate copy of A is made.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = ((mat @ v).conj() @ mat).conj()
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(nw)
        v = w / nw
    return sigma


def weyl_antiwick_gap(
    symbol: Symbol,
    catmap: CatMap,
    grid: PlanckGrid,
    G: int = 256,
    max_dense: int = MAX_DENSE_N,
) -> float:
    """Operator norm of a^w - a^aw, dense path.

    The anti-Wick side comes from the coherent-projector quadrature; it is
    negated in place and the Weyl translations are added into it, so the
    gap holds one N x N array.  The two routes share no code beyond the
    symbol's Fourier data.  Scales like hbar^(1 - 2 rho).

    Raises
    ------
    DimensionTooLarge
        If grid.N exceeds max_dense.
    """
    if grid.N > max_dense:
        raise DimensionTooLarge(f"N = {grid.N} > {max_dense} for the dense gap path")
    if symbol.fourier is None:
        raise ValueError("gap computation needs Fourier data for the Weyl side")
    D = antiwick_quantize_dense(symbol, catmap, grid, G)
    np.negative(D, out=D)
    _add_weyl_terms(D, symbol, grid)
    return _operator_norm(D)
