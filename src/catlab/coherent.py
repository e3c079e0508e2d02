"""Squeezed coherent states on the torus and Husimi analysis.

The plane Gaussian adapted to a map has complex width parameter z0 (upper
half plane), obtained from the frame parameters (b1, b2) by a Moebius
transform; its wavefunction is sampled at the theta-shifted sites and
periodized, which realizes the torus projector exactly up to a controlled
Gaussian tail.  One windowed transform, _coherent_window, holds the
window bounds and the untwisted Gaussian weights, and hilbert._twist the
theta1 twist of wrapped sites; coherent states and Husimi grids both read
their windows from them.  The width parameter is the caller's: Husimi
grids use z0.  A coherent state is a TorusGaussian value, sampled once on
one cyclic run of sites, when first read.  The cat map is metaplectic,
so U carries it to another in closed form (TorusGaussian.step): centre,
width and phase come from the map's entries and exact rationals, with
no window, no row of U and no vector of length N.  Ball masses
and variances read a Husimi grid that the caller builds, and
_check_resolution states once what a grid and a ball read from it must
resolve.  (Anti-Wick values of Fourier symbols need no window:
quantize.py takes them in closed form.)

A Husimi grid is one G-point FFT per position column, of the column's
window overlaps folded mod G.  Column a's weights depend on a only
through N a/G mod 1, so the columns share P = G/gcd(N, G) weight rows
(P = 1 when G divides N); the twist and the fold's signs and half-cell
phases depend only on the site, so they are applied once, to one
extension of psi.  A column whose window reads no nonzero amplitude of
psi is exactly +0.0 and is left so; the live columns go in blocks: a
strided gather of the extension, times the shared rows, a reshape-sum
fold and one batched FFT.  A G x G grid costs O(live columns (K + G log
G)) + O(N) time for windows of K sites, and O(B K + N) memory besides its
output for blocks of B columns.  Ball masses, and quantize.bump_masses,
copy the cells they read slice by slice (_read_block).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import CatMap, min_image
from .errors import ConfigError, ResolutionTooCoarse, TruncationFailure
from .hilbert import (
    PlanckGrid,
    QuantumState,
    _require_invariant_theta,
    _residues,
    _site_offset,
    _twist,
    _unit_phase,
)

__all__ = [
    "HusimiGrid",
    "z_parameter",
    "TorusGaussian",
    "torus_coherent",
    "evolve_coherent",
    "husimi",
    "ball_mass",
    "axis_variances",
]

TAIL_LOG = math.log(1e14)  # periodization tail threshold, relative to peak
MAX_WRAPS = 64
# husimi transforms this many position columns at a time: numpy's per-call
# cost is shared, while a block's (B, K) window rows stay small
_HUSIMI_BLOCK = 64


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi density sampled at grid centers ((a+1/2)/G, (b+1/2)/G).

    values[a, b] = N |<x_ab, c0, theta | psi>|^2; the quadrature weight of
    each cell is 1/G^2, so values.mean() approximates the squared norm of
    the analyzed state.
    """

    values: np.ndarray
    G: int
    grid: PlanckGrid
    state_norm2: float
    map_entries: Tuple[int, int, int, int]

    @property
    def weight(self) -> float:
        return 1.0 / (self.G * self.G)

    def total(self) -> float:
        return float(self.values.sum() * self.weight)

    def centers(self) -> np.ndarray:
        return (np.arange(self.G) + 0.5) / self.G


def z_parameter(catmap: CatMap) -> complex:
    """Upper-half-plane width parameter of the map-adapted coherent state.

    z0 is the image of i under the Moebius action of R(b1) B(b2); the
    adapted Gaussian is proportional to exp(i pi N z0 q^2) at hbar =
    1/(2 pi N).  For symmetric matrices b2 = 0 and z0 = i.
    """
    b1, b2 = catmap.b1, catmap.b2
    zb = complex(math.tanh(2 * b2), 1.0 / math.cosh(2 * b2))
    num = math.sin(b1) + math.cos(b1) * zb
    den = math.cos(b1) - math.sin(b1) * zb
    return num / den


def _truncation_cut(grid: PlanckGrid, im_z0: float) -> float:
    """Half-width (torus units) beyond which the Gaussian tail is < 1e-14."""
    cut = math.sqrt(TAIL_LOG / (math.pi * grid.N * im_z0))
    if math.ceil(cut) > MAX_WRAPS:
        raise TruncationFailure(
            f"periodization needs {math.ceil(cut)} lattice translates (> {MAX_WRAPS}); "
            "squeeze too extreme for this N"
        )
    return cut


def _check_resolution(G: int, radius: Optional[float] = None) -> None:
    """The Husimi resolution precondition: a G x G grid needs G >= 16, and a
    ball read from it radius >= 2/G.  A failure is ResolutionTooCoarse,
    naming G and, for a ball, the least G that resolves it.  A radius
    <= 0, which no G resolves, is a ConfigError."""
    if G < 16:
        raise ResolutionTooCoarse(f"G = {G} < 16")
    if radius is not None and radius <= 0:
        raise ConfigError(f"ball radius {radius} must be positive")
    if radius is not None and radius < 2.0 / G:
        raise ResolutionTooCoarse(
            f"ball radius {radius} < 2/G = {2.0 / G} at G = {G}; "
            f"G >= {math.ceil(2.0 / radius)} resolves it"
        )


def _coherent_window(
    grid: PlanckGrid, z: complex, G: Optional[int] = None
) -> Tuple[Callable[..., Tuple], Callable[..., Tuple]]:
    """The windowed coherent-state transform behind every consumer.

    Returns (span, window).  span(q) maps an array of P position centers q
    to the first extended site of each center's window and the window's
    length in sites, both (P,), with no exp; window(q) maps them to the
    extended site indices m and the untwisted Gaussian weights, both (P, K):

        w[i, k] = c0 exp(i pi N z (y_m - q_i)^2),

    with m = m[i, k], y_m = (m + eta)/N, z the caller's width parameter
    (z_parameter(catmap) for Husimi grids) and c0 = (2 N Im z)^(1/4).
    Row i starts at the first site of center i's window, which holds the
    Gaussian down to 1e-14 of its peak; the rows share the longest
    window's length K, and cells past a center's own window weigh 0.  A
    wrapped site m stands for |m mod N> twisted by _twist(grid, m // N),
    which undoes the exp(-i theta1) that an amplitude picks up when its
    index wraps past N: sum_k w[i, k] twist[i, k] |m mod N> is the plane
    Gaussian projected onto H_{N,theta}, and
    sum_k conj(w[i, k] twist[i, k]) psi[m mod N] is its overlap with psi.
    The weights depend on a center only through N q mod 1, which husimi
    uses to share rows between columns.  window([q0], point) with the full
    center point = (q0, p0) also puts the momentum phase into the weights:
    the row is the coherent state at point, up to the twist.

    With G the centers belong to a G x G midpoint quadrature: G < 16 is
    refused (_check_resolution), and a G below sqrt(2 pi N) =
    1/sqrt(hbar), where the quadrature aliases, warns once, at the
    caller's caller.
    """
    N, eta = grid.N, grid.eta
    if G is not None:
        _check_resolution(G)
        if G < 1.0 / math.sqrt(grid.hbar):
            warnings.warn(
                f"Husimi grid G={G} does not resolve sqrt(hbar) at N={N}; "
                "quadrature identities may degrade",
                stacklevel=3,
            )
    cut = _truncation_cut(grid, z.imag)
    c0 = (2.0 * N * z.imag) ** 0.25

    def span(q: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)
        lo = np.floor(N * (q - cut) - eta).astype(np.int64)
        return lo, np.ceil(N * (q + cut) - eta).astype(np.int64) - lo + 1

    def window(
        q: Sequence[float], point: Optional[Sequence] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        lo, length = span(q)
        k = np.arange(length.max())
        m = lo[:, None] + k
        dy = (m + eta) / N - np.asarray(q, dtype=float)[:, None]
        scale = c0 if point is None else c0 * _momentum_phase(grid, point, m)
        w = scale * np.exp(1j * math.pi * N * z * dy * dy)
        w[k >= length[:, None]] = 0.0
        return m, w

    return span, window


def _momentum_phase(grid: PlanckGrid, x0: Sequence, m: np.ndarray) -> np.ndarray:
    """exp(2 pi i p0 (m + eta)) exp(-i pi N p0 q0) at extended sites m.

    The momentum half of the coherent state at x0 = (q0, p0).  The
    argument grows with m; when both coordinates of the center are
    Fractions it is reduced exactly, with the grid's exact eta, by the
    Hilbert layer's residue rule (hilbert._residues), and taken as a
    unit phase.
    """
    N = grid.N
    q0f, p0f = x0[0], x0[1]
    if isinstance(q0f, Fraction) and isinstance(p0f, Fraction):
        # p0 (m + eta) = kp (qe m + pe) / (lp qe), reduced mod lp qe exactly
        kp, lp = p0f.numerator, p0f.denominator
        pe, qe = _site_offset(grid)
        denom = lp * qe
        s = _residues([(kp * qe, m % denom), (kp * pe, 1)], denom)
        # constant phase exp(-i pi N p0 q0) = exp(2 pi i (-N kp kq)/(2 lp lq))
        D = 2 * lp * q0f.denominator
        return _unit_phase(s, denom) * _unit_phase(-N * kp * q0f.numerator % D, D)
    q0, p0 = float(q0f), float(p0f)
    mom = np.exp(2j * np.pi * np.mod(p0 * (m + grid.eta), 1.0))
    return mom * cmath.exp(-1j * math.pi * N * p0 * q0)


def _sigma(u: Tuple, v: Tuple):
    """The symplectic form u1 v2 - u2 v1."""
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class TorusGaussian:
    """kappa g: a unit phase times the torus coherent state g at x (exact
    for Fraction coordinates) with width parameter z.  g's amplitudes are
    N^{-1/2} sum_w exp(i theta1 w) G(q_j + w), G the plane Gaussian, cut
    where its tail drops below 1e-14 of the peak; its squared norm is 1 up
    to that tail.  A width that needs more than 64 lattice translates is
    refused on construction, in O(1), with TruncationFailure."""

    x: Tuple
    z: complex
    grid: PlanckGrid
    kappa: complex = 1 + 0j

    def __post_init__(self):
        _truncation_cut(self.grid, self.z.imag)

    @cached_property
    def window(self) -> Tuple[int, np.ndarray]:
        """(first, values): g is values[k] at site (first + k) mod N and 0
        elsewhere.  A window of more than N sites is folded, its wraps added
        in site order, onto a run of all N sites.  Evaluated once, O(K)."""
        N = self.grid.N
        _, window = _coherent_window(self.grid, self.z)
        m, w = window([self.x[0]], self.x)
        m, w = m[0], w[0] * _twist(self.grid, m[0] // N)
        if m.size > N:
            w = np.concatenate([w, np.zeros(-m.size % N, dtype=complex)]).reshape(-1, N).sum(axis=0)
        return int(m[0] % N), w / math.sqrt(N)

    @cached_property
    def sites(self) -> np.ndarray:
        """The window's run of sites, (first + k) mod N."""
        first, values = self.window
        sites = np.arange(first, first + values.size)
        sites[self.grid.N - first :] -= self.grid.N
        return sites

    def state(self) -> QuantumState:
        """kappa g as a length-N state."""
        amp = np.zeros(self.grid.N, dtype=complex)
        # kappa = 1 writes the window's bytes as they are
        amp[self.sites] = self.window[1] if self.kappa == 1 else self.kappa * self.window[1]
        return QuantumState(amp, self.grid)

    def step(self, catmap: CatMap) -> "TorusGaussian":
        """U kappa g = kappa' g', in O(1): no window is evaluated.  The cat
        map is metaplectic, so the centre moves to x' = M x mod 1, the width
        takes the Moebius step z' = (c + d z)/(a + b z), and the phase
        follows from exact rationals and one principal square root:

            kappa' = kappa (a + b z)^(-1/2) |a + b z|^(1/2) e(s),
            s = sgn(b)/8 + N (sigma(x', e) - sigma(e, k))/2
                + (k1 theta1/pi + k2 theta2/pi + N k1 k2)/2 mod 1,

        with e(s) = exp(2 pi i s), sigma(u, v) = u1 v2 - u2 v1, X = M x
        exact (a float centre is its exact binary value), k = round(X - x')
        the winding and e = X - k, which is x' itself for Fraction centres.
        sgn(b)/8 is the Fresnel integral's turn, the k terms the phase of
        the lattice translation that carries X back to the torus, and the
        sigma(x', e) term corrects a float x' rounded off its exact image.
        The arg of a + b z never meets the branch cut: Im(a + b z) = b Im z
        is not 0.  Holds on a grid whose theta U preserves; any other is
        refused with NoInvariantTheta."""
        _require_invariant_theta(catmap, self.grid)
        a, b, c, d = catmap.entries
        q, p = self.x
        x = ((a * q + b * p) % 1, (c * q + d * p) % 1)
        q, p = Fraction(q), Fraction(p)
        X = (a * q + b * p, c * q + d * p)
        image = (Fraction(x[0]), Fraction(x[1]))
        k = (round(X[0] - image[0]), round(X[1] - image[1]))
        e = (X[0] - k[0], X[1] - k[1])
        y0, y1 = self.grid.theta_over_pi
        N = self.grid.N
        s = Fraction(1 if b > 0 else -1, 8) + N * (_sigma(image, e) - _sigma(e, k)) / 2
        s = (s + (k[0] * y0 + k[1] * y1 + N * k[0] * k[1]) / 2) % 1
        w = a + b * self.z
        kappa = self.kappa * cmath.exp(1j * (2 * math.pi * float(s) - cmath.phase(w) / 2))
        return TorusGaussian(x, (c + d * self.z) / w, self.grid, kappa)

    def overlap(self, other: "TorusGaussian") -> complex:
        """<self|other>, over the sites the two runs share: O(K)."""
        first, values = self.window
        other_first, other_values = other.window
        # other's sites as positions in self's run; those past its end are not in it
        at = (other_first - first + np.arange(other_values.size)) % self.grid.N
        both = at < values.size
        inner = complex(np.einsum("i,i->", np.conj(values[at[both]]), other_values[both]))
        return self.kappa.conjugate() * other.kappa * inner


def torus_coherent(
    x0: Sequence, catmap: CatMap, grid: PlanckGrid, z: Optional[complex] = None
) -> QuantumState:
    """The TorusGaussian at x0, kappa = 1, with width parameter z, by
    default the map-adapted z0 = z_parameter(catmap), as a state.  Exact
    centers, as Orbit.start() gives, are (Fraction, Fraction) pairs.  A
    width that needs more than 64 lattice translates is a TruncationFailure."""
    return TorusGaussian(x0, z_parameter(catmap) if z is None else z, grid).state()


def evolve_coherent(
    x0: Sequence, catmap: CatMap, grid: PlanckGrid, t: int
) -> Tuple[complex, Tuple, complex]:
    """(kappa_t, x_t, z_t) with U^t torus_coherent(x0, catmap, grid) =
    kappa_t torus_coherent(x_t, catmap, grid, z = z_t), by t TorusGaussian
    steps: O(t) work, no window and no propagator.  Holds to the Gaussian
    truncation while t is inside the time window.  t < 0 is a
    ConfigError, a grid whose theta U does not preserve a NoInvariantTheta,
    and a width z_s, s <= t, that needs more than 64 lattice translates a
    TruncationFailure, raised by the step that reaches it."""
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t}")
    g = TorusGaussian(tuple(x0), z_parameter(catmap), grid)
    for _ in range(t):
        g = g.step(catmap)
    return g.kappa, g.x, g.z


def husimi(psi: QuantumState, catmap: CatMap, G: int) -> HusimiGrid:
    """Husimi density of psi on a G x G grid, analyzed with the map squeeze.

    values[a, b] = N |<x_ab, c0, theta | psi>|^2 is |sum_m conj(w_a[m] t[m])
    psi[m mod N] e^(-2 pi i m (b + 1/2)/G)|^2 over column a's window sites
    m, with w_a its _coherent_window row and t = _twist(grid, m // N).  The site
    factors conj(t) and e^(-i pi m/G) go into one extension f of psi
    (_husimi_extension), and the momentum row is the G-point FFT of
    conj(w_a) f folded mod G: moving the window only rotates the row's
    phase.  A column whose window reads no nonzero amplitude of psi is
    exactly +0.0, so only the live columns (_live_columns) are
    transformed, _HUSIMI_BLOCK at a time.  Column a + P, P = G/gcd(N, G),
    has column a's weights moved by N P/G sites, so the P rows of the
    first columns serve all of them; when P > _HUSIMI_BLOCK each block
    evaluates the rows of its own columns.  Identical (to roundoff) to
    evaluating the overlaps pointwise.  Warns when G does not resolve
    sqrt(hbar).
    """
    grid = psi.grid
    N = grid.N
    span, window = _coherent_window(grid, z_parameter(catmap), G)
    centers = (np.arange(G) + 0.5) / G
    P = G // math.gcd(N, G)
    if P <= _HUSIMI_BLOCK:
        columns = np.arange(G)
        lo, length = span(centers[:P])
        lo = lo[columns % P] + columns // P * (N * P // G)
        length = length[columns % P]
        table = np.conj(window(centers[:P])[1])
    else:
        lo, length = span(centers)
    live = _live_columns(psi, lo, length)
    values = np.zeros((G, G))
    f = None
    for first in range(0, live.size, _HUSIMI_BLOCK):
        cols = live[first : first + _HUSIMI_BLOCK]
        if P <= _HUSIMI_BLOCK:
            weights = table[cols % P]
        else:
            weights = np.conj(window(centers[cols])[1])
        K = weights.shape[1]
        if f is None or f.size < N + K:
            f = _husimi_extension(psi, G, N + K)
        # f(m + N) = f(m) times a unit constant, so a window read N sites
        # early changes its row by a phase only
        rows = sliding_window_view(f, K)[lo[cols] % N]
        rows *= weights
        whole = K - K % G
        folded = rows[:, :whole].reshape(len(cols), -1, G).sum(axis=1)
        folded[:, : K - whole] += rows[:, whole:]
        values[cols] = np.abs(np.fft.fft(folded, axis=1)) ** 2
    return HusimiGrid(
        values=values,
        G=G,
        grid=grid,
        state_norm2=psi.norm2(),
        map_entries=catmap.entries,
    )


def _live_columns(psi: QuantumState, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The ascending indices i whose window, the length[i] sites from
    extended site lo[i] taken mod N, reads a nonzero amplitude of psi:
    O(log N) per window, from the sorted sites of psi's support."""
    N = psi.grid.N
    support = np.flatnonzero(psi.amplitudes)
    start = lo % N
    end = start + np.minimum(length, N)
    held = np.searchsorted(support, np.minimum(end, N)) - np.searchsorted(support, start)
    # a window past site N - 1 reads on from site 0
    held += np.searchsorted(support, end - N)
    return np.flatnonzero(held)


def _husimi_extension(psi: QuantumState, G: int, length: int) -> np.ndarray:
    """f(m) = conj(_twist(m // N)) e^(-i pi m/G) psi[m mod N] for m = 0, 1, ...,
    at least length of them.

    e^(-i pi m/G) is the sign (-1)^(m // G) of the fold mod G times the
    half-cell phase e^(-i pi (m mod G)/G) of the grid's momentum centers.
    Built in place, in one array: the phase repeats every 2G sites, and
    the twist is one factor per wrap of N sites.
    """
    amp, N = psi.amplitudes, psi.grid.N
    f = np.empty(-(-length // (2 * G)) * 2 * G, dtype=complex)
    starts = np.arange(0, f.size, N)
    for start in starts:
        f[start : start + N] = amp[: f.size - start]
    half = _unit_phase(-np.arange(G) % (2 * G), 2 * G)
    periods = f.reshape(-1, 2 * G)  # a view of f
    periods *= np.concatenate([half, -half])
    for start, twist in zip(starts, _twist(psi.grid, starts // N)):
        f[start : start + N] *= np.conj(twist)
    return f


def ball_mass(hgrid: HusimiGrid, center: Sequence[float], radius: float) -> float:
    """Husimi mass of the geodesic ball B2(center, radius), read from hgrid.

    The midpoint quadrature over the cells whose centers fall in the ball;
    the radius must be at least 2/G (_check_resolution).
    """
    _check_resolution(hgrid.G, radius)
    c = hgrid.centers()
    dq2 = min_image(c - center[0]) ** 2
    dp2 = min_image(c - center[1]) ** 2
    # only rows and columns within the radius can hold cells of the
    # ball; the sub-block keeps the cells in row-major order
    rows = np.flatnonzero(dq2 <= radius * radius)
    cols = np.flatnonzero(dp2 <= radius * radius)
    inside = dq2[rows, None] + dp2[None, cols] <= radius * radius
    return float(_read_block(hgrid.values, rows, cols)[inside].sum() * hgrid.weight)


def _read_block(values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """values[np.ix_(rows, cols)] as a C-contiguous copy, read slice by
    slice: rows and cols are each a few runs of consecutive indices (a
    run of cells mod G, or an ascending run split at the seam), so the
    block is a few rectangles copied whole instead of a gather."""
    block = np.empty((rows.size, cols.size), dtype=values.dtype)
    for i, r in _runs(rows):
        for j, c in _runs(cols):
            block[i : i + r.stop - r.start, j : j + c.stop - c.start] = values[r, c]
    return block


def _runs(index: np.ndarray) -> List[Tuple[int, slice]]:
    """index, ascending or a run of distinct integers consecutive mod G, as
    runs of consecutive integers: (position in index, slice) pairs."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return [(0, slice(int(index[0]), int(index[-1]) + 1))]
    cut = [0, *(np.flatnonzero(np.diff(index) != 1) + 1).tolist(), index.size]
    return [(s, slice(int(index[s]), int(index[e - 1]) + 1)) for s, e in zip(cut, cut[1:]) if e > s]


def axis_variances(
    hgrid: HusimiGrid, catmap: CatMap, center: Sequence[float] = (0.0, 0.0)
) -> Tuple[float, float]:
    """Husimi second moments along the unstable/stable frame axes.

    Grid coordinates are unwrapped to the minimal image around the center
    and expressed in the frame coordinates Q^{-1} x, where Q = R(b1) B(b2);
    returns the (variance_unstable, variance_stable) pair of the
    normalized density.  The frame coordinates are linear in (q, p), so
    their variances come from the density's covariance: the row and
    column marginals and one dq w dp, O(G^2) with no coordinate arrays.
    The moments are taken about the density's mean, so a center far
    from it cancels no digits.
    """
    c = hgrid.centers()
    w = hgrid.values / hgrid.values.sum()
    wq, wp = w.sum(axis=1), w.sum(axis=0)
    dq = min_image(c - center[0])
    dp = min_image(c - center[1])
    dq, dp = dq - wq @ dq, dp - wp @ dp
    cross = dq @ w @ dp
    cov = np.array([[wq @ dq**2, cross], [cross, wp @ dp**2]])
    Qinv = np.linalg.inv(catmap.frame_matrix())
    var_u, var_s = np.diag(Qinv @ cov @ Qinv.T)
    return float(var_u), float(var_s)
