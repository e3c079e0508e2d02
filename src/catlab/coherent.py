"""Squeezed coherent states on the torus and Husimi analysis.

The plane Gaussian adapted to a map has complex width parameter z0 (upper
half plane), obtained from the frame parameters (b1, b2) by a Moebius
transform; its wavefunction is sampled at the theta-shifted sites and
periodized, which realizes the torus projector exactly up to a controlled
Gaussian tail.  One windowed transform, _coherent_window, holds the
window bounds and the untwisted Gaussian weights, and hilbert._twist the
theta1 twist of wrapped sites; coherent states and Husimi grids both read
their windows from them.  Ball masses and variances read a Husimi grid
that the caller builds, and _check_resolution states once what a grid
and a ball read from it must resolve.  (Anti-Wick values of Fourier
symbols need no window: quantize.py takes them in closed form.)

A Husimi grid is one G-point FFT per position column, of the column's
window overlaps folded mod G.  Column a's weights depend on a only
through N a/G mod 1, so the columns share P = G/gcd(N, G) weight rows
(P = 1 when G divides N); the twist and the fold's signs and half-cell
phases depend only on the site, so they are applied once, to one
extension of psi.  Columns then go in blocks: a strided gather of the
extension, times the shared rows, a reshape-sum fold and one batched FFT.
A full G x G grid costs O(G (K + G log G)) time for windows of K sites,
and O(B K + N) memory besides its output for blocks of B columns.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import CatMap, min_image
from .errors import ResolutionTooCoarse, TruncationFailure
from .hilbert import PlanckGrid, QuantumState, _site_offset, _twist, _unit_phase

__all__ = [
    "HusimiGrid",
    "z_parameter",
    "torus_coherent",
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
    naming G and, for a ball, the least G that resolves it."""
    if G < 16:
        raise ResolutionTooCoarse(f"G = {G} < 16")
    if radius is not None and radius < 2.0 / G:
        raise ResolutionTooCoarse(
            f"ball radius {radius} < 2/G = {2.0 / G} at G = {G}; "
            f"G >= {math.ceil(2.0 / radius)} resolves it"
        )


def _coherent_window(
    grid: PlanckGrid, catmap: CatMap, G: Optional[int] = None
) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
    """The windowed coherent-state transform behind every consumer.

    Returns window(q), which maps an array of position centers q to the
    extended site indices m and the untwisted Gaussian weights, both (P, K):

        w[i, k] = c0 exp(i pi N z0 (y_m - q_i)^2),

    with m = m[i, k], y_m = (m + eta)/N, z0 = z_parameter(catmap) and
    c0 = (2 N Im z0)^(1/4).  Row i starts at the first site of center i's
    window, which holds the Gaussian down to 1e-14 of its peak; the rows
    share the longest window's length K, and cells past a center's own
    window weigh 0.  A wrapped site m stands for |m mod N> twisted by
    _twist(grid, m // N), which undoes the exp(-i theta1) that an amplitude
    picks up when its index wraps past N: sum_k w[i, k] twist[i, k]
    |m mod N> is the plane Gaussian projected onto H_{N,theta}, and
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
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    c0 = (2.0 * N * z0.imag) ** 0.25

    def window(
        q: Sequence[float], point: Optional[Sequence] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)[:, None]
        lo = np.floor(N * (q - cut) - eta).astype(np.int64)
        length = np.ceil(N * (q + cut) - eta).astype(np.int64) - lo + 1
        k = np.arange(length.max())
        m = lo + k
        dy = (m + eta) / N - q
        scale = c0 if point is None else c0 * _momentum_phase(grid, point, m)
        w = scale * np.exp(1j * math.pi * N * z0 * dy * dy)
        w[k >= length] = 0.0
        return m, w

    return window


def _momentum_phase(grid: PlanckGrid, x0: Sequence, m: np.ndarray) -> np.ndarray:
    """exp(2 pi i p0 (m + eta)) exp(-i pi N p0 q0) at extended sites m.

    The momentum half of the coherent state at x0 = (q0, p0).  The
    argument grows with m; when both coordinates of the center are
    Fractions it is reduced in integer arithmetic, with the grid's exact
    eta, and taken as a unit phase: int64 residues, Python integers only
    where int64 could overflow.
    """
    N = grid.N
    q0f, p0f = x0[0], x0[1]
    if isinstance(q0f, Fraction) and isinstance(p0f, Fraction):
        # p0 (m + eta) = kp (qe m + pe) / (lp qe), reduced mod lp qe exactly
        kp, lp = p0f.numerator, p0f.denominator
        pe, qe = _site_offset(grid)
        denom = lp * qe
        if abs(kp) * (qe * int(np.abs(m).max()) + pe) < 2**62:
            s = (kp * (qe * m + pe)) % denom
        else:
            s = ((kp * (qe * m.astype(object) + pe)) % denom).astype(np.int64)
        # constant phase exp(-i pi N p0 q0) = exp(2 pi i (-N kp kq)/(2 lp lq))
        D = 2 * lp * q0f.denominator
        return _unit_phase(s, denom) * _unit_phase(-N * kp * q0f.numerator % D, D)
    q0, p0 = float(q0f), float(p0f)
    mom = np.exp(2j * np.pi * np.mod(p0 * (m + grid.eta), 1.0))
    return mom * cmath.exp(-1j * math.pi * N * p0 * q0)


def torus_coherent(x0: Sequence, catmap: CatMap, grid: PlanckGrid) -> QuantumState:
    """Torus coherent state at x0, adapted to the map's squeeze.

    Amplitudes are a_j = N^{-1/2} sum_w exp(i theta1 w) g(q_j + w) with g
    the plane Gaussian of width parameter z_parameter(catmap); the sum is
    truncated where the tail drops below 1e-14 of the peak.  Exact
    centers, as Orbit.start() gives, are (Fraction, Fraction) pairs.  The
    result is not normalized; its squared norm is 1 up to an
    exponentially small error.

    Raises
    ------
    TruncationFailure
        If the truncated sum would need more than 64 lattice translates.
    """
    m, w = _coherent_window(grid, catmap)([x0[0]], x0)
    amp = np.zeros(grid.N, dtype=complex)
    np.add.at(amp, m[0] % grid.N, w[0] * _twist(grid, m[0] // grid.N))
    return QuantumState(amp / math.sqrt(grid.N), grid)


def husimi(psi: QuantumState, catmap: CatMap, G: int) -> HusimiGrid:
    """Husimi density of psi on a G x G grid, analyzed with the map squeeze.

    values[a, b] = N |<x_ab, c0, theta | psi>|^2 is |sum_m conj(w_a[m] t[m])
    psi[m mod N] e^(-2 pi i m (b + 1/2)/G)|^2 over column a's window sites
    m, with w_a its _coherent_window row and t = _twist(grid, m // N).  The site
    factors conj(t) and e^(-i pi m/G) go into one extension f of psi
    (_husimi_extension), and the momentum row is the G-point FFT of
    conj(w_a) f folded mod G: moving the window only rotates the row's
    phase.  Column a + P, P = G/gcd(N, G), has column a's weights moved by
    N P/G sites, so the P rows of the first columns serve all of them;
    when P > _HUSIMI_BLOCK each block evaluates its own.  Identical (to
    roundoff) to evaluating the overlaps pointwise.  Warns when G does not
    resolve sqrt(hbar).
    """
    grid = psi.grid
    N = grid.N
    window = _coherent_window(grid, catmap, G)
    centers = (np.arange(G) + 0.5) / G
    P = G // math.gcd(N, G)
    step = N * P // G
    if P <= _HUSIMI_BLOCK:
        # blocks of whole periods: each block's rows cycle through the table
        block = _HUSIMI_BLOCK // P * P
        m, w = window(centers[:P])
        table = m[:, 0], np.conj(w)
    else:
        block = _HUSIMI_BLOCK
    values = np.empty((G, G))
    f = None
    for first in range(0, G, block):
        cols = np.arange(first, min(first + block, G))
        if P <= _HUSIMI_BLOCK:
            lo = table[0][cols % P] + cols // P * step
            weights = table[1]
        else:
            m, w = window(centers[cols])
            lo, weights = m[:, 0], np.conj(w)
        K = weights.shape[1]
        if f is None or f.size < N + K:
            f = _husimi_extension(psi, G, N + K)
        # f(m + N) = f(m) times a unit constant, so a window read N sites
        # early changes its row by a phase only
        rows = sliding_window_view(f, K)[lo % N]
        periods = rows.reshape(-1, *weights.shape)  # a view of rows
        periods *= weights
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
    return float(hgrid.values[np.ix_(rows, cols)][inside].sum() * hgrid.weight)


def axis_variances(
    hgrid: HusimiGrid, catmap: CatMap, center: Sequence[float] = (0.0, 0.0)
) -> Tuple[float, float]:
    """Husimi second moments along the unstable/stable frame axes.

    Grid coordinates are unwrapped to the minimal image around the center
    and expressed in the frame coordinates Q^{-1} x, where Q = R(b1) B(b2);
    returns the (variance_unstable, variance_stable) pair of the
    normalized density.
    """
    G = hgrid.G
    c = hgrid.centers()
    dq = min_image(c - center[0])
    dp = min_image(c - center[1])
    Qinv = np.linalg.inv(catmap.frame_matrix())
    w = hgrid.values / hgrid.values.sum()
    Xq = np.repeat(dq, G)
    Xp = np.tile(dp, G)
    coords = Qinv @ np.vstack([Xq, Xp])
    wf = w.reshape(-1)
    mu_u = float(np.sum(wf * coords[0]))
    mu_s = float(np.sum(wf * coords[1]))
    var_u = float(np.sum(wf * coords[0] ** 2) - mu_u**2)
    var_s = float(np.sum(wf * coords[1] ** 2) - mu_s**2)
    return var_u, var_s
