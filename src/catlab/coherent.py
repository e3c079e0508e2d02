"""Squeezed coherent states on the torus and Husimi analysis.

The plane Gaussian adapted to a map has complex width parameter z0 (upper
half plane), obtained from the frame parameters (b1, b2) by a Moebius
transform; its wavefunction is sampled at the theta-shifted sites and
periodized, which realizes the torus projector exactly up to a controlled
Gaussian tail.  One windowed transform, _coherent_window, holds the
window bounds, the Gaussian weights, the theta1 twist of wrapped sites
and the resolution check; coherent states, Husimi grids and pointwise
Husimi values all read their windows from it.  (Anti-Wick values of
Fourier symbols need no window: quantize.py takes them in closed form.)  Husimi grids are evaluated column by column: one
window per position column, folded mod G, and one G-point FFT over the
momentum row, so a full G x G grid costs O(G (K + G log G)) instead of
O(G^2 N).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .classical import CatMap, min_image
from .errors import ResolutionTooCoarse, TruncationFailure
from .hilbert import PlanckGrid, QuantumState

__all__ = [
    "HusimiGrid",
    "z_parameter",
    "torus_coherent",
    "husimi",
    "husimi_at_points",
    "ball_mass",
    "axis_variances",
]

TAIL_LOG = math.log(1e14)  # periodization tail threshold, relative to peak
MAX_WRAPS = 64
# husimi takes the windows of this many columns per transform call: the
# call's fixed cost is shared, and a block's (8, K) weights stay small
_HUSIMI_BLOCK = 8


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


def _coherent_window(
    grid: PlanckGrid, catmap: CatMap, G: Optional[int] = None
) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
    """The windowed coherent-state transform behind every consumer.

    Returns window(q), which maps an array of position centers q to the
    extended site indices m and the twisted Gaussian weights, both (P, K):

        w[i, k] = c0 exp(i pi N z0 (y_m - q_i)^2) exp(i theta1 (m // N)),

    with m = m[i, k], y_m = (m + eta)/N, z0 = z_parameter(catmap) and
    c0 = (2 N Im z0)^(1/4).  Row i starts at the first site of center i's
    window, which holds the Gaussian down to 1e-14 of its peak; the rows
    share the longest window's length K, and cells past a center's own
    window weigh 0.  The twist undoes the exp(-i theta1) that an amplitude
    picks up when its index wraps past N, so sum_k w[i, k] |m mod N> is
    the plane Gaussian projected onto H_{N,theta}, and
    sum_k conj(w[i, k]) psi[m mod N] is its overlap with psi.
    window([q0], point) with the full center point = (q0, p0) also puts
    the momentum phase into the weights: the row is the coherent state
    at point.

    With G the centers belong to a G x G midpoint quadrature: G < 16 is
    refused, and a G below sqrt(2 pi N) = 1/sqrt(hbar), where the
    quadrature aliases, warns once, at the caller's caller.
    """
    N, eta, theta1 = grid.N, grid.eta, grid.theta[0]
    if G is not None:
        if G < 16:
            raise ResolutionTooCoarse(f"G = {G} < 16")
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
        w = w * np.exp(1j * theta1 * (m // N))
        w[k >= length] = 0.0
        return m, w

    return window


def _momentum_phase(grid: PlanckGrid, x0: Sequence, m: np.ndarray) -> np.ndarray:
    """exp(2 pi i p0 (m + eta)) exp(-i pi N p0 q0) at extended sites m.

    The momentum half of the coherent state at x0 = (q0, p0).  The
    argument grows with m; when both coordinates of the center are
    Fractions it is reduced mod 1 in integer arithmetic, with the grid's
    exact eta.
    """
    N = grid.N
    q0f, p0f = x0[0], x0[1]
    if isinstance(q0f, Fraction) and isinstance(p0f, Fraction):
        f = grid.theta_over_pi[1]
        # p0 (m + eta) = kp (qe m + pe) / (lp qe), reduced mod 1 exactly
        kp, lp = p0f.numerator, p0f.denominator
        pe, qe = f.numerator, 2 * f.denominator
        denom = lp * qe
        s = (kp * (qe * m.astype(object) + pe)) % denom
        mom = np.exp(2j * np.pi * s.astype(np.float64) / denom)
        # constant phase exp(-i pi N p0 q0), reduced exactly
        num = (N * kp * q0f.numerator) % (2 * lp * q0f.denominator)
        return mom * cmath.exp(-1j * math.pi * float(num) / (lp * q0f.denominator))
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
    np.add.at(amp, m[0] % grid.N, w[0])
    return QuantumState(amp / math.sqrt(grid.N), grid)


def husimi(psi: QuantumState, catmap: CatMap, G: int) -> HusimiGrid:
    """Husimi density of psi on a G x G grid, analyzed with the map squeeze.

    Column algorithm: for the position column at q_a the window's
    overlaps conj(w) psi are folded mod G with alternating signs, and a
    single G-point FFT produces the whole momentum row.  Identical (to
    roundoff) to evaluating N |<x, c0, theta | psi>|^2 pointwise.  Warns
    when G does not resolve sqrt(hbar).
    """
    grid = psi.grid
    window = _coherent_window(grid, catmap, G)
    centers = (np.arange(G) + 0.5) / G
    half_phase = np.exp(-1j * np.pi * np.arange(G) / G)
    values = np.empty((G, G))
    amp = psi.amplitudes
    for first in range(0, G, _HUSIMI_BLOCK):
        block = window(centers[first : first + _HUSIMI_BLOCK])
        for a, (m, w) in enumerate(zip(*block), first):
            folded = np.zeros(G, dtype=complex)
            sign = 1.0 - 2.0 * ((m // G) % 2)
            np.add.at(folded, m % G, np.conj(w) * amp[m % grid.N] * sign)
            values[a, :] = np.abs(np.fft.fft(folded * half_phase)) ** 2
    return HusimiGrid(
        values=values,
        G=G,
        grid=grid,
        state_norm2=psi.norm2(),
        map_entries=catmap.entries,
    )


def husimi_at_points(
    psi: QuantumState, catmap: CatMap, points: Iterable[Sequence[float]]
) -> np.ndarray:
    """Husimi values at arbitrary phase-space points (pointwise evaluator)."""
    grid = psi.grid
    window = _coherent_window(grid, catmap)
    amp = psi.amplitudes
    out = []
    for x in points:
        x = (float(x[0]), float(x[1]))
        m, w = window([x[0]], x)
        out.append(abs(np.sum(np.conj(w[0]) * amp[m[0] % grid.N])) ** 2)
    return np.asarray(out)


def ball_mass(
    source: Union[HusimiGrid, QuantumState],
    center: Sequence[float],
    radius: float,
    catmap: CatMap | None = None,
) -> float:
    """Husimi mass of the geodesic ball B2(center, radius).

    With a HusimiGrid the mass is the midpoint quadrature over cells whose
    centers fall in the ball (requires radius >= 2/G); with a QuantumState
    the density is evaluated adaptively on a local subgrid fine enough for
    the coherent width, so small balls are supported too.
    """
    if isinstance(source, HusimiGrid):
        G = source.G
        if radius < 2.0 / G:
            raise ResolutionTooCoarse(
                f"radius {radius} < 2/G = {2.0 / G}; use the state-based path"
            )
        c = source.centers()
        dq = min_image(c - center[0])
        dp = min_image(c - center[1])
        inside = (dq * dq)[:, None] + (dp * dp)[None, :] <= radius * radius
        return float(source.values[inside].sum() * source.weight)

    if catmap is None:
        raise ValueError("state-based ball_mass needs the catmap")
    grid = source.grid
    step = min(math.sqrt(grid.hbar) / 3.0, radius / 8.0)
    n = max(8, int(math.ceil(2.0 * radius / step)))
    offs = (np.arange(n) + 0.5) / n * 2.0 * radius - radius
    pts = [
        (center[0] + dq, center[1] + dp)
        for dq in offs
        for dp in offs
        if dq * dq + dp * dp <= radius * radius
    ]
    vals = husimi_at_points(source, catmap, pts)
    cell = (2.0 * radius / n) ** 2
    return float(vals.sum() * cell)


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
