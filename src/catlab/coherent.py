"""Squeezed coherent states on the torus and Husimi analysis.

The plane Gaussian adapted to a map has complex width parameter z0 (upper
half plane), obtained from the frame parameters (b1, b2) by a Moebius
transform; its wavefunction is sampled at the theta-shifted sites and
periodized, which realizes the torus projector exactly up to a controlled
Gaussian tail.  Husimi grids are evaluated column by column: a windowed
gather around each position column followed by one G-point FFT over the
momentum row, so a full G x G grid costs O(G (K + G log G)) instead of
O(G^2 N).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .classical import CatMap, RationalPoint
from .errors import ResolutionTooCoarse, TruncationFailure
from .hilbert import PlanckGrid, QuantumState

__all__ = [
    "HusimiGrid",
    "z_parameter",
    "plane_overlap_squeezed",
    "torus_coherent",
    "husimi",
    "husimi_at_points",
    "ball_mass",
    "axis_variances",
]

TAIL_LOG = math.log(1e14)  # periodization tail threshold, relative to peak
MAX_WRAPS = 64

Point = Union[RationalPoint, Tuple[float, float], Sequence]


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
    squeeze: complex
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


def plane_overlap_squeezed(x: Sequence[float], c_tilde: complex, hbar: float) -> complex:
    """Bargmann value <x, 0 | c> of a centered squeezed state on the plane.

    x is given in standard (q, p) coordinates and converted internally to
    the orthogonal eigenframe of the squeeze; the closed form is

        (cosh mu)^{-1/2} exp(-i tanh(mu) qt pt / (2 hbar))
                         exp(-(qt^2/Dq2 + pt^2/Dp2)/2)

    with mu = |c|, Dq2 = 2 hbar/(1 - tanh mu), Dp2 = 2 hbar/(1 + tanh mu).
    """
    mu = abs(c_tilde)
    if mu == 0.0:
        frame_angle = 0.0
    else:
        frame_angle = -cmath.phase(-c_tilde) / 2.0 + math.pi / 4.0
    ca, sa = math.cos(frame_angle), math.sin(frame_angle)
    qt = ca * x[0] + sa * x[1]
    pt = -sa * x[0] + ca * x[1]
    t = math.tanh(mu)
    dq2 = 2.0 * hbar / (1.0 - t)
    dp2 = 2.0 * hbar / (1.0 + t)
    amp = math.exp(-0.5 * (qt * qt / dq2 + pt * pt / dp2)) / math.sqrt(math.cosh(mu))
    return amp * cmath.exp(-1j * t * qt * pt / (2.0 * hbar))


def _center_fractions(x0: Point) -> Tuple[Fraction, Fraction] | None:
    if isinstance(x0, RationalPoint):
        return x0.as_fractions()
    if isinstance(x0[0], Fraction) and isinstance(x0[1], Fraction):
        return (x0[0], x0[1])
    return None


def _truncation_cut(grid: PlanckGrid, im_z0: float) -> float:
    """Half-width (torus units) beyond which the Gaussian tail is < 1e-14."""
    cut = math.sqrt(TAIL_LOG / (math.pi * grid.N * im_z0))
    if math.ceil(cut) > MAX_WRAPS:
        raise TruncationFailure(
            f"periodization needs {math.ceil(cut)} lattice translates (> {MAX_WRAPS}); "
            "squeeze too extreme for this N"
        )
    return cut


def _window_indices(grid: PlanckGrid, q0: float, cut: float) -> np.ndarray:
    lo = math.floor(grid.N * (q0 - cut) - grid.eta)
    hi = math.ceil(grid.N * (q0 + cut) - grid.eta)
    return np.arange(lo, hi + 1)


def _gaussian_window(
    grid: PlanckGrid, z0: complex, x0: Point, m: np.ndarray
) -> np.ndarray:
    """g(y_m) for the plane Gaussian at x0, on extended sites y_m = (m+eta)/N.

    The momentum phase exp(2 pi i N p0 y) has an argument that grows with
    m; when both the center and eta are rational it is reduced mod 1 in
    integer arithmetic.
    """
    N = grid.N
    eta = grid.eta
    y = (m + eta) / N
    fr = _center_fractions(x0)
    c0 = (2.0 * N * z0.imag) ** 0.25
    if fr is not None and grid.theta_over_pi is not None:
        q0f, p0f = fr
        q0 = float(q0f)
        f = grid.theta_over_pi[1]
        # p0 (m + eta) = kp (qe m + pe) / (lp qe), reduced mod 1 exactly
        kp, lp = p0f.numerator, p0f.denominator
        pe, qe = f.numerator, 2 * f.denominator
        denom = lp * qe
        s = (kp * (qe * m.astype(object) + pe)) % denom
        mom = np.exp(2j * np.pi * s.astype(np.float64) / denom)
        # constant phase exp(-i pi N p0 q0), reduced exactly
        num = (N * kp * q0f.numerator) % (2 * lp * q0f.denominator)
        mom = mom * cmath.exp(-1j * math.pi * float(num) / (lp * q0f.denominator))
    else:
        q0, p0 = float(x0[0]), float(x0[1])
        mom = np.exp(2j * np.pi * np.mod(p0 * (m + eta), 1.0))
        mom = mom * cmath.exp(-1j * math.pi * N * p0 * q0)
    dy = y - q0
    return c0 * mom * np.exp(1j * math.pi * N * z0 * dy * dy)


def torus_coherent(x0: Point, catmap: CatMap, grid: PlanckGrid) -> QuantumState:
    """Torus coherent state at x0, adapted to the map's squeeze.

    Amplitudes are a_j = N^{-1/2} sum_w exp(-i theta1 w) g(q_j - w) with g
    the plane Gaussian of width parameter z_parameter(catmap); the sum is
    truncated where the tail drops below 1e-14 of the peak.  The result is
    not normalized; its squared norm is 1 up to an exponentially small
    error.

    Raises
    ------
    TruncationFailure
        If the truncated sum would need more than 64 lattice translates.
    """
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    q0 = float(x0.as_floats()[0]) if isinstance(x0, RationalPoint) else float(x0[0])
    m = _window_indices(grid, q0, cut)
    g = _gaussian_window(grid, z0, x0, m)
    g = g * np.exp(-1j * grid.theta[0] * (m // grid.N))
    amp = np.zeros(grid.N, dtype=complex)
    np.add.at(amp, m % grid.N, g)
    return QuantumState(amp / math.sqrt(grid.N), grid)


def _check_resolution(G: int, grid: PlanckGrid) -> None:
    """Warn, at the caller's caller, when G < sqrt(2 pi N) = 1/sqrt(hbar).

    Midpoint quadrature over coherent states (Husimi grids, anti-Wick
    operators) aliases once the grid step stops resolving the coherent
    width sqrt(hbar).
    """
    if G < 1.0 / math.sqrt(grid.hbar):
        warnings.warn(
            f"Husimi grid G={G} does not resolve sqrt(hbar) at N={grid.N}; "
            "quadrature identities may degrade",
            stacklevel=3,
        )


def _extended(psi: np.ndarray, grid: PlanckGrid, m: np.ndarray) -> np.ndarray:
    """Amplitudes continued to extended indices with the theta1 twist."""
    return np.exp(-1j * grid.theta[0] * (m // grid.N)) * psi[m % grid.N]


def husimi(
    psi: QuantumState, catmap: CatMap, G: int, warn_resolution: bool = True
) -> HusimiGrid:
    """Husimi density of psi on a G x G grid, analyzed with the map squeeze.

    Column algorithm: for the position column at q_a the windowed sites are
    gathered once, folded mod G with alternating signs, and a single
    G-point FFT produces the whole momentum row.  Identical (to roundoff)
    to evaluating N |<x, c0, theta | psi>|^2 pointwise.
    """
    if G < 16:
        raise ResolutionTooCoarse(f"G = {G} < 16")
    grid = psi.grid
    if warn_resolution:
        _check_resolution(G, grid)
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    c0 = (2.0 * grid.N * z0.imag) ** 0.25
    zc = z0.conjugate()
    half_phase = np.exp(-1j * np.pi * np.arange(G) / G)
    values = np.empty((G, G))
    amp = psi.amplitudes
    for a in range(G):
        qa = (a + 0.5) / G
        m = _window_indices(grid, qa, cut)
        dy = (m + grid.eta) / grid.N - qa
        w = c0 * np.exp(-1j * math.pi * grid.N * zc * dy * dy)
        w = w * _extended(amp, grid, m)
        folded = np.zeros(G, dtype=complex)
        sign = 1.0 - 2.0 * ((m // G) % 2)
        np.add.at(folded, m % G, w * sign)
        values[a, :] = np.abs(np.fft.fft(folded * half_phase)) ** 2
    return HusimiGrid(
        values=values,
        G=G,
        grid=grid,
        squeeze=catmap.squeeze,
        state_norm2=psi.norm2(),
        map_entries=catmap.entries,
    )


def husimi_at_points(
    psi: QuantumState, catmap: CatMap, points: Iterable[Sequence[float]]
) -> np.ndarray:
    """Husimi values at arbitrary phase-space points (pointwise evaluator)."""
    grid = psi.grid
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    amp = psi.amplitudes
    out = []
    for x in points:
        m = _window_indices(grid, float(x[0]), cut)
        g = _gaussian_window(grid, z0, (float(x[0]), float(x[1])), m)
        overlap = np.sum(np.conj(g) * _extended(amp, grid, m))
        out.append(abs(overlap) ** 2)
    return np.asarray(out)


def _min_image(delta: np.ndarray) -> np.ndarray:
    return (delta + 0.5) % 1.0 - 0.5


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
        dq = _min_image(c - center[0])
        dp = _min_image(c - center[1])
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
    dq = _min_image(c - center[0])
    dp = _min_image(c - center[1])
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
