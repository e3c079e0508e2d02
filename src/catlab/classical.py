"""Classical dynamics of hyperbolic torus maps.

Exact integer arithmetic throughout: matrix powers use Python integers,
periodic points live on rational lattices and are iterated mod l.  Floating
point enters only in the derived hyperbolic data (Lyapunov exponent, axis
angles, squeeze parameter) and in measure evaluations.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    EnumerationTooLarge,
    NotHyperbolic,
    NotUnimodular,
    PreconditionError,
)

__all__ = [
    "CatMap",
    "Orbit",
    "validate_cat_map",
    "decompose_hyperbolic",
    "fixed_point_count",
    "enumerate_prime_orbits",
    "orbit_through",
    "orbit_fourier_coefficient",
    "rotation_matrix",
    "boost_matrix",
]

# Lattice guard on l: enumeration costs O(T l) int64 work and memory, and the
# guard bounds the l periodic points and the JSON that `catlab orbits` writes
# for them (about 40 bytes per point); no per-point Python object is built.
DEFAULT_LATTICE_GUARD = 10_000

# Codes j*l + k and products of entries reduced mod l fit in int64 only below.
_INT64_LATTICE_LIMIT = 2**31


def rotation_matrix(phi: float) -> np.ndarray:
    """Rotation by angle phi, [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def boost_matrix(mu: float) -> np.ndarray:
    """Hyperbolic boost [[cosh, sinh], [sinh, cosh]] with axes at +-pi/4."""
    ch, sh = math.cosh(mu), math.sinh(mu)
    return np.array([[ch, sh], [sh, ch]])


@dataclass(frozen=True)
class CatMap:
    """An integer unimodular hyperbolic matrix with derived hyperbolic data.

    Attributes
    ----------
    a, b, c, d : int
        Matrix entries, row major; a*d - b*c == 1 and a + d > 2.
    lyapunov : float
        lambda > 0 with e^lambda + e^-lambda = a + d.
    unstable_angle, stable_angle : float
        Angles of the expanding/contracting eigenlines.  The unstable
        angle lies in (-pi/2, pi/2]; the stable angle equals it plus the
        line-to-line angle in (0, pi).
    b1, b2 : float
        Frame parameters: the matrix equals R(b1) B(b2) D(lambda)
        B(b2)^-1 R(b1)^-1, with b1 in (-pi/2, pi/2].
    squeeze : complex
        -b2 * exp(-2i b1); selects the analyzing coherent state adapted
        to this map.
    """

    a: int
    b: int
    c: int
    d: int
    lyapunov: float
    unstable_angle: float
    stable_angle: float
    b1: float
    b2: float
    squeeze: complex

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def frame_matrix(self) -> np.ndarray:
        """Q = R(b1) B(b2), mapping the (q, p) frame to the eigenframe."""
        return rotation_matrix(self.b1) @ boost_matrix(self.b2)

    def matrix_power(self, t: int) -> Tuple[int, int, int, int]:
        """Exact integer entries of M^t (t may be negative)."""
        return _int_power(self.entries, t)

    def __repr__(self) -> str:
        return f"CatMap({self.a},{self.b},{self.c},{self.d})"


def _int_power(entries: Tuple[int, int, int, int], t: int) -> Tuple[int, int, int, int]:
    """(a,b,c,d) of M^t by squaring, exact Python integers."""
    a, b, c, d = entries
    if t < 0:
        # inverse of a unimodular matrix is integral
        a, b, c, d = d, -b, -c, a
        t = -t
    ra, rb, rc, rd = 1, 0, 0, 1
    while t > 0:
        if t & 1:
            ra, rb, rc, rd = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
        a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
        t >>= 1
    return ra, rb, rc, rd


def validate_cat_map(a: int, b: int, c: int, d: int) -> CatMap:
    """Validate raw integer entries and attach derived hyperbolic data.

    Only trace > 2 is supported.  A matrix M with trace < -2 is refused:
    -M has the same hyperbolic frame, but it is a different torus map
    (x = (1/3, 0) goes to (1/3, 2/3) under -(2,1,1,1) and to (2/3, 1/3)
    under (2,1,1,1)), so its orbits and propagator are not those of M.

    Raises
    ------
    NotUnimodular
        If a*d - b*c != 1.
    NotHyperbolic
        If |a + d| <= 2, or if a + d < -2.
    """
    a, b, c, d = int(a), int(b), int(c), int(d)
    det = a * d - b * c
    if det != 1:
        raise NotUnimodular(f"determinant is {det}, must be 1")
    tr = a + d
    if abs(tr) <= 2:
        raise NotHyperbolic(f"|trace| = {abs(tr)} <= 2, not hyperbolic")
    if tr < 0:
        raise NotHyperbolic(
            f"trace {tr} < -2 is not supported: the negated matrix "
            f"{-a},{-b},{-c},{-d} is a different torus map"
        )
    lam, ang_u, ang_s, b1, b2, squeeze = decompose_hyperbolic(
        np.array([[a, b], [c, d]], dtype=float)
    )
    return CatMap(a, b, c, d, lam, ang_u, ang_s, b1, b2, squeeze)


def decompose_hyperbolic(matrix: np.ndarray):
    """Hyperbolic frame decomposition of a trace > 2 matrix.

    Returns (lambda, unstable_angle, stable_angle, b1, b2, squeeze) such
    that matrix = R(b1) B(b2) D(lambda) B(b2)^-1 R(b1)^-1 with
    D(lambda) = diag(e^lambda, e^-lambda).

    The unstable eigenvector is oriented into the right half plane, giving
    unstable_angle in (-pi/2, pi/2]; the stable angle is the unstable
    angle plus the line angle between the two eigenlines, so it lies in
    (unstable_angle, unstable_angle + pi).  b1 is reduced mod pi into
    (-pi/2, pi/2], which leaves the reconstruction and the squeeze
    parameter unchanged.
    """
    m = np.asarray(matrix, dtype=float)
    tr = m[0, 0] + m[1, 1]
    if tr <= 2.0:
        raise NotHyperbolic(f"trace {tr} <= 2")
    lam = math.log((tr + math.sqrt(tr * tr - 4.0)) / 2.0)

    def unit_eigvec(mu: float) -> np.ndarray:
        v = np.array([m[0, 1], mu - m[0, 0]])
        if np.hypot(v[0], v[1]) < 1e-12 * max(1.0, abs(mu)):
            v = np.array([mu - m[1, 1], m[1, 0]])
        return v / np.hypot(v[0], v[1])

    vu = unit_eigvec(math.exp(lam))
    vs = unit_eigvec(math.exp(-lam))
    if vu[0] < 0 or (vu[0] == 0 and vu[1] < 0):
        vu = -vu
    ang_u = math.atan2(vu[1], vu[0])
    ang_s = ang_u + (math.atan2(vs[1], vs[0]) - ang_u) % math.pi

    b1 = (ang_u + ang_s - math.pi / 2) / 2
    psi = ang_u - b1  # in (-pi/4, pi/4) since the eigenlines are distinct
    b2 = math.atanh(math.tan(psi))
    while b1 <= -math.pi / 2:
        b1 += math.pi
    while b1 > math.pi / 2:
        b1 -= math.pi
    squeeze = -b2 * cmath.exp(-2j * b1)
    return lam, ang_u, ang_s, b1, b2, squeeze


def min_image(delta: np.ndarray) -> np.ndarray:
    """Coordinate differences folded to their minimal images in [-1/2, 1/2)."""
    return (delta + 0.5) % 1.0 - 0.5


def torus_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """Euclidean distance on the torus via minimal-image differences."""
    dq = abs(x[0] - y[0]) % 1.0
    dp = abs(x[1] - y[1]) % 1.0
    dq = min(dq, 1.0 - dq)
    dp = min(dp, 1.0 - dp)
    return math.hypot(dq, dp)


@dataclass(frozen=True, eq=False)
class Orbit:
    """A closed orbit on the lattice L_l.

    jk is a (T, 2) int64 array of numerators: the orbit's points are
    x_t = (jk[t, 0] / l, jk[t, 1] / l), with x_{t+1} = M x_t mod 1 exactly.
    Enumerated orbits start at their lexicographically smallest (j, k).
    """

    jk: np.ndarray
    l: int
    prime: bool = True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orbit):
            return NotImplemented
        same = self.l == other.l and self.prime == other.prime
        return same and np.array_equal(self.jk, other.jk)

    @property
    def length(self) -> int:
        return len(self.jk)

    def start(self) -> Tuple[Fraction, Fraction]:
        """The first point, exactly."""
        j, k = self.jk[0].tolist()
        return (Fraction(j, self.l), Fraction(k, self.l))

    def min_separation(self) -> float:
        pts = (self.jk / self.l).tolist()
        n = len(pts)
        if n < 2:
            return math.inf
        return min(
            torus_distance(pts[s], pts[t]) for s in range(n) for t in range(s + 1, n)
        )


def fixed_point_count(catmap: CatMap, T: int) -> int:
    """Number of fixed points of M^T on the torus: trace(M^T) - 2, exact."""
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    a, _, _, d = catmap.matrix_power(T)
    return a + d - 2


def _ext_gcd(x: int, y: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s x + t y, for x, y >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return x, s0, t0


def _lattice_fixed_points(catmap: CatMap, T: int, l: int) -> np.ndarray:
    """All (j, k) in Z_l^2 with (M^T - Id)(j, k) = 0 mod l, as an (l, 2) array.

    A = M^T - Id has det A = -l, so A adj(A) = -l Id and the solutions are
    exactly the order-l subgroup H = adj(A) Z^2 mod l.  H has the Hermite
    basis (g, h), (0, l/g), where g is the gcd of l and the first coordinates
    of the columns of adj(A), so its rows come out in lexicographic order
    without a scan of Z_l^2.
    """
    a, b, c, d = (x % l for x in catmap.matrix_power(T))
    # columns of adj(A) = [[d - 1, -b], [-c, a - 1]], reduced mod l
    u0, u1 = (d - 1) % l, -c % l
    v0, v1 = -b % l, (a - 1) % l
    g1, s1, t1 = _ext_gcd(u0, v0)
    g, s2, _ = _ext_gcd(g1, l)
    m = l // g
    h = s2 * (s1 * u1 + t1 * v1) % m
    i = np.arange(m, dtype=np.int64)[:, None]
    j = np.broadcast_to(i * g, (m, g))
    k = (i * h) % m + m * np.arange(g, dtype=np.int64)
    points = np.column_stack([j.ravel(), k.ravel()])
    kernel = np.array([[(a - 1) % l, b], [c, (d - 1) % l]], dtype=np.int64)
    if len(points) != l or ((points @ kernel.T) % l).any():
        raise RuntimeError(f"{catmap} at T={T}: lattice rows fail (M^T - Id) x = 0 mod {l}")
    return points


def enumerate_prime_orbits(
    catmap: CatMap, T: int, lattice_guard: int = DEFAULT_LATTICE_GUARD
) -> List[Orbit]:
    """All prime closed orbits of exact length T, canonically ordered.

    Fixed points of M^T live on the lattice L_l with l = trace(M^T) - 2.
    Since A = M^T - Id has A adj(A) = -l Id, they are exactly adj(A) Z^2 mod
    l, which `_lattice_fixed_points` lists in O(l); iterating M on all of them
    at once finds the orbits in O(T l) exact int64 arithmetic mod l.  Each
    orbit is rotated to start at its lexicographically smallest (j, k) and
    the list is sorted by that starting point.

    Raises
    ------
    EnumerationTooLarge
        If l exceeds the lattice guard, or is 2^31 or more, where the int64
        arithmetic mod l would overflow.
    """
    l = fixed_point_count(catmap, T)
    if l > lattice_guard:
        raise EnumerationTooLarge(
            f"lattice denominator l = {l} exceeds guard {lattice_guard}"
        )
    if l >= _INT64_LATTICE_LIMIT:
        raise EnumerationTooLarge(
            f"lattice denominator l = {l} is not below 2^31, the int64 limit"
        )
    a, b, c, d = (x % l for x in catmap.entries)
    points = _lattice_fixed_points(catmap, T, l)
    j, k = points[:, 0], points[:, 1]
    # codes[t] holds j*l + k of M^t x for every fixed point x of M^T
    codes = np.empty((T, l), dtype=np.int64)
    for t in range(T):
        codes[t] = j * l + k
        j, k = (a * j + b * k) % l, (c * j + d * k) % l
    prime = (codes[1:] != codes[0]).all(axis=0)
    starts = codes[:, prime & (codes[0] == codes.min(axis=0))].T
    jk = np.stack([starts // l, starts % l], axis=-1)
    jk.flags.writeable = False
    return [Orbit(orbit, l=l, prime=True) for orbit in jk]


def orbit_through(catmap: CatMap, j: int, k: int, l: int) -> Orbit:
    """The closed orbit of M through (j/l, k/l), walked exactly mod l.

    It starts at (j mod l, k mod l).  Raises ValueError if l <= 0,
    EnumerationTooLarge if l >= 2^31 (the int64 limit) and PreconditionError
    if the period exceeds 10^6.
    """
    if l <= 0:
        raise ValueError("denominator must be positive")
    if l >= _INT64_LATTICE_LIMIT:
        raise EnumerationTooLarge(
            f"lattice denominator l = {l} is not below 2^31, the int64 limit"
        )
    a, b, c, d = (x % l for x in catmap.entries)
    start = (j % l, k % l)
    pts = [start]
    x, y = start
    while True:
        x, y = (a * x + b * y) % l, (c * x + d * y) % l
        if (x, y) == start:
            break
        pts.append((x, y))
        if len(pts) > 10**6:
            raise PreconditionError(
                f"orbit through ({j}/{l}, {k}/{l}) has period above 1e6"
            )
    jk = np.array(pts, dtype=np.int64)
    jk.flags.writeable = False
    return Orbit(jk, l=l, prime=True)


def orbit_fourier_coefficient(orbit: Orbit, n: Tuple[int, int]) -> complex:
    """mu_gamma(e_n) with e_n(x) = exp(2 pi i (n2 x1 - n1 x2)), exact phases.

    The phase argument (n2 j - n1 k)/l is reduced mod 1 in integer
    arithmetic before exponentiating, and the terms are summed in orbit
    order.
    """
    n1, n2 = n
    l = orbit.l
    # n reduced mod l keeps every product below l^2 < 2^62
    phases = ((n2 % l) * orbit.jk[:, 0] - (n1 % l) * orbit.jk[:, 1]) % l
    total = 0.0 + 0.0j
    for r in phases.tolist():
        total += cmath.exp(2j * math.pi * r / l)
    return total / orbit.length
