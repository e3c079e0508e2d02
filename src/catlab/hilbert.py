"""The finite quantum arena: states on H_{N,theta} and unitaries acting there.

A state is a length-N complex vector over the theta-shifted position sites
q_j = (j + theta2/(2 pi))/N with the plain Euclidean norm.  Wrapping a site
index past N multiplies the amplitude by exp(-i theta1).

Quantum translations act as index shifts with site-dependent phases; the
quantum cat-map propagator is the discrete quadratic (Gauss-sum) kernel,
applied matrix-free as chirp * FFT * chirp in O(N |b| log(N |b|)).  Its
correctness is pinned by two oracles: unitarity, and the exact conjugation
law  U T(n) U^-1 = T(Mn)  for integer translations.

Every phase here is a rational multiple of 2 pi: the translations'
momentum phases, the Bloch twists and the kernel's chirps.  Each is
reduced in integer arithmetic and taken by one primitive, _unit_phase,
which reads exp(2 pi i r/D) from two tables of about sqrt(D) exponentials;
no exp runs over a vector of length N.  So translations compose as
T(n) T(m) = exp(i pi (n ^ m)/N) T(n + m) exactly, up to the rounding of
the phases themselves, at every n.

Grids carry the Bloch angle exactly, as rational theta/pi.  choose_theta
gives the parity one, theta = (0, 0) for even N and (pi, pi) for odd N:
ad - bc = 1 leaves neither (a, b) nor (c, d) a pair of even numbers, so
K (1, 1) = (cd, ab) mod 2 for K = Id - M^-T, and that angle solves the
compatibility condition K theta = N pi (cd, ab) mod 2 pi.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from .classical import CatMap
from .errors import ConfigError, NoInvariantTheta, UnsupportedMatrix

__all__ = [
    "PlanckGrid",
    "QuantumState",
    "LinearMap",
    "choose_theta",
    "translation",
    "propagator",
    "egorov_defect",
    "random_states",
]


@dataclass(frozen=True)
class PlanckGrid:
    """Quantum arena: dimension N, hbar = 1/(2 pi N), Bloch angle theta.

    theta_over_pi is theta/pi as two Fractions in [0, 2).  The float angle
    theta and the site offset eta = theta2/(2 pi) of the position sites
    (j + eta)/N are derived from it once, on construction.
    """

    N: int
    theta_over_pi: Tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        y0, y1 = self.theta_over_pi
        if not all(isinstance(v, numbers.Rational) and 0 <= v < 2 for v in (y0, y1)):
            raise ValueError(f"theta/pi must be two rationals in [0, 2), got {(y0, y1)}")
        y0, y1 = Fraction(y0), Fraction(y1)
        object.__setattr__(self, "theta_over_pi", (y0, y1))
        object.__setattr__(self, "theta", (math.pi * float(y0), math.pi * float(y1)))
        object.__setattr__(self, "eta", float(y1) / 2.0)

    @property
    def hbar(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)

    def sites(self) -> np.ndarray:
        return (np.arange(self.N) + self.eta) / self.N


def _real_inner(x: np.ndarray, y: np.ndarray):
    """Re <x|y> over the last axis of two complex arrays, as one real
    einsum over their float views: the BLAS level-1 routines behind
    np.vdot and np.linalg.norm can be far slower on some multithreaded
    builds.  Returns a float for vectors, an array of row values for
    stacks of them."""
    return np.einsum("...i,...i->...", x.view(float), y.view(float))


def _norm(x: np.ndarray) -> float:
    """||x|| through _real_inner."""
    return math.sqrt(_real_inner(x, x))


@dataclass
class QuantumState:
    """Amplitudes over the discrete position basis of H_{N,theta}."""

    amplitudes: np.ndarray
    grid: PlanckGrid

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.grid.N,):
            raise ValueError(f"amplitudes must have shape ({self.grid.N},)")
        self.amplitudes = amp

    def norm2(self) -> float:
        return float(_real_inner(self.amplitudes, self.amplitudes))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def normalized(self) -> "QuantumState":
        return QuantumState(self.amplitudes / self.norm(), self.grid)

    def inner(self, other: "QuantumState") -> complex:
        """<self|other> with the physics convention (conjugate-linear left),
        as an einsum for the reason _real_inner gives."""
        return complex(np.einsum("i,i->", np.conj(self.amplitudes), other.amplitudes))


class LinearMap:
    """A matrix-free linear operator on H_{N,theta}: its action and adjoint.

    apply/apply_adjoint work on raw amplitude vectors; __call__ accepts and
    returns QuantumState.
    """

    def __init__(
        self,
        n: int,
        apply_fn: Callable[[np.ndarray], np.ndarray],
        adjoint_fn: Callable[[np.ndarray], np.ndarray],
        label: str = "",
    ):
        self.n = n
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.label = label

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(vec, dtype=complex))

    def apply_adjoint(self, vec: np.ndarray) -> np.ndarray:
        return self._adjoint(np.asarray(vec, dtype=complex))

    def __call__(self, state: QuantumState) -> QuantumState:
        return QuantumState(self.apply(state.amplitudes), state.grid)

    def __repr__(self) -> str:
        return f"LinearMap({self.label or 'anonymous'}, n={self.n})"


# ---------------------------------------------------------------------------
# Bloch angle selection
# ---------------------------------------------------------------------------

def _compat_matrix(catmap: CatMap):
    """Integer matrix K with compatibility condition K theta = N pi (cd, ab) mod 2 pi.

    In the conventions of this module (theta1 twists position wraps,
    theta2 shifts the sites) the invariance of H_{N,theta} under the
    propagator reads theta = M^-T theta + N pi (cd, ab) mod 2 pi, i.e.
    K = Id - M^-T.
    """
    a, b, c, d = catmap.entries
    # M^-T = [[d, -c], [-b, a]]
    return ((1 - d, c), (b, 1 - a))


def choose_theta(catmap: CatMap, N: int) -> PlanckGrid:
    """Bloch angle making the propagator an endomorphism of H_{N,theta}.

    The parity rule theta/pi = (N mod 2, N mod 2) always works: as ad - bc
    = 1, neither (a, b) nor (c, d) is a pair of even numbers, so
    K (1, 1) = (cd, ab) mod 2 and K theta/pi = N (cd, ab) mod 2.
    """
    half = Fraction(N % 2)
    return PlanckGrid(N, (half, half))


def _require_invariant_theta(catmap: CatMap, grid: PlanckGrid) -> None:
    """Raise NoInvariantTheta unless K theta/pi = N (cd, ab) mod 2, checked exactly."""
    a, b, c, d = catmap.entries
    N = grid.N
    y0, y1 = grid.theta_over_pi
    (k00, k01), (k10, k11) = _compat_matrix(catmap)
    if (k00 * y0 + k01 * y1 - N * c * d) % 2 or (k10 * y0 + k11 * y1 - N * a * b) % 2:
        raise NoInvariantTheta(
            f"theta {grid.theta} incompatible with {catmap} at N={N}; use choose_theta"
        )


# ---------------------------------------------------------------------------
# Exact unit phases
# ---------------------------------------------------------------------------

_QUARTER_TURNS = np.array([1, 1j, -1, -1j, 1])
# the least number of sites per block of a chirp build
_CHIRP_BLOCK = 1 << 14


def _quarter_reduced_phase(k: np.ndarray, D: int) -> np.ndarray:
    """exp(2 pi i k/D) for int64 k in [0, D), D <= 2^60, evaluated as
    i^t exp(i pi (4k - t D)/(2D)) with t the nearest quarter turn: the
    float angle is at most pi/4, and multiples of D/4 come out exact."""
    t = (4 * k + D // 2) // D
    return _QUARTER_TURNS[t] * np.exp((0.5j * math.pi / D) * (4 * k - t * D))


@functools.lru_cache(maxsize=16)
def _phase_tables(D: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """(shift, coarse, fine) with B = 2^shift >= sqrt(D): coarse[h] =
    exp(2 pi i B h/D) and fine[l] = exp(2 pi i l/D), about 3 sqrt(D) values."""
    shift = math.isqrt(D - 1).bit_length()
    fine = _quarter_reduced_phase(np.arange(1 << shift), D)
    coarse = np.arange(((D - 1) >> shift) + 1, dtype=np.int64) << shift
    return shift, _quarter_reduced_phase(coarse, D), fine


def _unit_phase(r, D: int) -> np.ndarray:
    """exp(2 pi i r/D) for int64 residues r in [0, D), D <= 2^60, to about 2 ulp.

    The one primitive behind every rational phase of the Hilbert layer.
    With r = B h + l, B = 2^shift >= sqrt(D), the phase is coarse[h] *
    fine[l]: two gathers from tables of about sqrt(D) exponentials, kept
    per D, and one complex multiply.  An r no longer than sqrt(D) is
    evaluated directly instead.  A D above 2^60, which only a Bloch angle
    or a center with a huge denominator makes, is refused: the reduction
    to a quarter turn would overflow int64.
    """
    if D > 2**60:
        raise ValueError(f"phase denominator {D} > 2^60")
    r = np.asarray(r, dtype=np.int64)
    if r.size <= math.isqrt(D):
        return _quarter_reduced_phase(r, D)
    shift, coarse, fine = _phase_tables(D)
    phase = coarse.take(r >> shift)
    phase *= fine.take(r & ((1 << shift) - 1))
    return phase


def _residues(c: int, step: int, count: int, D: int) -> np.ndarray:
    """(c + step k) mod D for k in [0, count), as int64; Python integers
    where int64 could overflow."""
    c, step = c % D, step % D
    if D * count < 2**62:
        r = np.arange(count, dtype=np.int64)
        r *= step
        r += c
        r %= D
        return r
    return np.array([(c + step * k) % D for k in range(count)], dtype=np.int64)


def _phase_progression(c: int, step: int, D: int, length: int) -> np.ndarray:
    """exp(2 pi i (c + step j)/D) for j in [0, length), from exact residues.

    With j = B h + l, B about sqrt(length), it is the outer product of the
    unit phases of c + step B h and of step l: one complex multiply per
    entry, and no integer array of full length.
    """
    B = math.isqrt(max(length - 1, 0)) + 1
    coarse = _unit_phase(_residues(c, step * B, -(-length // B), D), D)
    fine = _unit_phase(_residues(0, step, B, D), D)
    return np.outer(coarse, fine).reshape(-1)[:length]


def _twist(grid: PlanckGrid, k):
    """exp(i theta1 k) for integer k (a Python int or an int64 array), exact:
    with theta1 = pi u/v it is the unit phase of u k mod 2v over 2v."""
    y = grid.theta_over_pi[0]
    D = 2 * y.denominator
    return _unit_phase(np.multiply(y.numerator, k) % D, D)


def _site_offset(grid: PlanckGrid) -> Tuple[int, int]:
    """(p, q) with eta = p/q and q = 2 den(theta2/pi) even, so that q (m + eta)
    and q n1/2 are integers."""
    f = grid.theta_over_pi[1]
    return f.numerator, 2 * f.denominator


# ---------------------------------------------------------------------------
# Quantum translations
# ---------------------------------------------------------------------------

def _translation_data(n: Tuple[int, int], grid: PlanckGrid):
    """Shift amount and phase vector for T(n) on amplitude vectors.

    phase[j] = exp(2 pi i n2 (j + eta - n1/2)/N) exp(-i theta1 w_j), with
    w_j = floor((j - n1)/N) the wraps.  With eta = p/q the first factor is
    the unit phase of n2 (q j + p - n1 q/2) mod qN, a progression in j;
    the second is one constant on each side of s = n1 mod N.
    """
    n1, n2 = int(n[0]), int(n[1])
    N = grid.N
    p, q = _site_offset(grid)
    phase = _phase_progression(n2 * (p - n1 * q // 2), n2 * q, q * N, N)
    if grid.theta_over_pi[0]:
        # w_j = -(wraps + 1) on the sites j < s and -wraps on the others
        s, wraps = n1 % N, n1 // N
        phase[:s] *= _twist(grid, wraps + 1)
        phase[s:] *= _twist(grid, wraps)
    return n1, phase


def _shift_phase(vec: np.ndarray, s: int, phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j] = vec[j - s mod N] * phase[j] for a shift s in [0, N), as two
    slice multiplies into out (which must not overlap vec); returns out."""
    N = vec.shape[-1]
    np.multiply(vec[N - s :], phase[:s], out=out[:s])
    np.multiply(vec[: N - s], phase[s:], out=out[s:])
    return out


def translation(n: Tuple[int, int], grid: PlanckGrid) -> LinearMap:
    """The unitary T_N(n) = T_{n/N} on H_{N,theta}.

    Acts as a cyclic shift by n1 sites combined with the momentum phase
    exp(2 pi i n2 q_j) referenced to half-integer shifted sites, with
    exp(-i theta1) twists at position wraparound.  Every phase is reduced
    in integer arithmetic before it is taken, so composition satisfies
    T(n) T(m) = exp(i pi (n2 m1 - n1 m2)/N) T(n + m) exactly, up to
    rounding of the phases themselves, at every n.  The adjoint T(-n)
    builds its phases on its first use, since most callers only apply.
    """
    N = grid.N
    n1, phase = _translation_data(n, grid)

    @functools.cache
    def adjoint_data():
        return _translation_data((-n[0], -n[1]), grid)

    def apply(vec: np.ndarray) -> np.ndarray:
        return _shift_phase(vec, n1 % N, phase, np.empty_like(vec))

    def adjoint(vec: np.ndarray) -> np.ndarray:
        n1_adj, phase_adj = adjoint_data()
        return _shift_phase(vec, n1_adj % N, phase_adj, np.empty_like(vec))

    return LinearMap(grid.N, apply, adjoint, label=f"T({n[0]},{n[1]})")


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------

def _exact_quadratic_phase(poly: Tuple[int, int, int], s: np.ndarray, D: int) -> np.ndarray:
    """exp(2 pi i P(s)/D) at the integer array s, P(s) = c2 s^2 + c1 s + c0
    for poly = (c2, c1, c0), with P(s) reduced mod D exactly.

    Uses int64 when |c2| smax^2 + |c1| smax + |c0| < 2^62, Python integers
    otherwise, so the phase is accurate to about 2 ulp regardless of size.
    """
    c2, c1, c0 = poly
    smax = int(np.max(np.abs(s))) if s.size else 0
    if abs(c2) * smax * smax + abs(c1) * smax + abs(c0) < 2**62:
        r = s.astype(np.int64)
        r *= c2
        r += c1
        r *= s
        r += c0
        r %= D
    else:
        r = np.array([(c2 * v * v + c1 * v + c0) % D for v in s.tolist()], dtype=np.int64)
    return _unit_phase(r, D)


def _chirp_arrays(catmap: CatMap, grid: PlanckGrid):
    """The phase vectors of the Gauss-sum kernel: pre (length N |b|) and post.

        pre[m]  = exp(i pi (a (m+eta)^2 - 2 eta (m+eta))/(N b)) exp(-i theta1 w),
        post[j] = exp(i pi (d (j+eta)^2 - 2 eta j)/(N b)),

    with w = m // N.  With eta = p/q, s = q m + p (or q j + p) and theta1 =
    pi u/v, both are unit phases over D = 2 N |b| q^2 v of the integer
    quadratics sgn(b) v (a s^2 - 2 p s) - u w N |b| q^2 and sgn(b) v (d s^2 -
    2 p s + 2 p^2).  Each is built in blocks of sites, so that the build's
    integer temporaries stay small; a block is longer than sqrt(D), so
    that it reads the tables of _unit_phase.
    """
    a, b, _, d = catmap.entries
    N = grid.N
    absB = abs(b)
    L = N * absB
    p, q = _site_offset(grid)
    y = grid.theta_over_pi[0]
    u, v = y.numerator, y.denominator
    half = N * absB * q * q
    D = 2 * half * v
    sv = v if b > 0 else -v
    size = max(_CHIRP_BLOCK, 2 * math.isqrt(D))

    def fill(out, first, poly):
        for start in range(0, out.size, size):
            block = out[start : start + size]
            s = np.arange(first + start, first + start + block.size, dtype=np.int64)
            s *= q
            s += p
            block[...] = _exact_quadratic_phase(poly, s, D)

    pre = np.empty(L, dtype=complex)
    for w in range(absB):
        fill(pre[w * N : (w + 1) * N], w * N, (sv * a, -2 * sv * p, -u * w * half))
    post = np.empty(N, dtype=complex)
    fill(post, 0, (sv * d, -2 * sv * p, 2 * sv * p * p))
    return pre, post, L


def propagator(catmap: CatMap, grid: PlanckGrid) -> LinearMap:
    """The quantum cat map U on H_{N,theta}, matrix-free.

    Realized by the discrete quadratic kernel

        U[j', k] = (N |b|)^{-1/2} sum_{w=0}^{|b|-1}
                   exp(i pi (a x_kw^2 - 2 x_kw x_j' + d x_j'^2)/(N b))
                   exp(-i theta1 w),

    with x_kw = k + eta + N w and x_j' = j' + eta, applied as
    chirp * FFT(N |b|) * chirp.  The global phase is fixed by this kernel
    normalization (principal positive square root); quasi-energies reported
    downstream are relative to it.

    Raises
    ------
    NoInvariantTheta
        If grid.theta is not compatible with the map.
    UnsupportedMatrix
        If the kernel fails its unitarity spot check (not expected for
        any hyperbolic SL(2,Z) matrix; defensive).
    """
    b = catmap.b
    if b == 0:
        # hyperbolic integral matrices always have b != 0 (b = 0 forces |trace| = 2)
        raise UnsupportedMatrix("matrix has b = 0; not hyperbolic over SL(2,Z)")
    _require_invariant_theta(catmap, grid)
    pre, post, L = _chirp_arrays(catmap, grid)
    N = grid.N
    absB = abs(b)
    # the kernel's transform, its 1/sqrt(L) applied inside the FFT
    transform = functools.partial(np.fft.fft if b > 0 else np.fft.ifft, norm="ortho")

    def apply(vec: np.ndarray) -> np.ndarray:
        ext = np.tile(vec, absB)
        ext *= pre
        return post * transform(ext)[:N]

    def adjoint(vec: np.ndarray) -> np.ndarray:
        # the adjoint of the transform is conj o transform o conj, so the
        # adjoint needs no second kind of FFT
        g = np.zeros(L, dtype=complex)
        np.conjugate(vec, out=g[:N])
        g[:N] *= post
        F = transform(g)
        F *= pre
        out = F.reshape(absB, N).sum(axis=0)
        return np.conjugate(out, out=out)

    u = LinearMap(N, apply, adjoint, label=f"U{catmap.entries}")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    v /= _norm(v)
    w = u.apply(v)
    defect = abs(_norm(w) - 1.0)
    roundtrip = np.max(np.abs(u.apply_adjoint(w) - v))
    if defect > 1e-9 or roundtrip > 1e-9:
        raise UnsupportedMatrix(
            f"kernel not unitary for {catmap} at N={N} "
            f"(norm defect {defect:.2e}, roundtrip {roundtrip:.2e})"
        )
    return u


# ---------------------------------------------------------------------------
# Egorov defect
# ---------------------------------------------------------------------------

def random_states(rng: np.random.Generator, N: int, count: int) -> np.ndarray:
    """count unit vectors of C^N with Gaussian real and imaginary parts, one per row."""
    s = rng.standard_normal((count, N)) + 1j * rng.standard_normal((count, N))
    return s / np.sqrt(_real_inner(s, s))[:, None]


def egorov_defect(
    u: LinearMap,
    catmap: CatMap,
    grid: PlanckGrid,
    states: Sequence[np.ndarray],
    nmax: int,
) -> float:
    """max ||U T(n) U* psi - T(Mn) psi|| over n in [-nmax, nmax]^2 and the states.

    The conjugation law holds exactly, so this measures rounding error
    only; all applications are matrix-free.  U* psi is computed once per
    state.  Each pair of translations is built for its n and dropped after,
    so memory stays O(N) per state for any nmax.
    """
    a, b, c, d = catmap.entries
    pulled = [u.apply_adjoint(psi) for psi in states]
    worst = 0.0
    for n1 in range(-nmax, nmax + 1):
        for n2 in range(-nmax, nmax + 1):
            tn = translation((n1, n2), grid)
            tmn = translation((a * n1 + b * n2, c * n1 + d * n2), grid)
            for psi, back in zip(states, pulled):
                lhs = u.apply(tn.apply(back))
                worst = max(worst, _norm(lhs - tmn.apply(psi)))
    return worst
