"""The finite quantum arena: states on H_{N,theta} and unitaries acting there.

A state is a length-N complex vector over the theta-shifted position sites
q_j = (j + theta2/(2 pi))/N with the plain Euclidean norm.  Wrapping a site
index past N multiplies the amplitude by exp(-i theta1).

Quantum translations act as index shifts with site-dependent phases; the
quantum cat-map propagator is the discrete quadratic (Gauss-sum) kernel,
applied matrix-free as chirp * FFT * chirp in O(N |b| log(N |b|)).  Its
correctness is pinned by two oracles: unitarity, and the exact conjugation
law  U T(n) U^-1 = T(Mn)  for integer translations.

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
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def normalized(self) -> "QuantumState":
        return QuantumState(self.amplitudes / self.norm(), self.grid)

    def inner(self, other: "QuantumState") -> complex:
        """<self|other> with the physics convention (conjugate-linear left)."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.amplitudes.copy(), self.grid)


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
# Quantum translations
# ---------------------------------------------------------------------------

def _translation_data(n: Tuple[int, int], grid: PlanckGrid):
    """Shift amount and phase vector for T(n) on amplitude vectors."""
    n1, n2 = int(n[0]), int(n[1])
    N = grid.N
    th1 = grid.theta[0]
    eta = grid.eta
    j = np.arange(N)
    arg = (n2 * (j + eta - n1 / 2.0)) / N
    wrap = (j - n1) // N  # floor division; each wrap carries exp(-i theta1)
    phase = np.exp(2j * np.pi * np.mod(arg, 1.0)) * np.exp(-1j * th1 * wrap)
    return n1, phase


def translation(n: Tuple[int, int], grid: PlanckGrid) -> LinearMap:
    """The unitary T_N(n) = T_{n/N} on H_{N,theta}.

    Acts as a cyclic shift by n1 sites combined with the momentum phase
    exp(2 pi i n2 q_j) referenced to half-integer shifted sites, with
    exp(-i theta1) twists at position wraparound.  Composition satisfies
    T(n) T(m) = exp(i pi (n2 m1 - n1 m2)/N) T(n + m) exactly.  The adjoint
    T(-n) builds its phases on its first use, since most callers only apply.
    """
    n1, phase = _translation_data(n, grid)

    @functools.cache
    def adjoint_data():
        return _translation_data((-n[0], -n[1]), grid)

    def apply(vec: np.ndarray) -> np.ndarray:
        return phase * np.roll(vec, n1)

    def adjoint(vec: np.ndarray) -> np.ndarray:
        n1_adj, phase_adj = adjoint_data()
        return phase_adj * np.roll(vec, n1_adj)

    return LinearMap(grid.N, apply, adjoint, label=f"T({n[0]},{n[1]})")


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------

def _exact_quadratic_phase(coef: int, s: np.ndarray, denom: int) -> np.ndarray:
    """exp(i pi coef s^2 / denom) with the exponent reduced mod 2 exactly.

    s is an integer array.  Uses int64 when safe, Python integers
    otherwise, so the phase is accurate to one ulp regardless of size.
    """
    mod = 2 * abs(denom)
    sign = 1 if denom > 0 else -1
    smax = int(np.max(np.abs(s))) if len(s) else 0
    if abs(coef) * smax * smax < 2**62:
        r = (coef * s.astype(np.int64) ** 2) % mod
    else:
        r = np.array([(coef * int(v) * int(v)) % mod for v in s], dtype=object)
        r = r.astype(np.float64)
    return np.exp(1j * sign * math.pi * np.asarray(r, dtype=float) / abs(denom))


def _chirp_arrays(catmap: CatMap, grid: PlanckGrid):
    """Precompute the chirp/twist vectors of the Gauss-sum kernel."""
    a, b, _, d = catmap.entries
    N = grid.N
    absB = abs(b)
    L = N * absB
    th1, eta = grid.theta[0], grid.eta
    m = np.arange(L)
    j = np.arange(N)
    # exact reduction: with eta = p/q the site q m + p = q (m + eta) is an
    # integer, so pi a (m+eta)^2/(N b) = pi a s^2/(N b q^2) reduces mod 2
    # in integer arithmetic
    f = grid.theta_over_pi[1]
    p, q = f.numerator, 2 * f.denominator
    denom = N * b * q * q
    chirp_in = _exact_quadratic_phase(a, q * m + p, denom)
    chirp_out = _exact_quadratic_phase(d, q * j + p, denom)
    twist_in = np.exp(-1j * th1 * (m // N))
    eta_in = np.exp(-2j * np.pi * eta * (m + eta) / (N * b))
    eta_out = np.exp(-2j * np.pi * eta * j / (N * b))
    return chirp_in * twist_in * eta_in, chirp_out * eta_out, L


def propagator(catmap: CatMap, grid: PlanckGrid, check: bool = True) -> LinearMap:
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
    scale = 1.0 / math.sqrt(L)
    forward = b > 0

    def apply(vec: np.ndarray) -> np.ndarray:
        ext = pre * np.tile(vec, absB)
        F = np.fft.fft(ext) if forward else np.fft.ifft(ext) * L
        return scale * post * F[:N]

    def adjoint(vec: np.ndarray) -> np.ndarray:
        g = np.zeros(L, dtype=complex)
        g[:N] = np.conj(post) * vec
        F = np.fft.ifft(g) * L if forward else np.fft.fft(g)
        F *= np.conj(pre)
        return scale * F.reshape(absB, N).sum(axis=0)

    u = LinearMap(N, apply, adjoint, label=f"U{catmap.entries}")
    if check:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        v /= np.linalg.norm(v)
        w = u.apply(v)
        defect = abs(np.linalg.norm(w) - 1.0)
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
    return s / np.linalg.norm(s, axis=1, keepdims=True)


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
                worst = max(worst, float(np.linalg.norm(lhs - tmn.apply(psi))))
    return worst
