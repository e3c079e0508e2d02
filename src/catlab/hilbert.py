"""The finite quantum arena: states on H_{N,theta} and unitaries acting there.

A state is a length-N complex vector over the theta-shifted position sites
q_j = (j + theta2/(2 pi))/N with the plain Euclidean norm.  Wrapping a site
index past N multiplies the amplitude by exp(-i theta1).

Quantum translations act as index shifts with site-dependent phases; the
quantum cat-map propagator is the discrete quadratic (Gauss-sum) kernel,
applied matrix-free as chirp * FFT * chirp in O(N |b| log(N |b|)).  Its
correctness is pinned by two oracles: unitarity, and the exact conjugation
law  U T(n) U^-1 = T(Mn)  for integer translations.

The Bloch angle is the parity one, theta = (0, 0) for even N and (pi, pi)
for odd N: ad - bc = 1 leaves neither (a, b) nor (c, d) a pair of even
numbers, so K (1, 1) = (cd, ab) mod 2 for K = Id - M^-T, and that angle
solves the compatibility condition K theta = N pi (cd, ab) mod 2 pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .classical import CatMap
from .errors import ConfigError, NoInvariantTheta, UnsupportedMatrix

__all__ = [
    "PlanckGrid",
    "QuantumState",
    "LinearMap",
    "choose_theta",
    "theta_residual",
    "translation",
    "propagator",
    "egorov_defect",
    "random_states",
]


@dataclass(frozen=True)
class PlanckGrid:
    """Quantum arena: dimension N, hbar = 1/(2 pi N), Bloch angle theta.

    theta_over_pi stores theta/pi exactly when known (choose_theta always
    provides it); the propagator uses it to reduce chirp phases in integer
    arithmetic.
    """

    N: int
    theta: Tuple[float, float]
    theta_over_pi: Optional[Tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        t1, t2 = self.theta
        if not (0.0 <= t1 < 2 * math.pi and 0.0 <= t2 < 2 * math.pi):
            raise ValueError("theta components must lie in [0, 2 pi)")

    @property
    def hbar(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)

    @property
    def eta(self) -> float:
        """Site offset theta2/(2 pi); position sites are (j + eta)/N."""
        return self.theta[1] / (2.0 * math.pi)

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


def theta_residual(catmap: CatMap, N: int, theta: Tuple[float, float]) -> float:
    """Max-norm defect of the compatibility equation, folded into [-pi, pi)."""
    (k00, k01), (k10, k11) = _compat_matrix(catmap)
    a, b, c, d = catmap.entries
    r1 = k00 * theta[0] + k01 * theta[1] - N * math.pi * (c * d)
    r2 = k10 * theta[0] + k11 * theta[1] - N * math.pi * (a * b)
    r1 = (r1 + math.pi) % (2 * math.pi) - math.pi
    r2 = (r2 + math.pi) % (2 * math.pi) - math.pi
    return max(abs(r1), abs(r2))


def choose_theta(catmap: CatMap, N: int) -> PlanckGrid:
    """Bloch angle making the propagator an endomorphism of H_{N,theta}.

    The parity rule theta/pi = (N mod 2, N mod 2) always works: as ad - bc
    = 1, neither (a, b) nor (c, d) is a pair of even numbers, so
    K (1, 1) = (cd, ab) mod 2 and K theta/pi = N (cd, ab) mod 2.  The grid
    carries theta both as floats and as exact multiples of pi.
    """
    half = Fraction(N % 2)
    return PlanckGrid(N, (float(half) * math.pi, float(half) * math.pi), (half, half))


def _require_invariant_theta(catmap: CatMap, grid: PlanckGrid) -> None:
    """Raise NoInvariantTheta unless grid.theta solves the compatibility condition.

    Exact, in integers, when grid.theta_over_pi is known.  Float-only grids
    (loaded states, hand-built grids) get the float residual, whose rounding
    error grows like N pi max(|ab|, |cd|) eps, against a tolerance scaled
    to match.
    """
    a, b, c, d = catmap.entries
    N = grid.N
    if grid.theta_over_pi is not None:
        y0, y1 = grid.theta_over_pi
        rhs = (N * c * d, N * a * b)
        ok = all(
            (k0 * y0 + k1 * y1 - r) % 2 == 0
            for (k0, k1), r in zip(_compat_matrix(catmap), rhs)
        )
    else:
        # the theta terms add at most 2 pi (|a| + |b| + |c| + |d| + 2)
        entries = abs(a) + abs(b) + abs(c) + abs(d)
        scale = N * max(abs(a * b), abs(c * d)) + 2 * (entries + 2)
        tol = 16 * math.pi * np.finfo(float).eps * scale
        ok = theta_residual(catmap, N, grid.theta) < tol
    if not ok:
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


def translation_entries(n: Tuple[int, int], grid: PlanckGrid) -> np.ndarray:
    """Dense matrix of T_N(n); one nonzero per row."""
    n1, phase = _translation_data(n, grid)
    N = grid.N
    T = np.zeros((N, N), dtype=complex)
    rows = np.arange(N)
    T[rows, (rows - n1) % N] = phase
    return T


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
    th1 = grid.theta[0]
    m = np.arange(L)
    j = np.arange(N)

    if grid.theta_over_pi is not None:
        # exact reduction: with eta = p/q the site q m + p = q (m + eta) is an
        # integer, so pi a (m+eta)^2/(N b) = pi a s^2/(N b q^2) reduces mod 2
        # in integer arithmetic
        f = grid.theta_over_pi[1]
        p, q = f.numerator, 2 * f.denominator
        denom = N * b * q * q
        sm = q * m + p
        chirp_in = _exact_quadratic_phase(a, sm, denom)
        sj = q * j + p
        chirp_out = _exact_quadratic_phase(d, sj, denom)
        eta = float(f) / 2.0
    else:
        eta = grid.eta
        chirp_in = np.exp(1j * np.pi * a * (m + eta) ** 2 / (N * b))
        chirp_out = np.exp(1j * np.pi * d * (j + eta) ** 2 / (N * b))

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


def propagator_dense(catmap: CatMap, grid: PlanckGrid) -> np.ndarray:
    """Dense Gauss-sum kernel, assembled directly (oracle for the fast path)."""
    a, b, _, d = catmap.entries
    N = grid.N
    eta = grid.eta
    th1 = grid.theta[0]
    absB = abs(b)
    j = np.arange(N)
    xj = j + eta
    U = np.zeros((N, N), dtype=complex)
    for w in range(absB):
        xk = j + eta + N * w
        E = (np.pi / (N * b)) * (
            a * xk[None, :] ** 2 - 2.0 * np.outer(xj, xk) + d * xj[:, None] ** 2
        )
        U += np.exp(1j * E) * np.exp(-1j * th1 * w)
    return U / math.sqrt(N * absB)


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
