"""The finite quantum arena: states on H_{N,theta} and unitaries acting there.

A state is a length-N complex vector over the theta-shifted position sites
q_j = (j + theta2/(2 pi))/N with the plain Euclidean norm.  Wrapping a site
index past N multiplies the amplitude by exp(-i theta1).

Quantum translations, and their finite sums, act as index shifts with
site-dependent phases: one builder, _shift_phase_map, makes each such
operator and its adjoint from one phase per shift.  The quantum cat-map
propagator is the discrete quadratic (Gauss-sum) kernel, applied
matrix-free in O(N log N) whatever |b|: with g = gcd(b, N), each column
lives on one residue class mod g, and U = post * B * pre with B one
batched FFT of length N/g between a reshape and a gather (a chirp
convolution of 5-smooth length where numpy's FFT would run Bluestein's
algorithm).  One function of site indices, _gauss_kernel, gives pre and
post, and only the propagator's build reads it (coherent.py evolves
Gaussians in closed form, without U).  Its correctness is pinned by two
oracles: unitarity, and the exact conjugation law  U T(n) U^-1 = T(Mn)
for integer translations.

Every phase here is a rational multiple of 2 pi: the translations'
momentum phases, the Bloch twists and the kernel's phases.  Each is
reduced exactly by one residue rule, _residues (a sum of products of
residues mod D), and taken by one primitive, _unit_phase, which reads
exp(2 pi i r/D) from two tables of about sqrt(D) exponentials; no exp
runs over a vector of length N.  So translations compose as T(n) T(m) =
exp(i pi (n ^ m)/N) T(n + m) exactly, up to the rounding of the phases
themselves, at every n.

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
from typing import Callable, Dict, Sequence, Tuple

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
# the least number of sites per block of a propagator phase build
_PHASE_BLOCK = 1 << 14


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


def _residues(terms, D: int) -> np.ndarray:
    """sum c x mod D over at most 8 (c, x) terms, as int64: the one exact
    residue rule of the layer.  Each operand is a Python integer, reduced
    here, or an integer array in [0, D) (a caller reduces negative sites
    first); the arrays broadcast.  In int64 when D < 2^30 (the sum of
    products fits), else in Python integers."""
    dtype = np.int64 if D < 2**30 else object

    def cast(v):
        return np.asarray(v % D if isinstance(v, int) else v).astype(dtype, copy=False)

    return np.asarray(sum(cast(c) * cast(x) for c, x in terms) % D, dtype=np.int64)


def _phase_progression(c: int, step: int, D: int, length: int) -> np.ndarray:
    """exp(2 pi i (c + step j)/D) for j in [0, length), from exact residues.

    With j = B h + l, B about sqrt(length), it is the outer product of the
    unit phases of c + step B h and of step l: one complex multiply per
    entry, and no integer array of full length.
    """
    B = math.isqrt(max(length - 1, 0)) + 1
    coarse = _residues([(step * B, np.arange(-(-length // B))), (c, 1)], D)
    fine = _residues([(step, np.arange(B))], D)
    return np.outer(_unit_phase(coarse, D), _unit_phase(fine, D)).reshape(-1)[:length]


def _twist(grid: PlanckGrid, k):
    """exp(i theta1 k) for integer k (a Python int or an int64 array), exact:
    with theta1 = pi u/v it is the unit phase of u k mod 2v over 2v."""
    y = grid.theta_over_pi[0]
    D = 2 * y.denominator
    return _unit_phase(_residues([(y.numerator, k % D)], D), D)


def _wrap_twist(grid: PlanckGrid, n1: int, vec: np.ndarray) -> np.ndarray:
    """vec[j] *= exp(-i theta1 w_j) in place and returned, w_j = floor((j -
    n1)/N): -(n1 // N + 1) on the sites j < n1 mod N, -(n1 // N) on the rest."""
    if grid.theta_over_pi[0]:
        s, wraps = n1 % grid.N, n1 // grid.N
        vec[:s] *= _twist(grid, wraps + 1)
        vec[s:] *= _twist(grid, wraps)
    return vec


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
    return n1, _wrap_twist(grid, n1, phase)


def _shift_phase(vec: np.ndarray, s: int, phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j] = vec[j - s mod N] * phase[j] for a shift s in [0, N), as two
    slice multiplies into out (which must not overlap vec); returns out."""
    N = vec.shape[-1]
    np.multiply(vec[N - s :], phase[:s], out=out[:s])
    np.multiply(vec[: N - s], phase[s:], out=out[s:])
    return out


def _shift_phase_terms(fourier: Dict[Tuple[int, int], complex], grid: PlanckGrid):
    """sum_n c_n T(n) as (s, f_s) terms sorted by shift, one per distinct
    s = n1 mod N: f_s = sum c_n phase_n over the n with that shift, each
    phase_n from _translation_data, accumulated from zeros in sorted order."""
    N = grid.N
    phases: Dict[int, np.ndarray] = {}
    for n, c in sorted(fourier.items()):
        n1, phase = _translation_data(n, grid)
        f = phases.setdefault(n1 % N, np.zeros(N, dtype=complex))
        f += c * phase
    return sorted(phases.items())


def _adjoint_terms(terms):
    """The adjoint of a sum of shift-phase terms: the term (s, f) becomes
    the shift -s mod N with the phase conj(f[j + s mod N])."""
    return [((-s) % f.size, np.conj(np.concatenate((f[s:], f[:s])))) for s, f in terms]


def _shift_phase_sum(terms, vec: np.ndarray, out: np.ndarray, tmp=None) -> np.ndarray:
    """out = the sum of vec shifted times phase over the (shift, phase) terms;
    tmp, scratch of vec's shape, is allocated only when a second term
    needs it and none is given.  Returns out."""
    if not terms:
        out[...] = 0.0
        return out
    _shift_phase(vec, *terms[0], out)
    for s, phase in terms[1:]:
        if tmp is None:
            tmp = np.empty_like(vec)
        out += _shift_phase(vec, s, phase, tmp)
    return out


def _shift_phase_map(terms, N: int, label: str) -> LinearMap:
    """The sum of the (shift, phase) terms as an operator; the adjoint's
    terms are built once, on its first apply, since most callers only apply."""
    adjoint_terms = functools.cache(lambda: _adjoint_terms(terms))

    def apply(vec: np.ndarray) -> np.ndarray:
        return _shift_phase_sum(terms, vec, np.empty_like(vec))

    def adjoint(vec: np.ndarray) -> np.ndarray:
        return _shift_phase_sum(adjoint_terms(), vec, np.empty_like(vec))

    return LinearMap(N, apply, adjoint, label=label)


def translation(n: Tuple[int, int], grid: PlanckGrid) -> LinearMap:
    """The unitary T_N(n) = T_{n/N} on H_{N,theta}.

    One shift-phase term: a cyclic shift by n1 sites with the momentum
    phase exp(2 pi i n2 q_j), referenced to half-integer shifted sites, and
    exp(-i theta1) twists at wraparound.  The phases are exact residues, so
    T(n) T(m) = exp(i pi (n2 m1 - n1 m2)/N) T(n + m) to rounding, at every n.
    """
    n1, phase = _translation_data(n, grid)
    return _shift_phase_map([(n1 % grid.N, phase)], grid.N, label=f"T({n[0]},{n[1]})")


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------

def _bluestein_class(L: int) -> bool:
    """True when L has a prime factor p with p^2 > L: the only FFT lengths
    at which numpy's pocketfft falls back to Bluestein's algorithm."""
    r, f = L, 2
    while f * f <= r:
        while r % f == 0:
            r //= f
        f += 1
    return r > 1 and r * r > L


def _five_smooth_at_least(n: int) -> int:
    """The least integer >= n with no prime factor above 5."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _gauss_kernel(catmap: CatMap, grid: PlanckGrid) -> Tuple:
    """The propagator's Gauss-sum kernel in its g-block form, as (g, n, mu,
    kappa, D, C, phases) (see propagator); raises as propagator does.

    U[j, k] = C post(j) pre(k) e(-m k'/n)/sqrt(n) when k = kappa[j mod g]
    mod g, with k' = k // g and m = -mu (j // g) mod n, and U[j, k] = 0
    off that class.  phases(k1, c, chirp) returns the unit phases (pre,
    post) at the sites g k1 + c, k1 in [0, n) and c in [0, g) broadcast
    together, from exact residues mod D; with chirp, pre and post also
    hold the Bluestein chirps e(-k1^2/(2 n)) and e(-m^2/(2 n)).
    """
    a, b, _, d = catmap.entries
    if b == 0:
        # hyperbolic integral matrices always have b != 0 (b = 0 forces |trace| = 2)
        raise UnsupportedMatrix("matrix has b = 0; not hyperbolic over SL(2,Z)")
    _require_invariant_theta(catmap, grid)
    N = grid.N
    g = math.gcd(b, N)
    n, beta, p, q = N // g, b // g, *_site_offset(grid)
    h = Fraction(a * n, 2) - (t := grid.theta_over_pi[0] / 2)
    inv = pow(a * n, -1, abs(beta))
    mu, nu = (a * n * inv - 1) // beta, (d - inv * n) // beta
    eps = (inv * mu + 1 + beta * mu) % 2
    lam = Fraction(eps, 2) - inv * h
    z = int((a - 1) * Fraction(p, q) - t * b + Fraction(a * N * beta, 2)) % g

    # over D, s = q k + p = q g x' (or q j + p = q g y'): pre holds the x' terms, the
    # constant and x' (r + eta)/g; post the y' terms and (y' - (r + eta)/g) (kappa + eta)/g
    W = 2 * N * g * q * q
    const = beta * h * (eps - inv * h) / 2
    D = math.lcm(W, (lam / (q * g)).denominator, const.denominator)
    classes = np.arange(g)
    kappa = pow(a, -1, g) * (classes - z) % g
    R, K = q * (((a % g) * classes + z) % g) + p, q * kappa + p
    cross, chirp_c = 2 * mu * (D // W), -(D // (2 * n))
    pre_c1 = _residues([(cross, R), (int(lam * a * D / (q * g)), 1)], D)
    post_c1 = _residues([(cross, K), (-int(lam * D / (q * g)), 1)], D)
    post_c0 = _residues([(-cross, _residues([(q * classes + p, K)], D))], D)

    def phases(k1, c, chirp: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        m = (-mu % n) * k1 % n  # the row read for site j = g k1 + c
        s = q * (g * k1 + c) + p
        s2 = _residues([(s, s)], D)
        # e(-m k'/n) = e(-m^2/(2 n)) e(-k'^2/(2 n)) h(m - k') for Bluestein
        r = [(chirp_c, _residues([(k1, k1)], D))] if chirp else []
        r += [(-a * mu * (D // W), s2), (int(const * D), 1), (pre_c1[c], s)]
        pre = _unit_phase(_residues(r, D), D)
        r = [(chirp_c, _residues([(m, m)], D))] if chirp else []
        r += [(nu * (D // W), s2), (post_c0[c], 1), (post_c1[c], s)]
        return pre, _unit_phase(_residues(r, D), D)

    # C from U[z, 0] = g (N |b|)^-1/2 e(c0) sum_{w < |beta|} e(c2 w^2 + c1 w): the w2-sum is g
    c2, c1 = Fraction(a * n, 2 * beta), Fraction(a * p - (y := q * z + p), b * q) - t
    c0 = Fraction(a * p * p - 2 * p * y + d * y * y, 2 * N * b * q * q)
    Dw = math.lcm(c2.denominator, c1.denominator)
    c2, c1, ratio = int(c2 * Dw), int(c1 * Dw), 0
    for lo in range(0, abs(beta), _PHASE_BLOCK):
        w = np.arange(lo, min(abs(beta), lo + _PHASE_BLOCK))
        ratio += _unit_phase(_residues([(c2, w * w % Dw), (c1, w)], Dw), Dw).sum()
    ratio *= _unit_phase(c0.numerator % c0.denominator, c0.denominator) / abs(beta) ** 0.5
    pre, post = phases(np.zeros(2, dtype=np.int64), np.array([0, z]))
    ratio = complex(ratio) / (pre[0] * post[1])
    C = complex(_unit_phase(round(np.angle(ratio) * 4 / math.pi) % 8, 8))
    if abs(ratio - C) > 1e-6:
        raise UnsupportedMatrix(f"{catmap} at N={N}: constant {ratio:.3f} no 8th root of 1")
    return g, n, mu, kappa, D, C, phases


def propagator(catmap: CatMap, grid: PlanckGrid) -> LinearMap:
    """The quantum cat map U on H_{N,theta}, matrix-free, in O(N log N).

    U is the Gauss-sum (Hannay-Berry) kernel, e(s) = exp(2 pi i s),
        U[j, k] = (N |b|)^{-1/2} sum_{w=0}^{|b|-1}
                  e((a x_w^2 - 2 x_w y + d y^2)/(2 N b) - t w),
    x_w = k + eta + N w, y = j + eta, t = theta1/(2 pi), applied as one
    kernel of total length N whatever |b| is.  With g = gcd(b, N), n = N/g
    and beta = b/g, the g-block rule: w = w1 + |beta| w2, and the w2-sum,
    of g-th roots of unity, is g on the class j = a k + z mod g and 0 off
    it, z = eta (a - 1) - t b + a N beta/2 (an integer for an invariant
    theta).  There the w1-sum is a Gauss sum of length |beta| in a x' - y'
    + beta h, x' = (k + eta)/g, y' = (j + eta)/g, h = a n/2 - t; as a n
    is prime to beta, completing its square leaves U[j, k] = C n^{-1/2}
    e((nu y'^2 + 2 mu x' y' - a mu x'^2)/(2 n) + lam (a x' - y') + beta h
    (eps - i h)/2), with i = (a n)^-1 mod beta, mu = (a n i - 1)/beta,
    nu = (d - i n)/beta, eps = i mu + 1 + beta mu mod 2, lam = eps/2 - i h
    and C an eighth root of unity.  For k = g k' + kappa, j = g j' + r
    the cross term is mu j' k'/n plus terms of k or j alone: U v = post *
    B(pre * v), B a reshape to (g, n) (a row per class kappa), one batched
    length-n FFT along the rows and a read of site j in row kappa(r),
    column -mu j' mod n.  pre and post are unit phases of exact residues
    (_gauss_kernel); C is one Hannay-Berry element (|b|/g terms) over
    the new kernel's value there, rounded to the eighth root of unity:
    the global phase is exact.
    Where numpy's FFT would run Bluestein's algorithm (n has a prime
    factor p with p^2 > n), the DFT is the linear convolution with h(l) =
    e(l^2/(2 n)), its chirps folded into pre and post: two FFTs of the
    least 5-smooth M >= 2 n - 1 against h's transform, built once, which
    the adjoint, the correlation with h, reads too.

    Raises NoInvariantTheta for an incompatible grid.theta, and
    UnsupportedMatrix if C is no eighth root of unity or the unitarity spot
    check fails (neither expected for a hyperbolic SL(2,Z) map; defensive).
    """
    g, n, mu, kappa, D, C, phases = _gauss_kernel(catmap, grid)
    N = grid.N
    perm = (n * kappa + ((-mu % n) * np.arange(n) % n)[:, None]).reshape(-1)
    bluestein = _bluestein_class(n)
    classes = np.arange(g)
    pre, post = np.empty(N, dtype=complex), np.empty(N, dtype=complex)
    step = -(-max(_PHASE_BLOCK, 2 * math.isqrt(D)) // g)  # rows of >= 2 sqrt(D) sites
    for lo in range(0, n, step):
        k1 = np.arange(lo, min(n, lo + step))[:, None]
        pre_block, post_block = phases(k1, classes, bluestein)
        pre.reshape(n, g)[lo : lo + step] = pre_block
        post.reshape(n, g)[lo : lo + step] = post_block
    post *= C

    if bluestein:
        # h at l in (-n, n), placed at l mod M; h(-l) = h(l)
        M = _five_smooth_at_least(2 * n - 1)
        kernel = np.zeros(M, dtype=complex)
        kernel[:n] = _unit_phase(_residues([(np.arange(n),) * 2], 2 * n), 2 * n) / math.sqrt(n)
        kernel[M - n + 1 :] = kernel[n - 1 : 0 : -1]
        kernel = np.fft.fft(kernel, out=kernel)

        def convolution(first, second, x: np.ndarray) -> np.ndarray:
            F = first(x, M)
            F *= kernel
            return second(F, out=F)[:, :n]

        # the transpose, the correlation with h, swaps fft and ifft
        forward = functools.partial(convolution, np.fft.fft, np.fft.ifft)
        transposed = functools.partial(convolution, np.fft.ifft, np.fft.fft)
    else:  # in place; the DFT matrix is symmetric, its own transpose
        def forward(x: np.ndarray) -> np.ndarray:
            return np.fft.fft(x, norm="ortho", out=x)

        transposed = forward

    def apply(vec: np.ndarray) -> np.ndarray:
        out = forward((pre * vec).reshape(n, g).T).reshape(-1)[perm]
        out *= post
        return out

    def adjoint(vec: np.ndarray) -> np.ndarray:
        # U* = conj o pre B^T post o conj: scatter, transposed transform
        x = np.empty((g, n), dtype=complex)
        x.reshape(-1)[perm] = np.conjugate(vec) * post
        F = transposed(x)
        del x
        out = F.T.reshape(-1) * pre
        return np.conjugate(out, out=out)

    u = LinearMap(N, apply, adjoint, label=f"U{catmap.entries}")
    v = random_states(np.random.default_rng(0), N, 1)[0]
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
    s /= np.sqrt(_real_inner(s, s))[:, None]
    return s


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
