import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    EnumerationTooLarge,
    NotHyperbolic,
    NotUnimodular,
    Orbit,
    PreconditionError,
    decompose_hyperbolic,
    enumerate_prime_orbits,
    fixed_point_count,
    orbit_fourier_coefficient,
    orbit_through,
    validate_cat_map,
)
from catlab.classical import (
    _lattice_fixed_points,
    boost_matrix,
    rotation_matrix,
    torus_distance,
)

from conftest import hyperbolic_maps


def image(cat, j, k, l, t=1):
    """Numerators of M^t (j, k)/l mod 1, in exact integer arithmetic."""
    a, b, c, d = cat.matrix_power(t)
    return ((a * j + b * k) % l, (c * j + d * k) % l)

LAMBDA_ARNOLD = math.log((3 + math.sqrt(5)) / 2)


def reconstruct(cat):
    Q = rotation_matrix(cat.b1) @ boost_matrix(cat.b2)
    D = np.diag([math.exp(cat.lyapunov), math.exp(-cat.lyapunov)])
    return Q @ D @ np.linalg.inv(Q)


def random_hyperbolic(rng, max_trace=50):
    """Products of unit shears give positive-trace hyperbolic matrices."""
    while True:
        m = np.eye(2, dtype=np.int64)
        for _ in range(rng.integers(1, 4)):
            a = int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            m = m @ np.array([[1, a], [0, 1]]) @ np.array([[1, 0], [c, 1]])
        if 2 < m[0, 0] + m[1, 1] <= max_trace:
            return (int(m[0, 0]), int(m[0, 1]), int(m[1, 0]), int(m[1, 1]))


class TestValidate:
    def test_arnold_lyapunov(self, arnold):
        # eigenvalues of the Arnold map are (3 +- sqrt 5)/2
        assert arnold.lyapunov == pytest.approx(LAMBDA_ARNOLD, abs=1e-14)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            validate_cat_map(1, 1, 1, 1)

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            validate_cat_map(1, 1, 0, 1)

    def test_negative_trace_normalized(self):
        cat = validate_cat_map(-2, -1, -1, -1)
        assert cat.entries == (2, 1, 1, 1)

    def test_trace_identity(self, arnold):
        lam = arnold.lyapunov
        assert math.exp(lam) + math.exp(-lam) == pytest.approx(3.0, abs=1e-12)

    def test_reconstruction(self, arnold):
        err = np.max(np.abs(reconstruct(arnold) - arnold.as_array()))
        assert err < 1e-10

    def test_squeeze_definition(self, arnold):
        expect = -arnold.b2 * cmath.exp(-2j * arnold.b1)
        assert abs(arnold.squeeze - expect) == 0.0


class TestDecompose:
    def test_diagonal(self):
        mu = 0.7
        lam, au, as_, b1, b2, c0 = decompose_hyperbolic(
            np.diag([math.exp(mu), math.exp(-mu)])
        )
        assert lam == pytest.approx(mu, abs=1e-12)
        assert abs(b1) < 1e-12 and abs(b2) < 1e-12 and abs(c0) < 1e-12

    def test_boost(self):
        mu = 0.9
        lam, au, as_, b1, b2, c0 = decompose_hyperbolic(boost_matrix(mu))
        assert lam == pytest.approx(mu, abs=1e-12)
        assert b1 == pytest.approx(math.pi / 4, abs=1e-12)
        assert abs(b2) < 1e-12 and abs(c0) < 1e-12

    def test_rejects_elliptic(self):
        with pytest.raises(NotHyperbolic):
            decompose_hyperbolic(rotation_matrix(0.3))

    def test_b1_range_and_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cat = validate_cat_map(*random_hyperbolic(rng))
            assert -math.pi / 2 < cat.b1 <= math.pi / 2
            err = np.max(np.abs(reconstruct(cat) - cat.as_array()))
            assert err < 1e-10, cat


class TestOrbits:
    def test_fixed_point_counts(self, arnold):
        assert [fixed_point_count(arnold, T) for T in (1, 2, 3, 4)] == [1, 5, 16, 45]

    def test_fixed_point_count_brute_force(self, arnold):
        # oracle: scan L_l directly for solutions of M^T x = x
        for T in (1, 2, 3):
            l = fixed_point_count(arnold, T)
            a, b, c, d = arnold.matrix_power(T)
            hits = sum(
                1
                for j in range(l)
                for k in range(l)
                if ((a - 1) * j + b * k) % l == 0 and (c * j + (d - 1) * k) % l == 0
            )
            assert hits == l

    @pytest.mark.parametrize(
        "entries, T, l, g",
        [
            ((2, 1, 1, 1), 1, 1, 1),  # l = 1
            ((2, 1, 1, 1), 2, 5, 1),  # g = 1
            ((2, 1, 1, 1), 3, 16, 4),  # 1 < g < l
            ((1, 2, 1, 3), 1, 2, 2),  # g = l
        ],
    )
    def test_lattice_basis_shapes(self, entries, T, l, g):
        cat = validate_cat_map(*entries)
        assert fixed_point_count(cat, T) == l
        points = _lattice_fixed_points(cat, T, l)
        assert points.dtype == np.int64 and points.shape == (l, 2)
        assert [tuple(p) for p in points.tolist()] == scan_fixed_points(cat, T, l)
        assert sorted(set(points[:, 0].tolist())) == list(range(0, l, g))
        assert enumerate_prime_orbits(cat, T) == reference_orbits(cat, T)

    def test_large_lattice(self, arnold):
        orbits = enumerate_prime_orbits(arnold, 12, lattice_guard=200_000)
        assert orbits[0].l == 103680
        assert len(orbits) == 8610 == prime_orbit_count(arnold, 12)

    def test_int64_limit_ignores_guard(self, arnold):
        assert fixed_point_count(arnold, 23) > 4 * 10**9
        with pytest.raises(EnumerationTooLarge, match="2\\^31"):
            enumerate_prime_orbits(arnold, 23, lattice_guard=10**12)

    def test_prime_counts_and_divisor_identity(self, arnold):
        counts = {T: len(enumerate_prime_orbits(arnold, T)) for T in (1, 2, 3, 4)}
        assert counts == {1: 1, 2: 2, 3: 5, 4: 10}
        for T in (1, 2, 3, 4):
            total = sum(s * counts[s] for s in counts if T % s == 0)
            assert total == fixed_point_count(arnold, T)

    def test_t1_origin(self, arnold):
        (orbit,) = enumerate_prime_orbits(arnold, 1)
        assert orbit.jk.tolist() == [[0, 0]]

    def test_known_t2_orbit(self, arnold):
        orbits = enumerate_prime_orbits(arnold, 2)
        sets = [{tuple(p) for p in o.jk.tolist()} for o in orbits]
        assert {(4, 3), (1, 2)} in sets
        assert all(o.l == 5 for o in orbits)

    def test_canonical_start_and_ordering(self, arnold):
        orbits = enumerate_prime_orbits(arnold, 2)
        for o in orbits:
            points = [tuple(p) for p in o.jk.tolist()]
            assert min(points) == points[0]
        starts = [tuple(o.jk[0].tolist()) for o in orbits]
        assert starts == sorted(starts)

    def test_orbit_iteration_exact(self, arnold):
        for o in enumerate_prime_orbits(arnold, 3):
            points = [tuple(p) for p in o.jk.tolist()]
            for t, (j, k) in enumerate(points):
                assert image(arnold, j, k, o.l) == points[(t + 1) % o.length]
                assert image(arnold, j, k, o.l, o.length) == (j, k)

    def test_separation(self, arnold):
        for T in (2, 3, 4):
            for o in enumerate_prime_orbits(arnold, T):
                assert o.min_separation() >= 1.0 / o.l - 1e-15

    def test_enumeration_guard(self, arnold):
        with pytest.raises(EnumerationTooLarge):
            enumerate_prime_orbits(arnold, 4, lattice_guard=10)

    def test_array_layout(self, arnold):
        for o in enumerate_prime_orbits(arnold, 3):
            assert o.jk.dtype == np.int64 and o.jk.shape == (3, 2)
            assert not o.jk.flags.writeable
            j, k = o.jk[0].tolist()
            assert o.start() == (Fraction(j, o.l), Fraction(k, o.l))

    def test_equality(self, arnold):
        o = enumerate_prime_orbits(arnold, 2)[0]
        assert o == Orbit(o.jk.copy(), l=o.l)
        assert o != Orbit(o.jk[::-1].copy(), l=o.l)
        assert o != Orbit(o.jk, l=o.l + 1)
        assert o != Orbit(o.jk, l=o.l, prime=False)
        assert o != o.jk.tolist()


class TestOrbitThrough:
    def test_matches_enumeration(self, arnold):
        for T in range(1, 7):
            for o in enumerate_prime_orbits(arnold, T):
                assert orbit_through(arnold, *o.jk[0].tolist(), o.l) == o

    def test_starts_at_reduced_point(self, arnold):
        o = orbit_through(arnold, 6, -8, 5)
        assert o.jk.tolist() == [[1, 2], [4, 3]] and o.l == 5

    def test_period_cap(self, arnold):
        # (1, 0) has period 1000004 mod 1000003, just above the cap
        with pytest.raises(
            PreconditionError, match=r"orbit through \(1/1000003, 0/1000003\) has period above 1e6"
        ):
            orbit_through(arnold, 1, 0, 1000003)

    def test_denominator_limits(self, arnold):
        with pytest.raises(ValueError, match="positive"):
            orbit_through(arnold, 0, 0, 0)
        with pytest.raises(EnumerationTooLarge, match="2\\^31"):
            orbit_through(arnold, 0, 0, 2**31)
        assert orbit_through(arnold, 0, 0, 2**31 - 1).jk.tolist() == [[0, 0]]


def scan_fixed_points(cat, T, l):
    """Oracle: every (j, k) of Z_l^2 with (M^T - Id)(j, k) = 0 mod l, by scan."""
    a, b, c, d = cat.matrix_power(T)
    k00, k01 = (a - 1) % l, b % l
    k10, k11 = c % l, (d - 1) % l
    out = []
    ks = np.arange(l, dtype=np.int64)
    for j in range(l):
        r1 = (k00 * j + k01 * ks) % l
        r2 = (k10 * j + k11 * ks) % l
        for k in ks[(r1 == 0) & (r2 == 0)]:
            out.append((j, int(k)))
    return out


def reference_orbits(cat, T):
    """Oracle: walk M from each scanned fixed point, keep the exact-period-T cycles."""
    l = fixed_point_count(cat, T)
    a, b, c, d = cat.entries
    seen = set()
    cycles = []
    for start in scan_fixed_points(cat, T, l):
        if start in seen:
            continue
        cycle = [start]
        j, k = start
        while True:
            j, k = (a * j + b * k) % l, (c * j + d * k) % l
            if (j, k) == start:
                break
            cycle.append((j, k))
        seen.update(cycle)
        if len(cycle) == T:
            pivot = cycle.index(min(cycle))
            cycles.append(cycle[pivot:] + cycle[:pivot])
    return [Orbit(np.array(cyc, dtype=np.int64), l=l, prime=True) for cyc in sorted(cycles)]


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def prime_orbit_count(cat, T):
    """Moebius inversion of the fixed-point counts over the divisors of T."""
    total = sum(
        mobius(T // s) * fixed_point_count(cat, s) for s in range(1, T + 1) if T % s == 0
    )
    assert total % T == 0
    return total // T


def _small_lattice_cases():
    """(map, T) for |entries| <= 5 and T in 1..6 with l <= 2000."""
    return [
        (entries, T)
        for entries in hyperbolic_maps()
        for T in range(1, 7)
        if fixed_point_count(validate_cat_map(*entries), T) <= 2000
    ]


class TestLatticeProperty:
    @settings(deadline=None)
    @given(case=st.sampled_from(_small_lattice_cases()))
    def test_matches_scan_oracle(self, case):
        entries, T = case
        cat = validate_cat_map(*entries)
        l = fixed_point_count(cat, T)
        points = [tuple(p) for p in _lattice_fixed_points(cat, T, l).tolist()]
        assert set(points) == set(scan_fixed_points(cat, T, l))
        orbits = enumerate_prime_orbits(cat, T)
        assert orbits == reference_orbits(cat, T)
        assert len(orbits) == prime_orbit_count(cat, T)
        for o in orbits:
            assert orbit_through(cat, *o.jk[0].tolist(), l) == o
            for j, k in o.jk.tolist():
                periods = [t for t in range(1, T + 1) if image(cat, j, k, l, t) == (j, k)]
                assert periods == [T]


class TestMeasures:
    def test_probability(self, arnold):
        # mu_gamma(e_0) is the total mass of the delta measure
        for o in enumerate_prime_orbits(arnold, 3):
            assert orbit_fourier_coefficient(o, (0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_origin_orbit(self, arnold):
        (o,) = enumerate_prime_orbits(arnold, 1)
        for n in [(1, 0), (0, 1), (3, -2)]:
            assert orbit_fourier_coefficient(o, n) == pytest.approx(1.0)

    def test_t2_value(self, arnold):
        orbits = enumerate_prime_orbits(arnold, 2)
        o = next(x for x in orbits if {tuple(p) for p in x.jk.tolist()} == {(4, 3), (1, 2)})
        # n = (1,0): n ^ x = -p, points (4/5,3/5) and (1/5,2/5)
        expect = (cmath.exp(-2j * math.pi * 3 / 5) + cmath.exp(-2j * math.pi * 2 / 5)) / 2
        assert orbit_fourier_coefficient(o, (1, 0)) == pytest.approx(expect, abs=1e-14)
        via_float = sum(cmath.exp(2j * math.pi * (-k / o.l)) for _, k in o.jk.tolist()) / 2
        assert via_float == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [(1, 0), (0, 1), (3, -2), (-8, 7), (10**12, -(10**15))])
    def test_matches_exact_point_sum(self, arnold, n):
        # oracle: the sequential sum over the points with Python-int phases
        for o in enumerate_prime_orbits(arnold, 4):
            total = 0.0 + 0.0j
            for j, k in o.jk.tolist():
                total += cmath.exp(2j * math.pi * ((n[1] * j - n[0] * k) % o.l) / o.l)
            assert orbit_fourier_coefficient(o, n) == total / o.length


def test_torus_distance():
    assert torus_distance((0.9, 0.1), (0.1, 0.9)) == pytest.approx(
        math.hypot(0.2, 0.2)
    )
