import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    NoInvariantTheta,
    PlanckGrid,
    QuantumState,
    Symbol,
    UnsupportedMatrix,
    choose_theta,
    egorov_defect,
    husimi,
    propagator,
    torus_coherent,
    translation,
    validate_cat_map,
    weyl_quantize,
)
from catlab import hilbert
from catlab.hilbert import _require_invariant_theta, _unit_phase

from conftest import (
    coarse_husimi,
    hyperbolic_maps,
    propagator_dense,
    random_state,
    translation_entries,
    twisted_grid,
)

NONSYM = [(1, 2, 1, 3), (1, 4, 1, 5), (2, 3, 1, 2), (2, -1, -1, 1), (3, 2, 4, 3)]
# |b| = 1, 2, 3 and b < 0
CONVOLUTION_MAPS = [(2, 1, 1, 1), (5, 2, 2, 1), (2, 3, 1, 2), (1, -1, -1, 2)]
# the maps of the benchmark's propagator workload, two per |b| = 1, 2, 3
PERFBENCH_MAPS = [(2, 1, 1, 1), (1, 1, 8, 9), (5, 2, 2, 1), (1, 2, 4, 9), (2, 3, 1, 2), (4, 3, 9, 7)]
# g = gcd(b, N) from 1 to 6, even and odd N, b < 0, and the kernel's
# support on one class of j mod g: 1,-4,-1,5 is nonzero on 1/4 of it at
# N = 12 and 100, and 3,5,1,2 at N = 30 and 1,6,1,7 at N = 72 have g = 6
EVERY_GCD = [
    ((5, 2, 2, 1), 64), ((5, 2, 2, 1), 250), ((2, 3, 1, 2), 96), ((2, 3, 1, 2), 99),
    ((4, 3, 9, 7), 81), ((1, -4, -1, 5), 12), ((1, -4, -1, 5), 100), ((3, 5, 1, 2), 30),
    ((1, 6, 1, 7), 72),
] + [(e, N) for e in PERFBENCH_MAPS for N in (1, 2)]


def exact_phase(x):
    """exp(2 pi i x) for a Fraction x, reduced to the nearest quarter turn
    in exact arithmetic: the float angle left is at most pi/4, so the value
    is good to about 1e-16, where exp(2j pi float(x)) loses up to 1e-15."""
    t = round(4 * x)
    return (1, 1j, -1, -1j)[t % 4] * cmath.exp(0.5j * math.pi * float(4 * x - t))


class TestUnitPhase:
    @staticmethod
    def _check(r, D):
        r = np.asarray(r, dtype=np.int64)
        want = np.array([exact_phase(Fraction(v, D)) for v in r.tolist()])
        assert np.max(np.abs(_unit_phase(r, D) - want)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        D=st.integers(1, 2**53),
        size=st.integers(1, 3000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_against_exact_reduction(self, D, size, seed):
        # short arrays at large D take the direct path, long ones at
        # small D the tables
        r = np.random.default_rng(seed).integers(0, D, size, dtype=np.int64)
        r[: min(size, 4)] = [0, D - 1, D // 2, D // 4][: min(size, 4)]
        self._check(r, D)

    @pytest.mark.parametrize("D", [1, 2, 3, 4, 1000, 2 * 65537, 8 * 4096 * 3, 2**24 + 1])
    def test_tables(self, D):
        size = max(3000, 2 * math.isqrt(D))
        self._check(np.random.default_rng(D).integers(0, D, size, dtype=np.int64), D)

    def test_quarter_turns_exact(self):
        # short arrays (the direct path) at any D divisible by 4, and the
        # tables at D = 2, 4, 8 (D = 2 holds every theta1 = pi twist)
        want = np.array([1, 1j, -1, -1j])
        for D in (16, 24, 4 * 65537):
            assert np.array_equal(_unit_phase(np.arange(4) * (D // 4), D), want)
        k = np.arange(200) % 4
        for D in (4, 8):
            assert np.array_equal(_unit_phase(k * (D // 4), D), want[k])
        assert np.array_equal(_unit_phase(k % 2, 2), np.where(k % 2, -1, 1))

    def test_refuses_denominators_beyond_2_60(self):
        # theta2/pi = 1/(5 10^16) puts the site offset over q N = 6.4e18
        grid = PlanckGrid(64, (Fraction(0), Fraction(1, 5 * 10**16)))
        with pytest.raises(ValueError, match="denominator"):
            translation((3, 5), grid)
        with pytest.raises(ValueError, match="denominator"):
            _unit_phase(np.arange(3), 2**60 + 1)


class TestExactQuadraticPhase:
    """_residues, the one residue rule behind every phase of the layer:
    sum c x mod D, exact in int64 below D = 2^30 and in Python integers
    above, for the kernel's quadratic phases as for the linear ones."""

    def test_python_int_branch(self):
        # D >= 2^30: a product of two residues overflows int64, so the
        # residues are multiplied as Python integers
        D = 8 * 1000003 * 3 * 2**20
        s = np.array([2**31 + 11, 3 * 2**30, D - 1, 5, 0])
        s2 = np.array([v * v % D for v in s.tolist()])
        got = hilbert._residues([(-7, s2), (12345, s), (-(3 << 40), 1)], D)
        assert (D - 1) ** 2 >= 2**63 and got.dtype == np.int64
        assert got.tolist() == [(-7 * v * v + 12345 * v - (3 << 40)) % D for v in s.tolist()]

    def test_int64_branch(self):
        D = 2 * 4096 * 4
        s = 2 * np.arange(8192) + 1
        got = hilbert._residues([(5, s * s % D), (-4, s), (2, 1)], D)
        assert got.tolist() == [(5 * v * v - 4 * v + 2) % D for v in s.tolist()]
        phase = _unit_phase(got, D)
        want = np.array([exact_phase(Fraction(v, D)) for v in got.tolist()])
        assert np.max(np.abs(phase - want)) <= 1e-15

    @pytest.mark.parametrize("big", [False, True], ids=["int64", "python-int"])
    def test_two_dimensional_s(self, big):
        # a column of sites against a row of classes, as the kernel's blocks
        D = 2 * 3**20 if big else 2 * 3**9
        rows = np.arange(0, D, D // 5)[:, None]
        cols = (np.arange(6) * 7919) % D
        squares = np.array([[v * v % D] for v in rows.ravel().tolist()])
        terms = [(3, squares), (-2**40, cols), (11, rows), (7, 1)]
        got = hilbert._residues(terms, D)
        assert got.shape == (len(rows), 6)
        want = sum(c * np.asarray(x, dtype=object) for c, x in terms) % D
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("D", [2, 2 * 4099, 2**31 + 2])
    def test_reduced_negative_operands(self, D):
        # wrap counts and window sites may be negative: callers reduce them
        # (k % D) first, and the residue is that of the unreduced sum
        k = np.array([-(2**40) - 1, -D - 1, -1, 0, 1, D + 3])
        got = hilbert._residues([(-5, k % D), (3, 1)], D)
        assert got.tolist() == [(-5 * v + 3) % D for v in k.tolist()]
        assert hilbert._residues([(-5, -7 % D)], D).shape == ()


class TestChooseTheta:
    def test_parity_rule_even(self, arnold):
        grid = choose_theta(arnold, 4)
        assert grid == PlanckGrid(4, (Fraction(0), Fraction(0)))
        assert grid.theta == (0.0, 0.0) and grid.eta == 0.0
        _require_invariant_theta(arnold, grid)

    def test_parity_rule_odd(self, arnold):
        grid = choose_theta(arnold, 5)
        assert grid == PlanckGrid(5, (Fraction(1), Fraction(1)))
        assert grid.theta == (math.pi, math.pi) and grid.eta == 0.5
        _require_invariant_theta(arnold, grid)

    @pytest.mark.parametrize("entries", NONSYM)
    @pytest.mark.parametrize("N", [15, 16, 21])
    def test_residual_general(self, entries, N):
        cat = validate_cat_map(*entries)
        _require_invariant_theta(cat, choose_theta(cat, N))

    @pytest.mark.parametrize(
        "entries, N",
        [
            ((5, 2, 2, 1), 381431),  # a float residual reads 1.08e-9 here
            ((1, 1, 8, 9), 21583),  # theta/pi = (1, 0) also solves the congruence
        ],
    )
    def test_parity_at_large_N(self, entries, N):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        assert grid.theta_over_pi == (Fraction(1), Fraction(1))
        assert grid.theta == (math.pi, math.pi)
        _require_invariant_theta(cat, grid)

    def test_exact_check_rejects_wrong_fractions(self, arnold):
        grid = PlanckGrid(5, (Fraction(0), Fraction(1)))
        with pytest.raises(NoInvariantTheta):
            _require_invariant_theta(arnold, grid)

    @staticmethod
    def _check_right_and_wrong(entries, N, r):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        _require_invariant_theta(cat, grid)
        # K (delta, 0) = ((1 - d) delta, b delta) with b delta = +-(2r + 1)/2,
        # never an even integer: theta1/pi + delta breaks the second congruence
        y0, y1 = grid.theta_over_pi
        delta = Fraction(2 * r + 1, 2 * abs(cat.b))
        with pytest.raises(NoInvariantTheta):
            _require_invariant_theta(cat, PlanckGrid(N, ((y0 + delta) % 2, y1)))

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        N=st.integers(1, 64),
        r=st.integers(0, 50),
    )
    def test_exact_check_over_maps(self, entries, N, r):
        self._check_right_and_wrong(entries, N, r)

    @pytest.mark.parametrize("N", [381431, 3_000_001])
    def test_exact_check_over_maps_at_large_N(self, N):
        # where a float residual needed a tolerance scaled with N
        for entries in hyperbolic_maps():
            self._check_right_and_wrong(entries, N, 0)


class TestPlanckGrid:
    def test_two_fields_and_derived_angles(self):
        import dataclasses

        grid = PlanckGrid(600, (Fraction(2, 3), 1))
        assert [f.name for f in dataclasses.fields(grid)] == ["N", "theta_over_pi"]
        assert grid.theta_over_pi == (Fraction(2, 3), Fraction(1))
        assert all(type(v) is Fraction for v in grid.theta_over_pi)
        assert grid.theta == (math.pi * (2 / 3), math.pi)
        assert grid.eta == 0.5

    @pytest.mark.parametrize(
        "theta_over_pi", [(0.5, 0), (Fraction(2), 0), (0, Fraction(-1, 3))]
    )
    def test_refuses_floats_and_angles_outside_0_2(self, theta_over_pi):
        with pytest.raises(ValueError, match="theta/pi must be two rationals"):
            PlanckGrid(8, theta_over_pi)


class TestTranslation:
    def test_identity(self, arnold):
        grid = choose_theta(arnold, 64)
        t = translation((0, 0), grid)
        psi = random_state(grid, 1).amplitudes
        assert np.max(np.abs(t.apply(psi) - psi)) == 0.0

    def test_composition_law(self, arnold):
        grid = choose_theta(arnold, 64)
        rng = np.random.default_rng(2)
        psi = random_state(grid, 3).amplitudes
        for _ in range(50):
            n = rng.integers(-6, 7, 2)
            m = rng.integers(-6, 7, 2)
            tn = translation(tuple(n), grid)
            tm = translation(tuple(m), grid)
            tnm = translation(tuple(n + m), grid)
            wedge = n[1] * m[0] - n[0] * m[1]
            phase = np.exp(1j * np.pi * wedge / grid.N)
            err = np.linalg.norm(tn.apply(tm.apply(psi)) - phase * tnm.apply(psi))
            assert err < 1e-12

    def test_specific_composition_phase(self, arnold):
        # T(1,0) T(0,1) = exp(-i pi/N) T(1,1): (1,0)^(0,1) = -1 in the
        # convention u^v = u2 v1 - u1 v2
        grid = choose_theta(arnold, 32)
        lhs = translation_entries((1, 0), grid) @ translation_entries((0, 1), grid)
        rhs = np.exp(-1j * np.pi / 32) * translation_entries((1, 1), grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_adjoint_entrywise(self):
        cat = validate_cat_map(1, 2, 1, 3)
        grid = choose_theta(cat, 21)
        for n in [(1, 0), (0, 1), (3, -2), (-5, 7)]:
            tn = translation_entries(n, grid)
            tmn = translation_entries((-n[0], -n[1]), grid)
            assert np.max(np.abs(tn.conj().T - tmn)) < 1e-14

    def test_adjoint_built_on_first_use(self, arnold, monkeypatch):
        # one phase build per translation; the adjoint's terms come from the
        # forward ones on the first adjoint apply, and only once
        grid = choose_theta(arnold, 21)
        data_calls, adjoint_calls = [], []
        build, adjoint_terms = hilbert._translation_data, hilbert._adjoint_terms

        def counting_data(n, g):
            data_calls.append(n)
            return build(n, g)

        def counting_adjoint(terms):
            adjoint_calls.append(len(terms))
            return adjoint_terms(terms)

        monkeypatch.setattr(hilbert, "_translation_data", counting_data)
        monkeypatch.setattr(hilbert, "_adjoint_terms", counting_adjoint)
        psi = random_state(grid, 4).amplitudes
        t = translation((3, -2), grid)
        t.apply(psi)
        assert data_calls == [(3, -2)] and adjoint_calls == []
        first = t.apply_adjoint(psi)
        second = t.apply_adjoint(psi)
        assert data_calls == [(3, -2)] and adjoint_calls == [1]
        assert np.array_equal(first, second)
        expect = translation((-3, 2), grid).apply(psi)
        assert np.max(np.abs(first - expect)) <= 1e-15

    @pytest.mark.parametrize("n", [(3, -2), (0, 5), (-25, 7), (21, 1), (123456, -98765)])
    def test_translation_is_one_term_weyl_operator(self, arnold, n):
        # one builder: T(n) and the Weyl operator of e_n agree bit for bit
        for grid in (choose_theta(arnold, 21), twisted_grid()[1]):
            psi = random_state(grid, 5).amplitudes
            t = translation(n, grid)
            w = weyl_quantize(Symbol.from_fourier({n: 1.0}), grid)
            assert np.array_equal(t.apply(psi), w.apply(psi))
            assert np.array_equal(t.apply_adjoint(psi), w.apply_adjoint(psi))

    @pytest.mark.parametrize("k", [10, 11, 12, 40])
    def test_twist_exact_past_int64(self, k):
        # theta1/pi = u/v with u k >= 2^63 for k >= 11: the twist residue
        # u k mod 2v must not wrap in int64
        den = 3 * 2**57 + 1
        grid = PlanckGrid(16, (Fraction(2 * den - 7, den), Fraction(0)))
        psi = random_state(grid, 6).amplitudes
        step, lhs = translation((16, 0), grid), psi
        for _ in range(k):
            lhs = step.apply(lhs)
        rhs = translation((16 * k, 0), grid).apply(psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_integer_translation_eigenrelations(self):
        cat = validate_cat_map(1, 2, 1, 3)
        N = 15
        grid = choose_theta(cat, N)
        t10 = translation_entries((N, 0), grid)
        t01 = translation_entries((0, N), grid)
        eye = np.eye(N)
        assert np.max(np.abs(t10 - np.exp(1j * grid.theta[0]) * eye)) < 1e-12
        assert np.max(np.abs(t01 - np.exp(1j * grid.theta[1]) * eye)) < 1e-12

    @staticmethod
    def _exact_translation_phase(n, grid, j):
        """phase[j] of T(n) from the definition, in exact arithmetic."""
        n1, n2 = n
        N, (y0, y1) = grid.N, grid.theta_over_pi
        eta = y1 / 2
        wraps = (j - n1) // N
        return exact_phase(n2 * (j + eta - Fraction(n1, 2)) / N - y0 * wraps / 2)

    @pytest.mark.parametrize(
        "n",
        [(123456, -98765), (10**6, -999997), (-(10**6), 10**6 - 1), (3, 5), (65537 * 7 + 2, -1)],
    )
    def test_phases_exact_at_large_n(self, arnold, n):
        # odd N: eta = 1/2 and a theta1 = pi twist; reducing the phase
        # argument mod 1 in floats is off by up to 6e-9 at these n
        self._check_phases(n, choose_theta(arnold, 65537))

    @pytest.mark.parametrize("n", [(1, 0), (-601, 7), (123456, -98765), (-(10**6), 999997)])
    def test_phases_exact_off_parity(self, n):
        # theta/pi = (2/3, 4/3): eta = 2/3 and a twist that is neither 1 nor -1
        self._check_phases(n, twisted_grid()[1])

    def _check_phases(self, n, grid):
        n1, phase = hilbert._translation_data(n, grid)
        rng = np.random.default_rng(0)
        seam = (n1 % grid.N + np.arange(-3, 3)) % grid.N
        sites = np.concatenate([rng.integers(0, grid.N, 1500), seam, [0, grid.N - 1]])
        want = [self._exact_translation_phase(n, grid, int(j)) for j in sites]
        assert np.max(np.abs(phase[sites] - want)) <= 1e-15

    @pytest.mark.parametrize(
        "n, m",
        [((10**6, -999997), (3, 5)), ((123456, -98765), (-77777, 999999)), ((-3, 4), (5, 2))],
    )
    def test_composition_law_at_large_n(self, arnold, n, m):
        N = 65537
        grid = choose_theta(arnold, N)
        psi = random_state(grid, 7).amplitudes
        nm = (n[0] + m[0], n[1] + m[1])
        wedge = n[1] * m[0] - n[0] * m[1]
        lhs = translation(n, grid).apply(translation(m, grid).apply(psi))
        rhs = exact_phase(Fraction(wedge, 2 * N)) * translation(nm, grid).apply(psi)
        # per entry, relative to the 1/sqrt(N) size of an entry of psi
        assert np.max(np.abs(lhs - rhs)) * math.sqrt(N) <= 1e-13

    def test_unitarity(self, arnold):
        grid = choose_theta(arnold, 47)
        psi = random_state(grid, 4).amplitudes
        for n in [(2, 3), (-1, 5)]:
            t = translation(n, grid)
            assert abs(np.linalg.norm(t.apply(psi)) - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 7, 48])
    def test_shift_phase_is_roll_times_phase(self, N):
        # every shift, the seam ones 0 and N - 1 included, bit for bit
        rng = np.random.default_rng(N)
        vec = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        phase = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for s in range(N):
            out = hilbert._shift_phase(vec, s, phase, np.empty(N, dtype=complex))
            assert np.array_equal(out, np.roll(vec, s) * phase)

    def test_apply_matches_dense_entries(self, arnold):
        # shifts past N both ways, and on a twisted grid
        for grid in (choose_theta(arnold, 21), twisted_grid()[1]):
            psi = random_state(grid, 5).amplitudes
            for n in [(0, 1), (3, -2), (-5, 7), (grid.N + 2, 1), (-2 * grid.N - 1, 4)]:
                t = translation(n, grid)
                T = translation_entries(n, grid)
                assert np.max(np.abs(t.apply(psi) - T @ psi)) < 1e-14
                assert np.max(np.abs(t.apply_adjoint(psi) - T.conj().T @ psi)) < 1e-14


class TestPropagator:
    @pytest.mark.parametrize("entries", [(2, 1, 1, 1)] + NONSYM)
    def test_unitarity_and_egorov_dense(self, entries):
        cat = validate_cat_map(*entries)
        for N in (15, 16):
            grid = choose_theta(cat, N)
            U = propagator_dense(cat, grid)
            assert np.max(np.abs(U.conj().T @ U - np.eye(N))) < 1e-12
            for n in [(1, 0), (0, 1), (2, -1)]:
                mn = (cat.a * n[0] + cat.b * n[1], cat.c * n[0] + cat.d * n[1])
                lhs = U @ translation_entries(n, grid) @ U.conj().T
                assert np.max(np.abs(lhs - translation_entries(mn, grid))) < 1e-12

    @pytest.mark.parametrize(
        "entries, N",
        [pytest.param((2, 3, 1, 2), N, id=str(N)) for N in (256, 1024)]
        # N/gcd(b, N) with a prime factor p, p^2 > N/gcd(b, N): the convolution form
        + [
            pytest.param(e, N, id=",".join(map(str, e)) + f"-{N}")
            for N in (482, 1009)
            for e in CONVOLUTION_MAPS
        ]
        + [pytest.param(e, N, id=",".join(map(str, e)) + f"-{N}") for e, N in EVERY_GCD],
    )
    def test_fast_matches_dense_kernel(self, entries, N):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        Ud = propagator_dense(cat, grid)
        psi = random_state(grid, 5).amplitudes
        assert np.max(np.abs(u.apply(psi) - Ud @ psi)) < 1e-10
        assert np.max(np.abs(u.apply_adjoint(psi) - Ud.conj().T @ psi)) < 1e-10

    def test_fast_matches_dense_kernel_off_parity(self):
        # theta1 = 2 pi/3: the per-wrap twist of the kernel is neither 1
        # nor -1, so its sign and size are seen; at N = 600, gcd(5, N) = 5
        # and the direct form runs at 120; 402 = 2 3 67 takes the convolution form
        for N in (600, 402):
            cat, grid = twisted_grid(N)
            u = propagator(cat, grid)
            Ud = propagator_dense(cat, grid)
            psi = random_state(grid, 8).amplitudes
            assert np.max(np.abs(u.apply(psi) - Ud @ psi)) < 1e-12
            assert np.max(np.abs(u.apply_adjoint(psi) - Ud.conj().T @ psi)) < 1e-12

    @pytest.mark.parametrize(
        "entries, N, lengths",
        [
            pytest.param((2, 1, 1, 1), 1009, {2025}, id="1009"),
            pytest.param((2, 1, 1, 1), 1024, {1024}, id="1024"),
            pytest.param((2, 1, 1, 1), 1536, {1536}, id="1536"),
        ]
        # |b| = 3, 2, 3: no FFT longer than N, and 512 = N/gcd(2, N)
        + [
            pytest.param(e, 1024, lengths, id=",".join(map(str, e)) + "-1024")
            for e, lengths in [((2, 3, 1, 2), {1024}), ((5, 2, 2, 1), {512}), ((4, 3, 9, 7), {1024})]
        ],
    )
    def test_form_follows_fft_length(self, entries, N, lengths, monkeypatch):
        # 1009 is prime: two FFTs of 2025 = 3^4 5^2, the least 5-smooth
        # length >= 2 N - 1, and none of length N; 1024 and 1536 = 2^9 3,
        # whose largest prime factor 3 has 3^2 < 1536, keep the direct form
        seen = set()

        def recording(transform):
            def run(a, n=None, *args, **kwargs):
                seen.add(np.shape(a)[-1] if n is None else n)
                return transform(a, n, *args, **kwargs)

            return run

        monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        psi = random_state(grid, 9).amplitudes
        u.apply(psi)
        u.apply_adjoint(psi)
        assert seen == lengths

    def test_unitarity_random_states(self, arnold, grid4096):
        u = propagator(arnold, grid4096)
        for seed in range(20):
            psi = random_state(grid4096, seed).amplitudes
            assert abs(np.linalg.norm(u.apply(psi)) - 1.0) < 1e-10

    def test_large_N_passes_self_check(self):
        cat = validate_cat_map(5, 2, 2, 1)
        grid = choose_theta(cat, 381431)
        u = propagator(cat, grid)
        psi = random_state(grid, 6).amplitudes
        assert abs(np.linalg.norm(u.apply(psi)) - 1.0) < 1e-10

    def test_build_memory(self, arnold):
        # the chirps are built in blocks: the build and its unitarity check
        # together hold at most 7.5 vectors of length N |b|
        grid = choose_theta(arnold, 2**20)
        tracemalloc.start()
        try:
            propagator(arnold, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 16 * grid.N * abs(arnold.b)

    def test_build_memory_without_b(self):
        # |b| = 3 runs one kernel of total length N: the build and its
        # unitarity check hold at most 7.5 vectors of length N
        cat = validate_cat_map(4, 3, 9, 7)
        grid = choose_theta(cat, 2**20)
        tracemalloc.start()
        try:
            propagator(cat, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 16 * grid.N

    @pytest.mark.parametrize("N", [12, 14])
    def test_python_integer_residues_match_dense_kernel(self, N):
        # 1,1,k,k+1 admits theta/pi = (0, 2/k) at even N; at k = 10001 the
        # kernel's phases lie over D = 2 N (2 k)^2 > 2^30, where
        # hilbert._residues works in Python integers
        k = 10001
        cat = validate_cat_map(1, 1, k, k + 1)
        grid = PlanckGrid(N, (Fraction(0), Fraction(2, k)))
        u = propagator(cat, grid)
        Ud = propagator_dense(cat, grid)
        basis = np.eye(N, dtype=complex)
        assert np.max(np.abs(np.column_stack([u.apply(e) for e in basis]) - Ud)) < 1e-10
        assert np.max(np.abs(np.column_stack([u.apply_adjoint(e) for e in basis]) - Ud.conj().T)) < 1e-10

    @pytest.mark.parametrize("N", [31, 32, 33])
    def test_b_beyond_N_matches_dense_kernel(self, N):
        # A^5 = 89,55,55,34 for Arnold's A: |b| = 55 > N
        cat = validate_cat_map(89, 55, 55, 34)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        Ud = propagator_dense(cat, grid)
        basis = np.eye(N, dtype=complex)
        assert np.max(np.abs(np.column_stack([u.apply(e) for e in basis]) - Ud)) < 1e-10

    @pytest.mark.parametrize("N", [4096, 4099])
    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (2, 3, 1, 2), (1, -1, -1, 2)])
    def test_power_is_one_kernel(self, entries, N):
        # U_{M^t} = c U_M^t, t = 2..6, with c = exp(-i pi sgn(b) (t - 1)/4)
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        psi = random_state(grid, 11).amplitudes
        M = np.array([[cat.a, cat.b], [cat.c, cat.d]])
        pushed = u.apply(psi)
        for t in range(2, 7):
            pushed = u.apply(pushed)
            power = validate_cat_map(*map(int, np.linalg.matrix_power(M, t).ravel()))
            ut = propagator(power, grid).apply(psi)
            c = cmath.exp(-0.25j * math.pi * (t - 1) * np.sign(cat.b))
            assert np.max(np.abs(ut - c * pushed)) < 1e-10

    def test_build_memory_convolution_form(self, arnold):
        # N = 1048573 is prime: the build and its unitarity check hold at
        # most 5 vectors of the convolution length M = 2^21
        grid = choose_theta(arnold, 1048573)
        tracemalloc.start()
        try:
            propagator(arnold, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 16 * 2**21

    def test_incompatible_theta_rejected(self, arnold):
        bad = PlanckGrid(8, (Fraction(1, 5), Fraction(7, 20)))
        with pytest.raises(NoInvariantTheta):
            propagator(arnold, bad)

    def test_b_zero_rejected(self):
        from catlab.classical import CatMap

        fake = CatMap(1, 0, 0, 1, 1.0, 0.0, 0.0)
        grid = choose_theta(validate_cat_map(2, 1, 1, 1), 8)
        with pytest.raises(UnsupportedMatrix):
            propagator(fake, grid)

    def test_recenters_periodic_point(self, arnold, grid4096):
        # U^T on a coherent state at a T-periodic point recenters it there:
        # Husimi centroid within 2/N of the orbit point
        from catlab import enumerate_prime_orbits

        orbit = enumerate_prime_orbits(arnold, 2)[0]
        start = orbit.start()
        x0 = (float(start[0]), float(start[1]))
        u = propagator(arnold, grid4096)
        st = torus_coherent(start, arnold, grid4096)
        amp = st.amplitudes
        for _ in range(2):
            amp = u.apply(amp)
        evolved = QuantumState(amp, grid4096)
        h = husimi(evolved, arnold, 256)
        c = h.centers()
        dq = (c - x0[0] + 0.5) % 1.0 - 0.5
        dp = (c - x0[1] + 0.5) % 1.0 - 0.5
        mask = (np.abs(dq)[:, None] < 0.2) & (np.abs(dp)[None, :] < 0.2)
        w = np.where(mask, h.values, 0.0)
        w = w / w.sum()
        cq = float(np.sum(w.sum(axis=1) * dq))
        cp = float(np.sum(w.sum(axis=0) * dp))
        assert math.hypot(cq, cp) < 2.0 / grid4096.N


class TestEgorovDefect:
    def test_zero_translation(self, arnold):
        grid = choose_theta(arnold, 128)
        u = propagator(arnold, grid)
        states = [random_state(grid, s).amplitudes for s in range(3)]
        assert egorov_defect(u, arnold, grid, states, 0) < 1e-12

    def test_against_dense_norm(self, arnold):
        N = 256
        grid = choose_theta(arnold, N)
        u = propagator(arnold, grid)
        states = [random_state(grid, s).amplitudes for s in range(5)]
        est = egorov_defect(u, arnold, grid, states, 1)
        U = propagator_dense(arnold, grid)
        exact = 0.0
        for n in [(n1, n2) for n1 in (-1, 0, 1) for n2 in (-1, 0, 1)]:
            mn = (arnold.a * n[0] + arnold.b * n[1], arnold.c * n[0] + arnold.d * n[1])
            D = U @ translation_entries(n, grid) @ U.conj().T - translation_entries(mn, grid)
            exact = max(exact, np.linalg.norm(D, 2))
        assert est < 1e-8 and exact < 1e-8

    def test_detects_a_wrong_map(self, arnold):
        grid = choose_theta(arnold, 64)
        u = translation((1, 0), grid)  # not the propagator
        states = [random_state(grid, 0).amplitudes]
        assert egorov_defect(u, arnold, grid, states, 1) > 0.1

    def test_arnold_1024(self, arnold, grid1024):
        u = propagator(arnold, grid1024)
        states = [random_state(grid1024, s).amplitudes for s in range(2)]
        assert egorov_defect(u, arnold, grid1024, states, 1) < 1e-8

    def test_trace4_matrix(self):
        cat = validate_cat_map(1, 2, 1, 3)
        grid = choose_theta(cat, 512)
        u = propagator(cat, grid)
        states = [random_state(grid, s).amplitudes for s in range(2)]
        assert egorov_defect(u, cat, grid, states, 2) < 1e-8


class TestRandomMapsProperty:
    @settings(max_examples=40, deadline=None)
    @given(entries=st.sampled_from(hyperbolic_maps()), N=st.integers(1, 48))
    def test_fast_propagator_matches_dense_kernel(self, entries, N):
        # odd N has theta = (pi, pi): the kernel's w-sum carries the twist
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        Ud = propagator_dense(cat, grid)
        basis = np.eye(N, dtype=complex)
        U = np.column_stack([u.apply(e) for e in basis])
        U_adj = np.column_stack([u.apply_adjoint(e) for e in basis])
        assert np.max(np.abs(U - Ud)) < 1e-12
        assert np.max(np.abs(U_adj - Ud.conj().T)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        N=st.integers(7, 4096),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_parity_theta_propagator_and_conjugation(self, entries, N, seed):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        _require_invariant_theta(cat, grid)
        u = propagator(cat, grid)
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        for psi in states:
            assert abs(np.linalg.norm(u.apply(psi)) - 1.0) < 1e-10
        assert egorov_defect(u, cat, grid, states, 1) < 1e-8


class TestStateBasics:
    def test_norms(self, arnold):
        grid = choose_theta(arnold, 32)
        st = random_state(grid, 9)
        assert st.norm2() == pytest.approx(1.0, abs=1e-12)
        st2 = QuantumState(2.0 * st.amplitudes, grid)
        assert st2.normalized().norm2() == pytest.approx(1.0, abs=1e-12)

    def test_shape_checked(self, arnold):
        grid = choose_theta(arnold, 8)
        with pytest.raises(ValueError):
            QuantumState(np.zeros(7, dtype=complex), grid)


class TestLinearity:
    def test_linearity_spot_checks(self, arnold):
        # LinearMap contract: linearity verified on random combinations
        from catlab import Symbol, weyl_quantize

        grid = choose_theta(arnold, 128)
        rng = np.random.default_rng(21)
        maps = [
            translation((2, -3), grid),
            propagator(arnold, grid),
            weyl_quantize(
                Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5}, real=True), grid
            ),
        ]
        for op in maps:
            x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            a, b = 0.7 - 0.2j, -1.3 + 0.4j
            lhs = op.apply(a * x + b * y)
            rhs = a * op.apply(x) + b * op.apply(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCrossMatrixStress:
    def test_many_maps_full_chain(self):
        # propagator + coherent-state + Husimi identities across a spread of
        # maps and dimensions, including b = 0 mod N and tiny N
        rng = np.random.default_rng(33)
        cases = [(1, 2, 1, 3), (1, 4, 1, 5), (3, 4, 2, 3), (2, -1, -1, 1),
                 (5, 2, 2, 1), (7, 12, 4, 7)]
        for entries in cases:
            cat = validate_cat_map(*entries)
            for N in (12, 21, 482):
                grid = choose_theta(cat, N)
                u = propagator(cat, grid)
                psi = rng.standard_normal(N) + 1j * rng.standard_normal(N)
                psi /= np.linalg.norm(psi)
                assert abs(np.linalg.norm(u.apply(psi)) - 1.0) < 1e-10
                n = (1, 0)
                mn = (cat.a, cat.c)
                d = u.apply(translation(n, grid).apply(u.apply_adjoint(psi)))
                d -= translation(mn, grid).apply(psi)
                assert np.linalg.norm(d) < 1e-10
                if N == 482:
                    coh = torus_coherent((0.0, 0.0), cat, grid)
                    assert abs(coh.norm2() - 1.0) < 1e-6
                    h = coarse_husimi(coh, cat, 64)
                    assert abs(h.total() - coh.norm2()) < 0.01


def periodic_point_count(cat, t, N):
    """#{x in (Z/N)^2 : (M^t - Id) x = 0 mod N}, in integer arithmetic."""
    a, b, c, d = cat.matrix_power(t)
    j = np.arange(N)[:, None]
    k = np.arange(N)[None, :]
    return int(np.count_nonzero((((a - 1) * j + b * k) % N == 0) & ((c * j + (d - 1) * k) % N == 0)))


class TestTraceIdentity:
    @settings(max_examples=100, deadline=None)
    @given(entries=st.sampled_from(hyperbolic_maps()), N=st.integers(2, 96))
    def test_trace_squared_counts_periodic_points(self, entries, N):
        # the linear cat map is semiclassically exact (Keating, Nonlinearity
        # 4, 1991): |Tr U^t|^2 is 0 or the number of fixed points of M^t on
        # the lattice (Z/N)^2 / N
        cat = validate_cat_map(*entries)
        u = propagator(cat, choose_theta(cat, N))
        columns = np.eye(N, dtype=complex)
        for t in (1, 2, 3):
            columns = np.column_stack([u.apply(col) for col in columns.T])
            trace2 = abs(np.trace(columns)) ** 2
            count = periodic_point_count(cat, t, N)
            assert min(trace2, abs(trace2 - count)) <= 1e-12 * count, (t, trace2, count)
