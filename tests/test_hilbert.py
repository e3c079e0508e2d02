import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    NoInvariantTheta,
    QuantumState,
    UnsupportedMatrix,
    choose_theta,
    egorov_defect,
    husimi,
    propagator,
    theta_residual,
    torus_coherent,
    translation,
    validate_cat_map,
)
from catlab import hilbert
from catlab.hilbert import (
    _require_invariant_theta,
    propagator_dense,
    translation_entries,
)

from conftest import coarse_husimi, hyperbolic_maps, random_state

NONSYM = [(1, 2, 1, 3), (1, 4, 1, 5), (2, 3, 1, 2), (2, -1, -1, 1), (3, 2, 4, 3)]


class TestChooseTheta:
    def test_parity_rule_even(self, arnold):
        grid = choose_theta(arnold, 4)
        assert grid.theta == (0.0, 0.0)
        assert theta_residual(arnold, 4, grid.theta) < 1e-12

    def test_parity_rule_odd(self, arnold):
        grid = choose_theta(arnold, 5)
        assert grid.theta == (math.pi, math.pi)
        assert theta_residual(arnold, 5, grid.theta) < 1e-12

    @pytest.mark.parametrize("entries", NONSYM)
    @pytest.mark.parametrize("N", [15, 16, 21])
    def test_residual_general(self, entries, N):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        assert theta_residual(cat, N, grid.theta) < 1e-12

    @pytest.mark.parametrize(
        "entries, N",
        [
            ((5, 2, 2, 1), 381431),  # float residual 1.08e-9 here, exact one 0
            ((1, 1, 8, 9), 21583),  # theta/pi = (1, 0) also solves the congruence
        ],
    )
    def test_parity_at_large_N(self, entries, N):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        assert grid.theta_over_pi == (Fraction(1), Fraction(1))
        assert grid.theta == (math.pi, math.pi)
        _require_invariant_theta(cat, grid)

    def test_float_only_grid_checked_by_residual(self, arnold):
        from catlab import PlanckGrid

        for N in (4, 5, 381431, 3_000_001):
            # a loaded state carries theta as floats only
            _require_invariant_theta(arnold, PlanckGrid(N, choose_theta(arnold, N).theta))
        with pytest.raises(NoInvariantTheta):
            _require_invariant_theta(arnold, PlanckGrid(5, (0.0, 0.0)))

    def test_exact_check_rejects_wrong_fractions(self, arnold):
        from catlab import PlanckGrid

        grid = PlanckGrid(5, (0.0, math.pi), (Fraction(0), Fraction(1)))
        with pytest.raises(NoInvariantTheta):
            _require_invariant_theta(arnold, grid)


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
        grid = choose_theta(arnold, 21)
        calls = []
        build = hilbert._translation_data

        def counting(n, g):
            calls.append(n)
            return build(n, g)

        monkeypatch.setattr(hilbert, "_translation_data", counting)
        psi = random_state(grid, 4).amplitudes
        t = translation((3, -2), grid)
        t.apply(psi)
        assert calls == [(3, -2)]
        first = t.apply_adjoint(psi)
        second = t.apply_adjoint(psi)
        assert calls == [(3, -2), (-3, 2)]
        expect = translation((-3, 2), grid).apply(psi)
        assert np.array_equal(first, expect) and np.array_equal(second, expect)

    def test_integer_translation_eigenrelations(self):
        cat = validate_cat_map(1, 2, 1, 3)
        N = 15
        grid = choose_theta(cat, N)
        t10 = translation_entries((N, 0), grid)
        t01 = translation_entries((0, N), grid)
        eye = np.eye(N)
        assert np.max(np.abs(t10 - np.exp(1j * grid.theta[0]) * eye)) < 1e-12
        assert np.max(np.abs(t01 - np.exp(1j * grid.theta[1]) * eye)) < 1e-12

    def test_unitarity(self, arnold):
        grid = choose_theta(arnold, 47)
        psi = random_state(grid, 4).amplitudes
        for n in [(2, 3), (-1, 5)]:
            t = translation(n, grid)
            assert abs(np.linalg.norm(t.apply(psi)) - 1.0) < 1e-12


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

    @pytest.mark.parametrize("N", [256, 1024])
    def test_fast_matches_dense_kernel(self, N):
        cat = validate_cat_map(2, 3, 1, 2)
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        Ud = propagator_dense(cat, grid)
        psi = random_state(grid, 5).amplitudes
        assert np.max(np.abs(u.apply(psi) - Ud @ psi)) < 1e-10
        assert np.max(np.abs(u.apply_adjoint(psi) - Ud.conj().T @ psi)) < 1e-10

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

    def test_incompatible_theta_rejected(self, arnold):
        from catlab import PlanckGrid

        bad = PlanckGrid(8, (0.7, 1.1))
        with pytest.raises(NoInvariantTheta):
            propagator(arnold, bad)

    def test_b_zero_rejected(self):
        from catlab.classical import CatMap

        fake = CatMap(1, 0, 0, 1, 1.0, 0.0, math.pi / 2, 0.0, 0.0, 0j)
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
    @given(entries=st.sampled_from(hyperbolic_maps()), N=st.integers(3, 48))
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
