import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    PlanckGrid,
    QuantumState,
    ResolutionTooCoarse,
    TruncationFailure,
    axis_variances,
    ball_mass,
    choose_theta,
    coherent,
    husimi,
    propagator,
    torus_coherent,
    translation,
    validate_cat_map,
    z_parameter,
)

from catlab.classical import min_image

from conftest import coarse_husimi, husimi_slow, hyperbolic_maps, random_state, twisted_grid


class TestTorusCoherent:
    def test_norm(self, arnold, grid4096):
        coh = torus_coherent((0.0, 0.0), arnold, grid4096)
        assert abs(coh.norm2() - 1.0) < 1e-8

    def test_norm_squeezed_map(self):
        cat = validate_cat_map(2, 3, 1, 2)
        grid = choose_theta(cat, 1024)
        coh = torus_coherent((0.25, 0.5), cat, grid)
        assert abs(coh.norm2() - 1.0) < 1e-8

    def test_husimi_peak_equals_N(self, arnold, grid4096):
        coh = torus_coherent((0.0, 0.0), arnold, grid4096)
        peak = grid4096.N * abs(coh.inner(coh)) ** 2
        assert peak == pytest.approx(grid4096.N, rel=1e-6)

    def test_translation_covariance(self, arnold):
        # T(n)|x - n/N> = |x> up to a phase; the second input's windows
        # wrap the seam at an angle off the parity rule
        cases = [
            (arnold, choose_theta(arnold, 512), (0.7, 0.2)),
            (*twisted_grid(), (0.002, 0.3)),
        ]
        for cat, grid, x in cases:
            n, N = (3, 5), grid.N
            base = torus_coherent((x[0] - n[0] / N, x[1] - n[1] / N), cat, grid)
            shifted = translation(n, grid)(base)
            direct = torus_coherent(x, cat, grid)
            ip = direct.inner(shifted)
            assert abs(abs(ip) - direct.norm() * shifted.norm()) < 1e-10
            phase = np.conj(ip) / abs(ip)
            err = np.max(np.abs(direct.amplitudes - phase * shifted.amplitudes))
            assert err < 1e-8

    def test_translation_covariance_random_shifts(self, arnold):
        grid = choose_theta(arnold, 256)
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = tuple(int(v) for v in rng.integers(-16, 17, 2))
            x = rng.uniform(0.1, 0.9, 2)
            base = torus_coherent((x[0] - n[0] / 256, x[1] - n[1] / 256), arnold, grid)
            shifted = translation(n, grid)(base)
            direct = torus_coherent(tuple(x), arnold, grid)
            ip = direct.inner(shifted)
            assert abs(abs(ip) - direct.norm() * shifted.norm()) < 1e-9

    def test_rational_center_matches_float(self, arnold):
        grid = choose_theta(arnold, 512)
        exact = torus_coherent((Fraction(4, 5), Fraction(3, 5)), arnold, grid)
        approx = torus_coherent((0.8, 0.6), arnold, grid)
        assert np.max(np.abs(exact.amplitudes - approx.amplitudes)) < 1e-10

    def test_husimi_at_own_center_off_parity(self):
        # N |<x|x>|^2 = N only when the state and the analysis twist
        # wrapped sites alike; the centers are Husimi grid cell centers
        # on the seam, float and exact
        cat, grid = twisted_grid()
        G = 64
        seam = [
            (63.5 / G, 0.5 / G),
            (0.5 / G, 0.5 / G),
            (Fraction(1, 2 * G), Fraction(127, 2 * G)),
            (Fraction(127, 2 * G), Fraction(127, 2 * G)),
        ]
        for x0 in seam:
            coh = torus_coherent(x0, cat, grid)
            a, b = int(x0[0] * G), int(x0[1] * G)
            assert abs(husimi(coh, cat, G).values[a, b] - grid.N) < 1e-9

    def test_truncation_failure(self):
        # an extreme squeeze makes the Gaussian wider than 64 cells
        cat = validate_cat_map(2, 1, 1, 1)
        grid = choose_theta(cat, 4)
        object.__setattr__(cat, "b1", 0.0)
        object.__setattr__(cat, "b2", 8.0)
        with pytest.raises(TruncationFailure):
            torus_coherent((0.0, 0.0), cat, grid)


class TestHusimi:
    def test_fast_matches_direct_overlaps(self, arnold):
        grid = choose_theta(arnold, 256)
        psi = random_state(grid, 7)
        G = 24
        fast = coarse_husimi(psi, arnold, G).values
        slow = husimi_slow(psi, arnold, G)
        assert np.max(np.abs(fast - slow)) / np.max(slow) < 1e-12

    def test_fast_matches_direct_overlaps_squeezed(self):
        cat = validate_cat_map(2, 3, 1, 2)
        grid = choose_theta(cat, 128)
        psi = random_state(grid, 8)
        fast = coarse_husimi(psi, cat, 16).values
        slow = husimi_slow(psi, cat, 16)
        assert np.max(np.abs(fast - slow)) / np.max(slow) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        G=st.sampled_from([21, 24, 48]),
        P=st.sampled_from(["1", "3", "G"]),
        t=st.integers(1, 8),
        theta_over_pi=st.sampled_from(
            [None, (Fraction(2, 3), Fraction(4, 3)), (Fraction(1, 5), Fraction(7, 20))]
        ),
        block=st.sampled_from([2, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracles(self, entries, G, P, t, theta_over_pi, block, seed):
        # columns share P = G/gcd(N, G) weight rows: N = G t gives one,
        # N = (G/3)(3t + 1) three, N = G t + 1 a row per column; N is odd
        # or even with G = 21, and a block of 2 columns evaluates its own
        # rows whenever P > 2.  The off-parity angles twist wrapped sites
        # by neither 1 nor -1.
        N = {"1": G * t, "3": G // 3 * (3 * t + 1), "G": G * t + 1}[P]
        assert G // math.gcd(N, G) == {"1": 1, "3": 3, "G": G}[P]
        cat = validate_cat_map(*entries)
        if theta_over_pi is None:
            grid = choose_theta(cat, N)
        else:
            grid = PlanckGrid(N, theta_over_pi)
        psi = random_state(grid, seed)
        with patch.object(coherent, "_HUSIMI_BLOCK", block):
            fast = coarse_husimi(psi, cat, G).values
        slow = husimi_slow(psi, cat, G)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow)

    def test_holds_no_grid_sized_temporary(self, arnold):
        # besides its G x G output husimi holds O(B (K + G) + N) numbers
        # for blocks of B columns and windows of K sites: about a fifth of
        # the 34 MB output here, where one more G x G array would double it
        grid = choose_theta(arnold, 8192)
        psi = random_state(grid, 4)
        tracemalloc.start()
        try:
            h = husimi(psi, arnold, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - h.values.nbytes < h.values.nbytes / 2

    def test_resolution_of_identity(self, arnold, grid1024):
        for seed in (1, 2):
            psi = random_state(grid1024, seed)
            h = husimi(psi, arnold, 256)
            assert abs(h.total() - 1.0) < 0.005
        coh = torus_coherent((0.3, 0.4), arnold, grid1024)
        h = husimi(coh, arnold, 256)
        assert abs(h.total() - coh.norm2()) < 0.005

    def test_min_resolution(self, arnold, grid1024):
        with pytest.raises(ResolutionTooCoarse):
            husimi(random_state(grid1024, 0), arnold, 8)

    def test_pointwise_evaluator_matches_grid(self, arnold):
        grid = choose_theta(arnold, 256)
        psi = random_state(grid, 11)
        G = 16
        h = coarse_husimi(psi, arnold, G)
        pts = [((a + 0.5) / G, (b + 0.5) / G) for a in (2, 9) for b in (4, 13)]
        vals = grid.N * np.array(
            [abs(torus_coherent(x, arnold, grid).inner(psi)) ** 2 for x in pts]
        )
        got = np.array(
            [h.values[int(x[0] * G), int(x[1] * G)] for x in pts]
        )
        assert np.max(np.abs(got - vals)) < 1e-10


class TestEvolvedWidths:
    def test_widths_match_theory(self, arnold, grid1024):
        u = propagator(arnold, grid1024)
        lam = arnold.lyapunov
        st = torus_coherent((0.0, 0.0), arnold, grid1024)
        amp = st.amplitudes
        for t in range(0, 3):
            if t > 0:
                amp = u.apply(amp)
            h = husimi(QuantumState(amp, grid1024), arnold, 256)
            var_u, var_s = axis_variances(h, arnold)
            assert var_u == pytest.approx(
                grid1024.hbar / (1 - math.tanh(lam * t)), rel=0.05
            )
            assert var_s == pytest.approx(
                grid1024.hbar / (1 + math.tanh(lam * t)), rel=0.05
            )

    def test_widths_squeezed_map(self):
        cat = validate_cat_map(2, 3, 1, 2)
        grid = choose_theta(cat, 1024)
        u = propagator(cat, grid)
        st = torus_coherent((0.0, 0.0), cat, grid)
        amp = st.amplitudes
        for t in range(0, 2):
            if t > 0:
                amp = u.apply(amp)
            h = husimi(QuantumState(amp, grid), cat, 256)
            var_u, var_s = axis_variances(h, cat)
            assert var_u == pytest.approx(
                grid.hbar / (1 - math.tanh(cat.lyapunov * t)), rel=0.05
            )

    def test_negative_time_swaps_axes(self, arnold, grid1024):
        u = propagator(arnold, grid1024)
        lam = arnold.lyapunov
        st = torus_coherent((0.0, 0.0), arnold, grid1024)
        amp = st.amplitudes
        for t in (1, 2):
            amp = u.apply_adjoint(amp)
            h = husimi(QuantumState(amp, grid1024), arnold, 256)
            var_u, var_s = axis_variances(h, arnold)
            assert var_s == pytest.approx(
                grid1024.hbar / (1 - math.tanh(lam * t)), rel=0.05
            )
            assert var_u == pytest.approx(
                grid1024.hbar / (1 + math.tanh(lam * t)), rel=0.05
            )

    def test_log_variance_slope(self, arnold, grid4096):
        # admissible ladder t >= 1; at t in {1,2,3} the exact width law
        # gives slope 0.965 * 2 lambda
        u = propagator(arnold, grid4096)
        st = torus_coherent((0.0, 0.0), arnold, grid4096)
        amp = st.amplitudes
        logs = []
        for t in (1, 2, 3):
            while len(logs) < t:
                amp = u.apply(amp)
                logs.append(None)
            h = husimi(QuantumState(amp, grid4096), arnold, 256)
            var_u, _ = axis_variances(h, arnold)
            logs[t - 1] = math.log(var_u)
        slope = np.polyfit([1, 2, 3], logs, 1)[0]
        assert slope == pytest.approx(2 * arnold.lyapunov, rel=0.05)

    def test_off_support_decay(self, arnold, grid4096):
        u = propagator(arnold, grid4096)
        lam = arnold.lyapunov
        st = torus_coherent((0.0, 0.0), arnold, grid4096)
        amp = st.amplitudes
        C = 6.0
        for t in (1, 2):
            amp = u.apply(amp)
            h = husimi(QuantumState(amp, grid4096), arnold, 256)
            radius = C * math.sqrt(grid4096.hbar) * math.exp(lam * t)
            c = h.centers()
            dq = (c + 0.5) % 1.0 - 0.5
            outside = (dq * dq)[:, None] + (dq * dq)[None, :] > radius * radius
            assert h.values[outside].max() < 1e-8 * grid4096.N


class TestBallMass:
    def test_full_torus(self, arnold, grid1024):
        psi = random_state(grid1024, 3)
        h = husimi(psi, arnold, 256)
        assert ball_mass(h, (0.5, 0.5), 0.75) == pytest.approx(psi.norm2(), abs=0.005)

    def test_coherent_center(self, arnold, grid4096):
        coh = torus_coherent((0.5, 0.5), arnold, grid4096)
        h = husimi(coh, arnold, 256)
        r = 6.0 * math.sqrt(grid4096.hbar)
        assert ball_mass(h, (0.5, 0.5), r) == pytest.approx(1.0, abs=0.01)

    def test_far_ball(self, arnold, grid4096):
        coh = torus_coherent((0.2, 0.2), arnold, grid4096)
        h = husimi(coh, arnold, 256)
        assert ball_mass(h, (0.7, 0.7), 0.1) < 1e-8

    def test_small_radius_needs_state(self, arnold, grid1024):
        psi = random_state(grid1024, 2)
        h = coarse_husimi(psi, arnold, 64)
        # the refusal names G and the least G whose grid resolves the ball
        with pytest.raises(ResolutionTooCoarse, match="at G = 64; G >= 200 resolves it"):
            ball_mass(h, (0.5, 0.5), 0.01)

    @staticmethod
    def _random_grid(arnold, G, seed=0):
        values = np.random.default_rng(seed).random((G, G))
        return coherent.HusimiGrid(values, G, choose_theta(arnold, 64), 1.0, arnold.entries)

    @pytest.mark.parametrize(
        "center, radius",
        [
            ((0.0, 0.0), 0.05),
            ((0.999, 0.5), 0.1),
            ((0.3, 0.01), 0.07),
            ((0.98, 0.97), 0.2),
            ((0.5, 0.5), 0.75),
            ((0.0625, 0.5), 0.03125),
        ],
    )
    def test_grid_path_matches_full_mask(self, arnold, center, radius):
        # balls across the seam, a ball covering the torus and one whose
        # edge passes through cell centers: the same cells, summed in the
        # same row-major order, as a mask over the whole grid
        h = self._random_grid(arnold, 128, seed=1)
        c = h.centers()
        dq = min_image(c - center[0])
        dp = min_image(c - center[1])
        inside = (dq * dq)[:, None] + (dp * dp)[None, :] <= radius * radius
        assert ball_mass(h, center, radius) == float(h.values[inside].sum() * h.weight)

    def test_grid_path_memory_is_the_ball(self, arnold):
        h = self._random_grid(arnold, 2048)
        tracemalloc.start()
        try:
            ball_mass(h, (0.999, 0.3), 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a G x G float array alone is 32 MB
        assert peak < 1 << 20


def test_z_parameter_symmetric(arnold):
    z = z_parameter(arnold)
    assert z == pytest.approx(1j, abs=1e-12)


def test_z_parameter_upper_half_plane():
    for entries in [(2, 3, 1, 2), (1, 4, 1, 5), (3, 2, 4, 3)]:
        z = z_parameter(validate_cat_map(*entries))
        assert z.imag > 0


def test_husimi_fast_matches_slow_odd_N():
    # odd N puts theta = (pi, pi), so the sites carry the eta = 1/2 offset
    cat = validate_cat_map(2, 1, 1, 1)
    grid = choose_theta(cat, 255)
    assert grid.theta == (math.pi, math.pi)
    psi = random_state(grid, 13)
    fast = coarse_husimi(psi, cat, 20).values
    slow = husimi_slow(psi, cat, 20)
    assert np.max(np.abs(fast - slow)) / np.max(slow) < 1e-12


def test_torus_coherent_norm_odd_N():
    cat = validate_cat_map(2, 1, 1, 1)
    grid = choose_theta(cat, 485)
    for x0 in [(0.0, 0.0), (0.8, 0.6), (0.37, 0.91)]:
        coh = torus_coherent(x0, cat, grid)
        assert abs(coh.norm2() - 1.0) < 1e-7
