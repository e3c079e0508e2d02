import cmath
import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    NoInvariantTheta,
    PlanckGrid,
    QuantumState,
    ResolutionTooCoarse,
    TruncationFailure,
    axis_variances,
    ball_mass,
    choose_theta,
    coherent,
    ehrenfest_time,
    enumerate_prime_orbits,
    evolve_coherent,
    husimi,
    propagator,
    torus_coherent,
    translation,
    validate_cat_map,
    z_parameter,
)

from catlab.classical import min_image
from catlab.coherent import TorusGaussian, _coherent_window
from catlab.errors import ConfigError
from catlab.hilbert import _twist
from catlab.quasimodes import QuasimodeSpec, build_quasimode

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

    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        G=st.sampled_from([21, 24, 48]),
        P=st.sampled_from(["1", "3", "G"]),
        t=st.integers(20, 60),
        theta_over_pi=st.sampled_from([None, (Fraction(2, 3), Fraction(4, 3))]),
        block=st.sampled_from([2, 64]),
        runs=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 0.1)),
            max_size=3,
        ),
        wrap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_states_zero_off_runs(self, entries, G, P, t, theta_over_pi, block, runs, wrap, seed):
        # psi is zero outside a few runs of sites, one of them across site
        # N - 1 when wrap is set: the columns whose windows read none of
        # them are exactly +0.0, and the others match the oracle and are
        # not all zero
        N = {"1": G * t, "3": G // 3 * (3 * t + 1), "G": G * t + 1}[P]
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N) if theta_over_pi is None else PlanckGrid(N, theta_over_pi)
        if wrap:
            runs = runs + [(1.0 - 0.01, 0.02)]
        rng = np.random.default_rng(seed)
        amp = np.zeros(N, dtype=complex)
        for start, share in runs:
            sites = (int(start * N) + np.arange(1 + int(share * N))) % N
            amp[sites] = rng.standard_normal(sites.size) + 1j * rng.standard_normal(sites.size)
        psi = QuantumState(amp, grid)
        with patch.object(coherent, "_HUSIMI_BLOCK", block):
            fast = coarse_husimi(psi, cat, G).values
        slow = husimi_slow(psi, cat, G)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow)
        dead = ~slow.any(axis=1)
        assert not fast[dead].view(np.uint64).any()
        assert not (fast[~dead] == 0.0).all(axis=1).any()

    @pytest.mark.parametrize("N, columns", [(1000, (0, 2)), (1001, (0, 13))])
    @pytest.mark.parametrize("block", [2, 64])
    def test_states_on_a_window_edge(self, arnold, N, columns, block):
        # a state on one site is read by the columns whose windows hold
        # it, at their first or last site too; column 0's window wraps
        # past site 0
        grid = choose_theta(arnold, N)
        G = 24
        span = _coherent_window(grid, z_parameter(arnold))[0]
        lo, length = span((np.arange(G) + 0.5) / G)
        assert lo[0] < 0
        for a in columns:
            for site in (lo[a] % N, (lo[a] + length[a] - 1) % N):
                amp = np.zeros(N, dtype=complex)
                amp[site] = 1.0
                psi = QuantumState(amp, grid)
                with patch.object(coherent, "_HUSIMI_BLOCK", block):
                    fast = coarse_husimi(psi, arnold, G).values
                slow = husimi_slow(psi, arnold, G)
                assert fast[a].any()
                assert np.array_equal(fast.any(axis=1), slow.any(axis=1))

    def test_odd_N_evaluates_live_columns_only(self, arnold, monkeypatch):
        # gcd(N, G) = 1, so every column has its own weight row; only the
        # columns whose windows meet the T = 1 quasimode get one
        grid = choose_theta(arnold, 4099)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        psi = build_quasimode(spec)[1]
        rows = []
        make = coherent._coherent_window

        def counted(*args):
            span, window = make(*args)

            def counting(q, point=None):
                rows.append(len(q))
                return window(q, point)

            return span, counting

        monkeypatch.setattr(coherent, "_coherent_window", counted)
        h = husimi(psi, arnold, 256)
        live = np.flatnonzero(h.values.any(axis=1))
        assert 0 < live.size < 256 // 2
        assert sum(rows) == live.size
        assert len(rows) == -(-live.size // coherent._HUSIMI_BLOCK)

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


def axis_variances_oracle(hgrid, catmap, center=(0.0, 0.0)):
    """Oracle: the frame-axis variances over all G^2 cell coordinates,
    Q^{-1} (dq, dp) for each cell, weighted by the normalized density."""
    G = hgrid.G
    c = hgrid.centers()
    dq, dp = min_image(c - center[0]), min_image(c - center[1])
    coords = np.linalg.inv(catmap.frame_matrix()) @ np.vstack([np.repeat(dq, G), np.tile(dp, G)])
    w = (hgrid.values / hgrid.values.sum()).reshape(-1)
    means = coords @ w
    return tuple(float(v) for v in (coords**2) @ w - means**2)


@pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 1, 2, 1), (-1, 5, -1, 4)])
def test_axis_variances_match_cell_coordinates(entries):
    # the moment form agrees with the G^2-coordinate sum to rounding
    cat = validate_cat_map(*entries)
    grid = choose_theta(cat, 4096)
    u = propagator(cat, grid)
    amp = torus_coherent((0.0, 0.0), cat, grid).amplitudes
    for t in range(4):
        if t:
            amp = u.apply(amp)
        h = husimi(QuantumState(amp, grid), cat, 256)
        got, expect = axis_variances(h, cat), axis_variances_oracle(h, cat)
        assert got == pytest.approx(expect, rel=1e-12, abs=0)


def test_axis_variances_do_not_depend_on_a_far_center():
    # a narrow Gaussian at the origin: about (0.3, 0.7) its cells unwrap
    # to the same image, so only rounding may move the variances (E[u^2]
    # - E[u]^2 about that center lost 1.8e-12 relative here)
    cat = validate_cat_map(-1, 5, -1, 4)
    grid = choose_theta(cat, 4096)
    h = husimi(torus_coherent((0.0, 0.0), cat, grid), cat, 256)
    near, far = axis_variances(h, cat), axis_variances(h, cat, (0.3, 0.7))
    assert far == pytest.approx(near, rel=1e-14, abs=0)


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


def exact_points(max_denominator=997):
    """Torus points with Fraction coordinates, as orbit points are."""
    coordinate = st.builds(
        lambda k, l: Fraction(k % l, l), st.integers(0, 10**6), st.integers(1, max_denominator)
    )
    return st.tuples(coordinate, coordinate)


class TestEvolveCoherent:
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        N=st.integers(2048, 6000),
        x0=exact_points(),
        data=st.data(),
    )
    def test_matches_propagator_applies(self, entries, N, x0, data):
        # U^t x0 = kappa_t g_{x_t, z_t}: the state and the phase agree with
        # t applies of the propagator at every t inside the time window
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        window = int(0.24 * ehrenfest_time(N, cat.lyapunov))
        t = data.draw(st.integers(0, window), label="t")
        u = propagator(cat, grid)
        expect = torus_coherent(x0, cat, grid).amplitudes
        for _ in range(t):
            expect = u.apply(expect)
        kappa, x_t, z_t = evolve_coherent(x0, cat, grid, t)
        g = torus_coherent(x_t, cat, grid, z=z_t)
        assert np.linalg.norm(kappa * g.amplitudes - expect) < 1e-12
        assert abs(kappa - g.inner(QuantumState(expect, grid)) / g.norm2()) < 1e-12
        assert abs(abs(kappa) - 1.0) < 1e-15

    def test_point_and_width(self):
        # the exact image point M^t x mod 1 and the Moebius width
        cat = validate_cat_map(2, 3, 1, 2)
        grid = choose_theta(cat, 4096)
        _, x_t, z_t = evolve_coherent((Fraction(1, 7), Fraction(3, 7)), cat, grid, 2)
        # M (1, 3)/7 = (11, 7)/7 = (4, 0)/7 mod 1, then M (4, 0)/7 = (8, 4)/7
        assert x_t == (Fraction(1, 7), Fraction(4, 7))
        z0 = z_parameter(cat)
        z1 = (1 + 2 * z0) / (2 + 3 * z0)
        assert z_t == (1 + 2 * z1) / (2 + 3 * z1)
        g = TorusGaussian((Fraction(1, 7), Fraction(3, 7)), z0, grid)
        assert [g.z, g.step(cat).z, g.step(cat).step(cat).z] == [z0, z1, z_t]

    def test_twisted_grid(self):
        # off the parity rule a wrapped site's twist is a third of a turn
        cat, grid = twisted_grid(600)
        x0 = (Fraction(2, 9), Fraction(5, 9))
        expect = propagator(cat, grid).apply(torus_coherent(x0, cat, grid).amplitudes)
        kappa, x_t, z_t = evolve_coherent(x0, cat, grid, 1)
        got = kappa * torus_coherent(x_t, cat, grid, z=z_t).amplitudes
        assert np.linalg.norm(got - expect) < 1e-12

    def test_time_zero_and_negative(self, arnold, grid1024):
        x0 = (Fraction(1, 5), Fraction(2, 5))
        assert evolve_coherent(x0, arnold, grid1024, 0) == (1.0, x0, z_parameter(arnold))
        with pytest.raises(ConfigError, match="t must be >= 0"):
            evolve_coherent(x0, arnold, grid1024, -1)

    def test_refuses_a_grid_that_U_does_not_preserve(self, arnold):
        # theta/pi = (1, 1) at even N fails K theta/pi = N (cd, ab) mod 2
        grid = PlanckGrid(1024, (Fraction(1), Fraction(1)))
        with pytest.raises(NoInvariantTheta):
            evolve_coherent((Fraction(1, 5), Fraction(2, 5)), arnold, grid, 1)

    def test_refuses_a_width_past_64_translates(self, arnold):
        # at N = 8 the width z_5 needs 119 translates, z_4 fewer than 64
        grid = choose_theta(arnold, 8)
        x0 = (Fraction(1, 5), Fraction(2, 5))
        evolve_coherent(x0, arnold, grid, 4)
        with pytest.raises(TruncationFailure, match="needs 119 lattice translates"):
            evolve_coherent(x0, arnold, grid, 5)

    def test_default_width_is_z0(self, arnold, grid1024):
        x0 = (0.3, 0.7)
        default = torus_coherent(x0, arnold, grid1024).amplitudes
        explicit = torus_coherent(x0, arnold, grid1024, z=z_parameter(arnold)).amplitudes
        assert default.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("N", [8, 9, 30])
    def test_window_folds_wraps_in_site_order(self, arnold, N):
        # a width whose window spans several copies of the N sites folds
        # them as np.add.at does, in the window's site order
        grid = choose_theta(arnold, N)
        z = complex(0.3, 0.02)
        x0 = (Fraction(1, 3), Fraction(1, 4))
        m, w = _coherent_window(grid, z)[1]([x0[0]], x0)
        assert m.shape[1] > 2 * N
        expect = np.zeros(N, dtype=complex)
        np.add.at(expect, m[0] % N, w[0] * _twist(grid, m[0] // N))
        g = TorusGaussian(x0, z, grid)
        got = g.state().amplitudes
        assert got.tobytes() == (expect / math.sqrt(N)).tobytes()
        assert sorted(g.sites.tolist()) == list(range(N))


def step_oracle(g, cat):
    """Oracle: <g'|U g>/|<g'|U g>| for g' the unit-phase Gaussian at the
    step's image point and width, with U applied to g's state."""
    image = g.step(cat)
    turned = propagator(cat, g.grid).apply(g.state().amplitudes)
    overlap = TorusGaussian(image.x, image.z, g.grid).state().inner(QuantumState(turned, g.grid))
    return image, overlap / abs(overlap)


class TestGaussianStep:
    """TorusGaussian.step's metaplectic phase rule against the applied
    propagator, one step from a width z_s inside the time window."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        half=st.integers(1024, 3000),
        odd=st.booleans(),
        exact=st.booleans(),
        twisted=st.booleans(),
        data=st.data(),
    )
    def test_matches_overlap_oracle(self, entries, half, odd, exact, twisted, data):
        # maps with b of both signs, even and odd N, theta off the parity
        # rule; Fraction centres to 1e-12, float centres to 5e-12
        if twisted:
            cat, grid = twisted_grid(data.draw(st.sampled_from([402, 600]), label="N"))
        else:
            cat = validate_cat_map(*entries)
            grid = choose_theta(cat, 2 * half + odd)
        window = int(0.24 * ehrenfest_time(grid.N, cat.lyapunov))
        s = data.draw(st.integers(0, max(window - 1, 0)), label="s")
        if exact:
            x = data.draw(exact_points(15), label="x")
        else:
            x = data.draw(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 2), label="x")
        # the width z_s of s steps, at the drawn centre x
        g = TorusGaussian(x, z_parameter(cat), grid)
        for _ in range(s):
            g = g.step(cat)
        g = TorusGaussian(x, g.z, grid)
        image, expect = step_oracle(g, cat)
        assert abs(image.kappa - expect) < (1e-12 if exact else 5e-12)

    @pytest.mark.parametrize("entries, N, x", [
        ((-1, -5, 1, 4), 3826, (0.4237548046822792, 0.8203685811943413)),
        ((5, 2, -3, -1), 5242, (0.8365451483396368, 0.8105293547601912)),
        ((4, 3, 5, 4), 5551, (0.9722411218952418, 0.24846528308918459)),
    ])
    def test_float_centre_off_its_exact_image(self, entries, N, x):
        # x' = M x mod 1 in floats is a few ulps off the exact image, and
        # the step is 8e-12 to 1.1e-11 off here without the sigma(x', e) term
        cat = validate_cat_map(*entries)
        image, expect = step_oracle(TorusGaussian(x, z_parameter(cat), choose_theta(cat, N)), cat)
        assert abs(image.kappa - expect) < 5e-12

    @pytest.mark.parametrize("N", [4096, 4099])
    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (2, -1, -1, 1)])
    def test_every_winding_parity(self, entries, N):
        # k = M x - x' takes all four parities mod 2 among the centres j/7
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        a, b, c, d = entries
        seen = {}
        for j in range(7):
            for i in range(7):
                x = (Fraction(j, 7), Fraction(i, 7))
                k = (math.floor(a * x[0] + b * x[1]), math.floor(c * x[0] + d * x[1]))
                seen.setdefault((k[0] % 2, k[1] % 2), x)
        assert len(seen) == 4
        for x in seen.values():
            image, expect = step_oracle(TorusGaussian(x, z_parameter(cat), grid), cat)
            assert abs(image.kappa - expect) < 1e-12

    def test_worked_case(self):
        # 2,-1,-1,1 at N = 4099 from (1/5, 3/5): M x = (-1/5, 2/5), so
        # x' = (4/5, 2/5) and k = (-1, 0); with theta/pi = (1, 1),
        # s = -1/8 - 4099 (2/5)/2 - 1/2 = 23/40 mod 1
        cat = validate_cat_map(2, -1, -1, 1)
        grid = choose_theta(cat, 4099)
        z = z_parameter(cat)
        image, expect = step_oracle(TorusGaussian((Fraction(1, 5), Fraction(3, 5)), z, grid), cat)
        assert image.x == (Fraction(4, 5), Fraction(2, 5))
        assert image.z == (-1 + z) / (2 - z)
        kappa = cmath.exp(-0.5j * cmath.phase(2 - z)) * cmath.exp(2j * math.pi * 23 / 40)
        assert abs(image.kappa - kappa) < 1e-15
        assert abs(kappa - expect) < 1e-12


class TestTorusGaussianOverlap:
    """g.overlap(h) over the two runs against <g|h> of the length-N states,
    to a few ulps of a unit-norm inner product: the two sum in different
    orders, and the states hold kappa in every amplitude."""

    @staticmethod
    def check(g, h):
        got = g.overlap(h)
        expect = g.state().inner(h.state())
        assert abs(got - expect) < 2e-15
        return got

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(256, 4096),
        q=st.floats(-0.01, 0.01),
        p=st.floats(0.0, 1.0),
        widths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        turns=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_windows_wrapping_past_the_last_site(self, arnold, N, q, p, widths, turns):
        grid = choose_theta(arnold, N)
        g, h = (
            TorusGaussian((q % 1.0, (p + k / 7) % 1.0), complex(0.1 * k, s), grid,
                          cmath.exp(2j * math.pi * turn))
            for k, (s, turn) in enumerate(zip(widths, turns))
        )
        for x in (g, h):
            first, values = x.window
            assert values.size < N < first + values.size
        self.check(g, h)
        self.check(h, g)

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(256, 4096),
        x0=exact_points(),
        wide=st.floats(0.3, 1.0),
        narrow=st.floats(3.0, 10.0),
    )
    def test_one_window_inside_the_other(self, arnold, N, x0, wide, narrow):
        grid = choose_theta(arnold, N)
        g = TorusGaussian(x0, complex(0.2, wide), grid)
        h = TorusGaussian(x0, complex(-0.1, narrow), grid, cmath.exp(0.3j))
        assert set(h.sites.tolist()) < set(g.sites.tolist())
        self.check(g, h)
        self.check(h, g)

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(512, 4096), x0=exact_points(), width=st.floats(1.0, 3.0))
    def test_disjoint_windows_are_exactly_orthogonal(self, arnold, N, x0, width):
        grid = choose_theta(arnold, N)
        g = TorusGaussian(x0, complex(0.0, width), grid)
        h = TorusGaussian(((x0[0] + Fraction(1, 2)) % 1, x0[1]), complex(0.5, width), grid)
        assert not set(g.sites.tolist()) & set(h.sites.tolist())
        assert self.check(g, h) == 0.0
        assert h.overlap(g) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(N=st.sampled_from([8, 9, 30]), x0=exact_points(), y0=exact_points(),
           turn=st.floats(0.0, 1.0))
    def test_folded_windows(self, arnold, N, x0, y0, turn):
        # at z = 0.3 + 0.02i the window spans several copies of the N sites
        grid = choose_theta(arnold, N)
        z = complex(0.3, 0.02)
        g = TorusGaussian(x0, z, grid)
        h = TorusGaussian(y0, z, grid, cmath.exp(2j * math.pi * turn))
        assert g.window[1].size == h.window[1].size == N
        self.check(g, h)
        self.check(h, g)
        assert abs(g.overlap(g) - g.state().norm2()) < 2e-15
