import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from catlab import (
    QuantumState,
    ResolutionTooCoarse,
    TruncationFailure,
    axis_variances,
    ball_mass,
    choose_theta,
    husimi,
    husimi_at_points,
    plane_overlap_squeezed,
    propagator,
    torus_coherent,
    translation,
    validate_cat_map,
    z_parameter,
)

from conftest import coarse_husimi, husimi_slow, random_state, twisted_grid


def plane_overlap_quadrature(x, mu, hbar, M=100_000, span=40.0):
    """Oracle: <x,0|c> for c = -i mu by direct integration on the line.

    |c> = D(mu)|0> has wavefunction e^(-mu/2) psi0(e^(-mu) q); the analyzing
    state is the standard Gaussian translated to x = (q0, p0).
    """
    q0, p0 = x
    w = math.sqrt(hbar) * span
    q = np.linspace(-w, w, M)
    psi0 = (math.pi * hbar) ** -0.25 * np.exp(-(q**2) / (2 * hbar))
    squeezed = math.exp(-mu / 2) * (math.pi * hbar) ** -0.25 * np.exp(
        -(np.exp(-2 * mu) * q**2) / (2 * hbar)
    )
    analyzer = np.exp(1j * p0 * (q - q0 / 2) / hbar) * (math.pi * hbar) ** -0.25 * np.exp(
        -((q - q0) ** 2) / (2 * hbar)
    )
    return np.trapezoid(np.conj(analyzer) * squeezed, q)


class TestPlaneOverlap:
    def test_center_value(self):
        for c in (-1j, 0.5 - 0.3j, 2.0 + 0.0j):
            val = plane_overlap_squeezed((0.0, 0.0), c, hbar=0.01)
            assert val == pytest.approx(1.0 / math.sqrt(math.cosh(abs(c))), abs=1e-14)

    def test_standard_state(self):
        assert plane_overlap_squeezed((0.0, 0.0), 0.0, hbar=0.02) == pytest.approx(1.0)

    def test_against_quadrature_on_axis(self):
        hbar = 1.0 / (2 * math.pi * 300)
        x = (math.sqrt(hbar), 0.0)
        got = plane_overlap_squeezed(x, -1j, hbar)
        want = plane_overlap_quadrature(x, 1.0, hbar)
        assert got == pytest.approx(want, abs=1e-8)

    def test_against_quadrature_phase(self):
        # off-axis point exercises the qp cross phase
        hbar = 1.0 / (2 * math.pi * 300)
        x = (math.sqrt(hbar), math.sqrt(hbar))
        got = plane_overlap_squeezed(x, -1j, hbar)
        want = plane_overlap_quadrature(x, 1.0, hbar)
        assert got == pytest.approx(want, abs=1e-8)

    def test_general_squeeze_modulus(self):
        # for general complex c the state's overall phase is conventional;
        # moduli must still agree with the frame formula
        hbar = 0.005
        c = 0.8 * cmath.exp(0.6j)
        mu = abs(c)
        val = abs(plane_overlap_squeezed((0.1, 0.05), c, hbar))
        frame_angle = -cmath.phase(-c) / 2 + math.pi / 4
        ca, sa = math.cos(frame_angle), math.sin(frame_angle)
        qt, pt = ca * 0.1 + sa * 0.05, -sa * 0.1 + ca * 0.05
        t = math.tanh(mu)
        expect = math.exp(
            -0.5 * (qt**2 * (1 - t) + pt**2 * (1 + t)) / (2 * hbar)
        ) / math.sqrt(math.cosh(mu))
        assert val == pytest.approx(expect, rel=1e-12)


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
        # wrapped sites alike; centers on the seam: the origin, an exact
        # one, and a Husimi grid cell center, checked on the grid too
        cat, grid = twisted_grid()
        G = 64
        for x0 in [(0.0, 0.0), (Fraction(599, 600), Fraction(1, 3)), (63.5 / G, 0.5 / G)]:
            coh = torus_coherent(x0, cat, grid)
            assert abs(husimi_at_points(coh, cat, [x0])[0] - grid.N) < 1e-9
        assert abs(husimi(coh, cat, G).values[G - 1, 0] - grid.N) < 1e-9

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
        direct = grid.N * husimi_at_points(psi, arnold, pts) / grid.N
        got = np.array(
            [h.values[int(x[0] * G), int(x[1] * G)] for x in pts]
        )
        assert np.max(np.abs(got - vals)) < 1e-10
        assert np.max(np.abs(direct - vals)) < 1e-10


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

    def test_state_path_matches_grid_path(self, arnold, grid1024):
        coh = torus_coherent((0.5, 0.5), arnold, grid1024)
        h = husimi(coh, arnold, 256)
        r = 8.0 * math.sqrt(grid1024.hbar)
        grid_mass = ball_mass(h, (0.5, 0.5), r)
        state_mass = ball_mass(coh, (0.5, 0.5), r, catmap=arnold)
        assert state_mass == pytest.approx(grid_mass, abs=0.01)

    def test_small_radius_needs_state(self, arnold, grid1024):
        psi = random_state(grid1024, 2)
        h = coarse_husimi(psi, arnold, 64)
        with pytest.raises(ResolutionTooCoarse):
            ball_mass(h, (0.5, 0.5), 0.01)


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
