import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catlab import (
    HusimiGrid,
    PlanckGrid,
    RadiusOutOfRange,
    Symbol,
    antiwick_expectation,
    antiwick_plane_waves,
    bump_masses,
    bump_symbols,
    choose_theta,
    husimi,
    position_interval_mass,
    position_interval_masses,
    propagator,
    torus_coherent,
    translation,
    validate_cat_map,
    weyl_antiwick_gap,
    weyl_quantize,
)
from catlab.classical import min_image
from catlab.coherent import _truncation_cut, z_parameter
from catlab.quantize import _bump_offsets, _bump_profile, _bump_radii
from catlab.quasimodes import DEFAULT_FREQUENCIES, GAP_SYMBOL

from conftest import (
    coarse_husimi,
    hyperbolic_maps,
    random_state,
    translation_entries,
    twisted_grid,
)


def random_real_trig_poly(rng, nmax=3, terms=4):
    coeffs = {}
    for _ in range(terms):
        n = (int(rng.integers(-nmax, nmax + 1)), int(rng.integers(-nmax, nmax + 1)))
        if n == (0, 0):
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[n] = coeffs.get(n, 0) + c
        coeffs[(-n[0], -n[1])] = coeffs.get((-n[0], -n[1]), 0) + np.conj(c)
    coeffs[(0, 0)] = complex(rng.standard_normal(), 0.0)
    return Symbol.from_fourier(coeffs, real=True)


def weyl_dense(symbol, grid):
    """Oracle: the Weyl operator as the dense sum of its translations."""
    W = np.zeros((grid.N, grid.N), dtype=complex)
    for n, c in sorted(symbol.fourier.items()):
        W += c * translation_entries(n, grid)
    return W


def damping(catmap, N, n):
    """d_z(n) = exp(-pi |n1 z0 - n2|^2 / (2 N Im z0)), written out here
    independently of the library's copy."""
    z0 = z_parameter(catmap)
    return math.exp(-math.pi * abs(n[0] * z0 - n[1]) ** 2 / (2 * N * z0.imag))


class TestSymbol:
    def test_needs_data(self):
        with pytest.raises(ValueError):
            Symbol()

    def test_hermitian_check(self):
        with pytest.raises(ValueError):
            Symbol.from_fourier({(1, 0): 1.0}, real=True)
        Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5}, real=True)

    def test_plane_wave_values(self):
        sym = Symbol.from_fourier({(1, 0): 1.0})
        q = np.array([0.25])
        p = np.array([0.4])
        # e_n(x) = exp(2 pi i (n2 q - n1 p)) = exp(-2 pi i p) for n = (1,0)
        assert sym.evaluate(q, p)[0] == pytest.approx(cmath.exp(-2j * math.pi * 0.4))


class TestWeyl:
    def test_constant_is_identity(self, arnold):
        grid = choose_theta(arnold, 64)
        op = weyl_quantize(Symbol.from_fourier({(0, 0): 1.0}), grid)
        psi = random_state(grid, 0).amplitudes
        assert np.max(np.abs(op.apply(psi) - psi)) < 1e-15

    def test_plane_wave_is_translation(self, arnold):
        grid = choose_theta(arnold, 48)
        n = (2, -3)
        op = weyl_quantize(Symbol.from_fourier({n: 1.0}), grid)
        psi = random_state(grid, 1).amplitudes
        assert np.max(np.abs(op.apply(psi) - translation(n, grid).apply(psi))) == 0.0

    def test_real_symbol_self_adjoint(self, arnold):
        grid = choose_theta(arnold, 512)
        rng = np.random.default_rng(3)
        for _ in range(10):
            sym = random_real_trig_poly(rng)
            W = weyl_dense(sym, grid)
            assert np.max(np.abs(W - W.conj().T)) < 1e-12

    def test_l2_boundedness(self, arnold):
        grid = choose_theta(arnold, 128)
        rng = np.random.default_rng(4)
        for _ in range(5):
            sym = random_real_trig_poly(rng)
            op = weyl_quantize(sym, grid)
            bound = sum(abs(c) for c in sym.fourier.values())
            for seed in range(3):
                psi = random_state(grid, seed).amplitudes
                val = abs(np.vdot(psi, op.apply(psi)))
                assert val <= bound + 1e-10

    def test_egorov_for_symbols(self, arnold):
        # U^-1 a^w U = (a o M)^w with (a o M)~(m) = a~(M m)
        grid = choose_theta(arnold, 512)
        u = propagator(arnold, grid)
        rng = np.random.default_rng(5)
        psi = random_state(grid, 6).amplitudes
        for _ in range(10):
            sym = random_real_trig_poly(rng)
            # (a o M)~(m) = a~(M m), i.e. coefficients move to M^-1 n
            composed = Symbol.from_fourier(
                {
                    (
                        arnold.d * n[0] - arnold.b * n[1],
                        -arnold.c * n[0] + arnold.a * n[1],
                    ): c
                    for n, c in sym.fourier.items()
                }
            )
            aw = weyl_quantize(sym, grid)
            awc = weyl_quantize(composed, grid)
            lhs = u.apply_adjoint(aw.apply(u.apply(psi)))
            assert np.linalg.norm(lhs - awc.apply(psi)) < 1e-8


class TestAntiWick:
    def test_constant_gives_norm(self, arnold, grid1024):
        psi = random_state(grid1024, 7)
        val = antiwick_expectation(psi, Symbol.from_fourier({(0, 0): 1.0}), arnold)
        assert val.real == pytest.approx(1.0, abs=0.005)
        assert abs(val.imag) < 1e-12

    def test_ball_bump_at_coherent_center(self, arnold, grid1024):
        coh = torus_coherent((0.5, 0.5), arnold, grid1024)
        r = 10.0 * math.sqrt(grid1024.hbar)
        lower, upper = bump_symbols((0.5, 0.5), r)
        h = husimi(coh, arnold, 256)
        lo = antiwick_expectation(coh, lower, arnold, h).real
        hi = antiwick_expectation(coh, upper, arnold, h).real
        assert lo == pytest.approx(1.0, abs=0.01)
        assert hi == pytest.approx(1.0, abs=0.01)

    def test_plane_wave_phase(self, arnold, grid4096):
        x0 = (0.3, 0.65)
        coh = torus_coherent(x0, arnold, grid4096)
        h = husimi(coh, arnold, 256)
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                if (n1, n2) == (0, 0):
                    continue
                val = antiwick_expectation(
                    coh, Symbol.from_fourier({(n1, n2): 1.0}), arnold, hgrid=h
                )
                assert abs(val) <= 1.0 + 1e-9
                want = 2 * math.pi * (n2 * x0[0] - n1 * x0[1])
                got = cmath.phase(val)
                diff = (got - want + math.pi) % (2 * math.pi) - math.pi
                assert abs(diff) < 1e-3

    def test_positivity(self, arnold, grid1024):
        lower, upper = bump_symbols((0.4, 0.4), 0.15)
        for seed in range(3):
            psi = random_state(grid1024, seed)
            h = husimi(psi, arnold, 256)
            assert antiwick_expectation(psi, lower, arnold, h).real >= 0.0
            assert antiwick_expectation(psi, upper, arnold, h).real >= 0.0


def full_grid_expectation(symbol, hgrid):
    """Oracle: the symbol sampled on every cell, summed against the grid."""
    return complex(np.sum(symbol.sample(hgrid.G) * hgrid.values) * hgrid.weight)


def assert_matches_oracle(x0, r, hgrid):
    """bump_masses at x0 against the full-grid oracle of both bump_symbols(x0, r)."""
    for got, symbol in zip(bump_masses(hgrid, [x0], r), bump_symbols(x0, r)):
        want = full_grid_expectation(symbol, hgrid)
        assert abs(got[0] - want) <= 1e-12 * hgrid.values.sum() * hgrid.weight


def random_hgrid(grid, G, seed):
    """A grid of positive values: the expectation paths hold for any weights."""
    values = np.random.default_rng(seed).random((G, G))
    return HusimiGrid(values, G, grid, 1.0, (2, 1, 1, 1))


def aliases(n, catmap, N, G, floor=1e-18):
    """(n + G k, (-1)^(k1 + k2)) for the k with d_z(n + G k) >= floor.

    The G x G midpoint rule integrates e_{n + G k} like (-1)^(k1 + k2) e_n,
    so the Husimi quadrature of e_n is the signed sum of the anti-Wick
    values at these frequencies, and the quadrature anti-Wick operator is
    the signed sum of their damped translations.  Rings of growing
    max(|k1|, |k2|) are added until one holds no k above the floor.
    """
    out, radius = [], 0
    while True:
        ring = [
            (k1, k2)
            for k1 in range(-radius, radius + 1)
            for k2 in range(-radius, radius + 1)
            if max(abs(k1), abs(k2)) == radius
        ]
        kept = [
            ((n[0] + G * k1, n[1] + G * k2), (-1) ** (k1 + k2))
            for k1, k2 in ring
            if damping(catmap, N, (n[0] + G * k1, n[1] + G * k2)) >= floor
        ]
        if not kept and radius > 0:
            return out
        out += kept
        radius += 1


def closed_form_quadrature(psi, catmap, n, G):
    """The G x G Husimi quadrature of e_n, from the closed form alone."""
    terms = aliases(n, catmap, psi.grid.N, G)
    values = antiwick_plane_waves(psi, catmap, [m for m, _ in terms])
    return complex(sum(sign * v for (_, sign), v in zip(terms, values)))


def resolving_G(catmap, N, freqs):
    """Smallest power of two >= 16 at which no frequency has an alias above 1e-17."""
    G = 16
    while any(len(aliases(n, catmap, N, G, floor=1e-17)) > 1 for n in freqs):
        G *= 2
    return G


class TestExpectationOracle:
    @pytest.fixture(scope="class")
    def psi(self, grid1024):
        return random_state(grid1024, 11)

    @pytest.fixture(scope="class")
    def hgrids(self, arnold, psi):
        return [coarse_husimi(psi, arnold, G) for G in (16, 96, 256)]

    def test_plane_waves(self, arnold, psi, hgrids):
        # the closed form, summed over the frequencies a grid aliases onto
        # n, is the Husimi quadrature at every G, resolved or not
        for h in hgrids:
            for n1 in range(-8, 9):
                for n2 in range(-8, 9):
                    want = full_grid_expectation(Symbol.from_fourier({(n1, n2): 1.0}), h)
                    got = closed_form_quadrature(psi, arnold, (n1, n2), h.G)
                    assert abs(got - want) <= 1e-12

    def test_hermitian_fourier_symbols(self, arnold, psi, hgrids):
        # G = 256 resolves N = 1024: every alias is below e^-90
        rng = np.random.default_rng(5)
        for _ in range(5):
            sym = random_real_trig_poly(rng, nmax=8, terms=6)
            got = antiwick_expectation(psi, sym, arnold)
            assert abs(got - full_grid_expectation(sym, hgrids[-1])) <= 1e-12
            assert abs(got.imag) < 1e-12

    def test_bumps_at_the_seam(self, hgrids):
        for h in hgrids:
            for r in (0.01, 0.05, 0.1, 0.2):
                assert_matches_oracle((0.005, 0.995), r, h)

    def test_bumps_wrapping_most_of_the_torus(self, hgrids):
        for h in hgrids:
            for x0 in ((0.5, 0.5), (0.1, 0.9), (0.999, 0.001)):
                for r in (0.24, 0.249, 0.2499):
                    assert_matches_oracle(x0, r, h)

    def test_bump_masses(self, hgrids):
        # centers whose patches wrap one seam or both, and a net whose
        # centers share sub-cell offsets, in one call
        net = [(q, p) for q in (0.125, 0.375, 0.625, 0.875) for p in (0.125, 0.625)]
        centers = [(0.0, 0.0), (0.999, 0.001), (1e-9, 1 - 1e-9), (0.5, 0.9999)] + net
        for h in hgrids:
            for r in (0.01, 0.1, 0.2499):
                assert_bump_masses_match(h, centers, r)

    def test_fast_paths_do_not_sample_the_grid(self, arnold, psi, hgrids, monkeypatch):
        def refuse(*args):
            raise AssertionError("full-grid sample")

        monkeypatch.setattr(Symbol, "sample", refuse)
        h = hgrids[-1]
        # a Fourier symbol reads no grid, given or not
        monkeypatch.setattr(HusimiGrid, "centers", refuse)
        plane = Symbol.from_fourier({(3, -2): 1.0})
        assert antiwick_expectation(psi, plane, arnold, hgrid=h) == antiwick_expectation(
            psi, plane, arnold
        )
        sampled = Symbol(fn=lambda q, p: q * p)
        with pytest.raises(AssertionError, match="full-grid sample"):
            antiwick_expectation(None, sampled, None, hgrid=h)

    def test_sampled_symbol_needs_a_grid(self, arnold, psi):
        for sym in (Symbol(fn=lambda q, p: q * p), bump_symbols((0.3, 0.4), 0.1)[0]):
            with pytest.raises(ValueError, match="hgrid"):
                antiwick_expectation(psi, sym, arnold)

    @settings(max_examples=60, deadline=None)
    @given(
        q0=st.floats(0.0, 1.0, exclude_max=True),
        p0=st.floats(0.0, 1.0, exclude_max=True),
        r=st.floats(0.0, 0.25, exclude_min=True, exclude_max=True),
        G=st.integers(16, 512),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, grid1024, q0, p0, r, G, seed):
        h = random_hgrid(grid1024, G, seed)
        assert_matches_oracle((q0, p0), r, h)


def assert_bump_masses_match(hgrid, centers, r):
    """bump_masses against antiwick_expectation of each bump_symbols pair."""
    lower, upper = bump_masses(hgrid, centers, r)
    for x, got in zip(centers, zip(lower, upper)):
        for value, sym in zip(got, bump_symbols(x, r)):
            want = antiwick_expectation(None, sym, None, hgrid=hgrid)
            assert abs(value - want) <= 1e-14


near_seam = st.one_of(
    st.floats(0.0, 1e-3),
    st.floats(1.0 - 1e-3, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
)


class TestBumpMasses:
    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.tuples(near_seam, near_seam), min_size=1, max_size=6),
        r=st.floats(0.0, 0.25, exclude_min=True, exclude_max=True),
        G=st.integers(16, 512),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, grid1024, centers, r, G, seed):
        assert_bump_masses_match(random_hgrid(grid1024, G, seed), centers, r)

    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.tuples(near_seam, near_seam), min_size=1, max_size=6),
        r=st.one_of(
            st.floats(0.0, 0.25, exclude_min=True, exclude_max=True),
            st.floats(0.0, 0.01, exclude_min=True),
        ),
        G=st.integers(16, 512),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grids_with_zero_rows(self, grid1024, centers, r, G, share, seed):
        # a share of the rows exactly zero, rows 0 and G - 1 among the
        # candidates, under patches that wrap across them or not; small r
        # leaves patches of no cell at all
        h = random_hgrid(grid1024, G, seed)
        h.values[np.random.default_rng(seed).random(G) < share] = 0.0
        assert_bump_masses_match(h, centers, r)
        lower, upper = bump_masses(h, centers, r)
        for x, got in zip(centers, zip(lower, upper)):
            assert np.array(got).tobytes() == gathered_bump_masses(h, x, r).tobytes()

    def test_radius_below_a_cell(self, grid1024):
        # a center on a cell corner is half a cell from every cell center
        h = random_hgrid(grid1024, 64, 1)
        r = 0.2 / 64
        lower, upper = bump_masses(h, [(0.0, 0.0), (0.5, 0.25)], r)
        assert lower.tolist() == upper.tolist() == [0.0, 0.0]
        assert_bump_masses_match(h, [(0.0, 0.0), (0.5, 0.25)], r)

    def test_radius_range(self, grid1024):
        h = random_hgrid(grid1024, 16, 0)
        for r in (0.0, 0.25):
            with pytest.raises(RadiusOutOfRange):
                bump_masses(h, [(0.5, 0.5)], r)


def gathered_bump_masses(hgrid, x, r):
    """Reference for the bits of bump_masses at x: each bump's patch
    gathered with np.ix_ and summed against its profile by einsum."""
    G = hgrid.G
    scaled = np.asarray(x, dtype=float) * G
    base = np.floor(scaled)
    frac = scaled - base
    base = base.astype(np.int64)
    masses = []
    for r_in, r_out in _bump_radii(r):
        (kq, dq), (kp, dp) = (_bump_offsets(G, f, r_out) for f in frac)
        profile = _bump_profile(np.hypot(dq[:, None], dp[None, :]), r_in, r_out)
        cells = hgrid.values[np.ix_((base[0] + kq) % G, (base[1] + kp) % G)]
        masses.append(np.einsum("ij,ij->", cells, profile) * hgrid.weight)
    return np.array(masses)


class TestClosedFormProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        N=st.integers(7, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_resolved_husimi_quadrature(self, entries, N, seed):
        # odd N has theta = (pi, pi), so wrapped sites carry the twist
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        psi = random_state(grid, seed)
        h = husimi(psi, cat, resolving_G(cat, N, DEFAULT_FREQUENCIES))
        got = antiwick_plane_waves(psi, cat, DEFAULT_FREQUENCIES)
        want = [
            full_grid_expectation(Symbol.from_fourier({n: 1.0}), h) for n in DEFAULT_FREQUENCIES
        ]
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize(
        "theta_over_pi", [None, (Fraction(2, 3), Fraction(1, 3))], ids=["parity", "twisted"]
    )
    @pytest.mark.parametrize("N", [24, 25])
    def test_matches_the_translations(self, N, theta_over_pi):
        # n1 that wrap the torus once or more; odd N at the parity angle, and
        # any angle off it, twist the wrapped sites
        cat = validate_cat_map(3, 1, 2, 1)
        if theta_over_pi is None:
            grid = choose_theta(cat, N)
        else:
            grid = PlanckGrid(N, theta_over_pi)
        psi = random_state(grid, 7)
        freqs = [(N, 1), (-N - 1, 3), (2 * N + 5, -2), (7, -5), (N - 1, 2), (0, 0)]
        got = antiwick_plane_waves(psi, cat, freqs)
        for n, value in zip(freqs, got):
            want = np.vdot(psi.amplitudes, translation(n, grid).apply(psi.amplitudes))
            assert abs(value / damping(cat, N, n) - want) <= 1e-13


class TestBumps:
    def test_radius_range(self):
        with pytest.raises(RadiusOutOfRange):
            bump_symbols((0.5, 0.5), 0.3)
        with pytest.raises(RadiusOutOfRange):
            bump_symbols((0.5, 0.5), 0.0)

    def test_pointwise_sandwich(self):
        x0, r = (0.4, 0.6), 0.1
        lower, upper = bump_symbols(x0, r)
        G = 512
        c = (np.arange(G) + 0.5) / G
        q, p = c[:, None], c[None, :]
        dq = np.mod(q - x0[0] + 0.5, 1.0) - 0.5
        dp = np.mod(p - x0[1] + 0.5, 1.0) - 0.5
        chi = (dq**2 + dp**2 <= r * r).astype(float)
        lo = lower.sample(G).real
        hi = upper.sample(G).real
        assert np.all(lo <= chi + 1e-15)
        assert np.all(chi <= hi + 1e-15)
        assert np.all((lo >= 0) & (lo <= 1) & (hi >= 0) & (hi <= 1))

    def test_integrals(self):
        x0, r = (0.5, 0.5), 0.1
        lower, upper = bump_symbols(x0, r)
        G = 1024
        vol = math.pi * r * r
        lo = lower.sample(G).real.mean()
        hi = upper.sample(G).real.mean()
        assert (2.0 / 3.0) ** 2 <= lo / vol <= 1.0
        assert 1.0 <= hi / vol <= 1.5**2
        # the difference lives in the annulus between the inner and outer
        # supports, so it is bounded by its area
        assert 0.0 < hi - lo <= vol * (9.0 / 4.0 - 4.0 / 9.0)

    @pytest.mark.parametrize("r", [5e-324, 1e-310])
    def test_subnormal_radius_without_warnings(self, r):
        # r_in == r_out after rounding (5e-324), or a ramp argument that
        # overflows (1e-310): neither may divide by zero or overflow
        x0 = (0.3, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper = bump_symbols(x0, r)
            for bump in (lower, upper):
                assert bump.fn(*x0) == 1.0
                assert bump.fn(0.3, 0.2) == 0.0
                assert np.all(bump.sample(64).real == 0.0)

    def test_quadrature_grid_convergence(self):
        lower, _ = bump_symbols((0.3, 0.7), 0.12)
        v512 = lower.sample(512).real.mean()
        v1024 = lower.sample(1024).real.mean()
        assert v512 == pytest.approx(v1024, rel=1e-3)


class TestPositionMass:
    def test_full_circle_exact(self, arnold, grid1024):
        psi = random_state(grid1024, 9)
        assert position_interval_mass(psi, 0.3, 0.5) == pytest.approx(
            psi.norm2(), abs=1e-12
        )

    def test_coherent_interval_both_paths(self, arnold, grid4096):
        # the sites in the interval, and the Husimi strip over it
        coh = torus_coherent((0.5, 0.25), arnold, grid4096)
        r = 10.0 * math.sqrt(grid4096.hbar)
        direct = position_interval_mass(coh, 0.5, r)
        h = husimi(coh, arnold, 256)
        strip = np.abs(h.centers() - 0.5) <= r
        via_h = h.values[strip, :].sum() * h.weight
        assert direct == pytest.approx(1.0, abs=0.01)
        assert via_h == pytest.approx(1.0, abs=0.01)

    def test_far_strip(self, arnold, grid4096):
        coh = torus_coherent((0.2, 0.6), arnold, grid4096)
        assert position_interval_mass(coh, 0.7, 0.05) < 1e-8

    def test_radius_validation(self, arnold, grid1024):
        psi = random_state(grid1024, 0)
        with pytest.raises(RadiusOutOfRange):
            position_interval_mass(psi, 0.5, 0.6)

    @pytest.mark.parametrize("N", [1, 2, 5, 64, 101, 4096, 4097])
    def test_slices_equal_the_site_mask(self, N):
        # each mass sums the sites |min_image(site - q0)| <= r picks, in
        # site order, so it equals the masked sum bit for bit: on random
        # states, wrapping intervals, boundary-hugging centres and r = 1/2
        rng = np.random.default_rng(N)
        for theta in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                      (Fraction(2, 3), Fraction(4, 3))):
            grid = PlanckGrid(N, theta)
            psi = random_state(grid, N)
            centers = [*rng.uniform(0.0, 1.0, 12), 0.0, 0.5, 1e-17, 1.0 - 1e-17,
                       (0.5 + grid.eta) / N, grid.eta / N, 1.0 - 0.5 / N]
            radii = [*rng.uniform(0.0, 0.5, 6), 0.5, 0.5 - 1e-16, 0.25, 1.0 / N, 0.5 / N, 1e-9]
            for r in (r for r in radii if 0.0 < r <= 0.5):
                masses = position_interval_masses(psi, centers, r)
                for q0, mass in zip(centers, masses):
                    inside = np.abs(min_image(grid.sites() - q0)) <= r
                    assert mass == float(np.sum(np.abs(psi.amplitudes[inside]) ** 2)), (q0, r)


class TestWAWGap:
    def test_constant_symbol_zero_gap(self, arnold):
        grid = choose_theta(arnold, 256)
        gap = weyl_antiwick_gap(Symbol.from_fourier({(0, 0): 1.0}), arnold, grid)
        assert gap < 1e-10

    def test_aw_dense_constant_is_identity(self, arnold):
        grid = choose_theta(arnold, 128)
        one = Symbol.from_fourier({(0, 0): 1.0})
        AW = reference_antiwick_dense(one, arnold, grid, 128)
        assert np.max(np.abs(AW - np.eye(128))) < 1e-12
        psi = random_state(grid, 0)
        assert antiwick_expectation(psi, one, arnold) == pytest.approx(psi.norm2(), abs=1e-15)

    def test_aw_dense_hermitian_for_real_symbol(self, arnold):
        grid = choose_theta(arnold, 128)
        sym = Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5}, real=True)
        AW = reference_antiwick_dense(sym, arnold, grid, 128)
        assert np.max(np.abs(AW - AW.conj().T)) < 1e-12
        for seed in range(3):
            val = antiwick_expectation(random_state(grid, seed), sym, arnold)
            assert abs(val.imag) < 1e-15

    def test_plane_wave_gap_decreasing(self, arnold):
        sym = Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5}, real=True)
        gaps = []
        for N in (256, 512, 1024):
            grid = choose_theta(arnold, N)
            gaps.append(weyl_antiwick_gap(sym, arnold, grid))
        assert gaps[0] > gaps[1] > gaps[2] > 0
        # hbar-linear rate: halving hbar about halves the gap
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.25)

    def test_expectation_agreement_bounded_by_gap(self, arnold):
        grid = choose_theta(arnold, 512)
        rng = np.random.default_rng(12)
        for _ in range(5):
            sym = random_real_trig_poly(rng, nmax=2, terms=3)
            gap = weyl_antiwick_gap(sym, arnold, grid)
            op = weyl_quantize(sym, grid)
            for seed in range(10):
                psi = random_state(grid, seed)
                wval = np.vdot(psi.amplitudes, op.apply(psi.amplitudes))
                aval = antiwick_expectation(psi, sym, arnold)
                assert abs(wval - aval) <= gap * (1 + 1e-6) + 1e-9

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 1, 2, 1)])
    def test_leading_order_far_above_dense_sizes(self, entries):
        # 1 - d_z(n) = pi Q_z(n) / (2 N) + O(N^-2) with Q_z(n) = |n1 z0 - n2|^2 / Im z0,
        # and the norm of a Weyl operator tends to its symbol's sup, so
        # 2 N gap / pi -> sup |sum_n c_n Q_z(n) e_n|
        cat = validate_cat_map(*entries)
        z0 = z_parameter(cat)
        q_symbol = Symbol.from_fourier(
            {n: c * abs(n[0] * z0 - n[1]) ** 2 / z0.imag for n, c in GAP_SYMBOL.items()}
        )
        sup = np.max(np.abs(q_symbol.sample(512)))
        N = 16384
        gap = weyl_antiwick_gap(Symbol.from_fourier(GAP_SYMBOL, real=True), cat, choose_theta(cat, N))
        assert 2 * N * gap / math.pi == pytest.approx(sup, rel=1e-3)


def window_indices(grid, q0, cut):
    lo = math.floor(grid.N * (q0 - cut) - grid.eta)
    hi = math.ceil(grid.N * (q0 + cut) - grid.eta)
    return np.arange(lo, hi + 1)


def reference_antiwick_dense(symbol, catmap, grid, G):
    """Oracle: the column algorithm one window at a time, scattered with
    np.add.at, so wrapped windows (K > N) pile up site by site."""
    N = grid.N
    z0 = z_parameter(catmap)
    cut = _truncation_cut(grid, z0.imag)
    c0 = (2.0 * N * z0.imag) ** 0.25
    vals = symbol.sample(G)
    acc = np.zeros((N, N), dtype=complex)
    for a in range(G):
        qa = (a + 0.5) / G
        m = window_indices(grid, qa, cut)
        K = len(m)
        dy = (m + grid.eta) / N - qa
        w = c0 * np.exp(1j * math.pi * N * z0 * dy * dy)
        w = w * np.exp(1j * grid.theta[0] * (m // N))
        base = np.fft.ifft(vals[a, :]) * G
        dd = m[:, None] - m[None, :]
        beta = np.exp(1j * np.pi * dd / G) * base[np.mod(dd, G)]
        block = (w[:, None] * np.conj(w)[None, :]) * beta
        np.add.at(acc, (np.repeat(m % N, K), np.tile(m % N, K)), block.reshape(-1))
    return acc / (G * G)


def oracle_symbols():
    rng = np.random.default_rng(21)
    coeffs = {
        (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): complex(
            rng.standard_normal(), rng.standard_normal()
        )
        for _ in range(5)
    }
    lower, _ = bump_symbols((0.02, 0.97), 0.2)
    return {
        "gap": Symbol.from_fourier(GAP_SYMBOL, real=True),
        "complex": Symbol.from_fourier(coeffs),
        "bump": lower,
    }


def unresolved(G, grid):
    return G < math.sqrt(2.0 * math.pi * grid.N)


def assert_dense_matches_quadrature(cat, grid, G, states):
    """<psi|A_aw|psi> from the dense oracle equals the Husimi quadrature of
    the same symbol on the same G x G grid: both sum a(x) over the same
    coherent projectors."""
    for psi in states:
        h = coarse_husimi(psi, cat, G)
        for name, sym in oracle_symbols().items():
            A = reference_antiwick_dense(sym, cat, grid, G)
            dense = np.vdot(psi.amplitudes, A @ psi.amplitudes)
            quad = full_grid_expectation(sym, h)
            assert abs(dense - quad) <= 1e-12 * abs(quad), name


class TestDenseMatchesHusimiQuadrature:
    def test_off_parity_angle(self):
        cat, grid = twisted_grid()
        states = [random_state(grid, 3), torus_coherent((0.999, 0.02), cat, grid)]
        assert_dense_matches_quadrature(cat, grid, 64, states)

    @pytest.mark.parametrize("entries", hyperbolic_maps()[::30])
    @pytest.mark.parametrize("N", [64, 75])
    def test_parity_grids(self, entries, N):
        # N = 75 has theta = (pi, pi); the squeezed maps' windows are
        # longer than N at N = 64
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        states = [random_state(grid, 4), torus_coherent((0.02, 0.97), cat, grid)]
        assert_dense_matches_quadrature(cat, grid, 32, states)


class TestDenseAssembly:
    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 1, 2, 1)])
    @pytest.mark.parametrize("N", [16, 24, 25, 64, 200])
    @pytest.mark.parametrize("G", [16, 48, 256])
    def test_matches_column_oracle(self, entries, N, G):
        # The column oracle of a Fourier symbol is the signed sum of the
        # damped translations at every alias n + G k (entrywise), and the
        # closed form summed over those aliases gives its expectations.  A
        # bump symbol's expectation is the Husimi quadrature, which warns
        # when G is unresolved; the closed form never does.  Windows wrap
        # the torus at N = 16, 24 and 25; N = 25 has theta = (pi, pi).
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        psi = random_state(grid, 5)
        for name, sym in oracle_symbols().items():
            want = reference_antiwick_dense(sym, cat, grid, G)
            dense_value = np.vdot(psi.amplitudes, want @ psi.amplitudes)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if sym.fourier is None:
                    got_value = antiwick_expectation(psi, sym, cat, husimi(psi, cat, G))
                else:
                    got = np.zeros((N, N), dtype=complex)
                    got_value = 0j
                    for n, c in sym.fourier.items():
                        got_value += c * closed_form_quadrature(psi, cat, n, G)
                        for m, sign in aliases(n, cat, N, G):
                            got += c * sign * damping(cat, N, m) * translation_entries(m, grid)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
            hits = [w for w in caught if "does not resolve sqrt(hbar)" in str(w.message)]
            assert len(hits) == (sym.fourier is None and unresolved(G, grid)), name
            assert abs(got_value - dense_value) <= 1e-13 * np.max(np.abs(want)), name

    def test_weyl_dense_is_the_translation_sum(self, arnold):
        # weyl_quantize applied to the basis, column by column
        grid = choose_theta(arnold, 96)
        sym = oracle_symbols()["complex"]
        op = weyl_quantize(sym, grid)
        eye = np.eye(96, dtype=complex)
        columns = np.column_stack([op.apply(eye[:, j]) for j in range(96)])
        adjoint_columns = np.column_stack([op.apply_adjoint(eye[:, j]) for j in range(96)])
        assert np.array_equal(columns, weyl_dense(sym, grid))
        assert np.max(np.abs(adjoint_columns - weyl_dense(sym, grid).conj().T)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.sampled_from(hyperbolic_maps()),
        N=st.sampled_from([2, 3, 5, 24, 97]),
        terms=st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.integers(-3, 3),
                st.complex_numbers(
                    min_magnitude=0.01, max_magnitude=2.0, allow_nan=False, allow_infinity=False
                ),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_shift_phase_operator_matches_oracles(self, entries, N, terms):
        # odd N has theta = (pi, pi); at N = 2, 3 and 5 distinct n1 share
        # their shift n1 mod N.  The terms of one shift add up in sorted
        # order, as the dense oracle's do, so every basis column is exact
        # even where shifts collide.
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        sym = Symbol.from_fourier({(n1, n2): c for n1, n2, c in terms})
        W = weyl_dense(sym, grid)
        op = weyl_quantize(sym, grid)
        eye = np.eye(N, dtype=complex)
        columns = np.column_stack([op.apply(eye[:, j]) for j in range(N)])
        adjoint_columns = np.column_stack([op.apply_adjoint(eye[:, j]) for j in range(N)])
        assert np.array_equal(columns, W)
        assert np.max(np.abs(adjoint_columns - W.conj().T)) <= 1e-13
        if N <= 200:
            D = W - reference_antiwick_dense(sym, cat, grid, 256)
            want = np.linalg.norm(D, 2)
            scale = sum(abs(c) for c in sym.fourier.values())
            assert weyl_antiwick_gap(sym, cat, grid) == pytest.approx(
                want, rel=1e-8, abs=1e-14 * scale
            )

    @pytest.mark.parametrize("N", [24, 200])
    def test_gap_matches_oracle(self, N):
        cat = validate_cat_map(3, 1, 2, 1)
        grid = choose_theta(cat, N)
        for sym in (oracle_symbols()["gap"], oracle_symbols()["complex"]):
            D = weyl_dense(sym, grid) - reference_antiwick_dense(sym, cat, grid, 256)
            want = np.linalg.norm(D, 2)
            assert weyl_antiwick_gap(sym, cat, grid) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("entries", [(2, 1, 1, 1), (3, 1, 2, 1)])
    @pytest.mark.parametrize("N", [512, 513])
    def test_gap_matches_dense_norm(self, entries, N):
        # N = 513 has theta = (pi, pi); G = 256 leaves aliases below e^-190
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        syms = [oracle_symbols()["gap"]]
        if (entries, N) == ((3, 1, 2, 1), 512):
            syms.append(oracle_symbols()["complex"])
        for sym in syms:
            D = weyl_dense(sym, grid) - reference_antiwick_dense(sym, cat, grid, 256)
            want = np.linalg.norm(D, 2)
            assert weyl_antiwick_gap(sym, cat, grid) == pytest.approx(want, rel=1e-8)

    def test_gap_holds_no_dense_array(self, arnold):
        sym = oracle_symbols()["gap"]
        N = 4096
        grid = choose_theta(arnold, N)
        tracemalloc.start()
        try:
            weyl_antiwick_gap(sym, arnold, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few dozen state-sized vectors; one dense N x N array is 256 MB
        assert peak < 64 * 16 * N

    @pytest.mark.parametrize("G, warns", [(64, 1), (256, 0)])
    def test_resolution_warning(self, arnold, G, warns):
        # sqrt(2 pi N) = 113.4 at N = 2048: only the grid path warns, the
        # closed form for Fourier symbols reads no grid at any G
        grid = choose_theta(arnold, 2048)
        psi = random_state(grid, 0)
        for sym, expected in ((oracle_symbols()["gap"], 0), (oracle_symbols()["bump"], warns)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                hgrid = None if sym.fn is None else husimi(psi, arnold, G)
                antiwick_expectation(psi, sym, arnold, hgrid)
            hits = [w for w in caught if "does not resolve sqrt(hbar)" in str(w.message)]
            assert len(hits) == expected
