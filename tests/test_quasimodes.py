import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from catlab import (
    BallsOverlap,
    CatlabError,
    ConfigError,
    EnumerationTooLarge,
    NoInvariantTheta,
    NTooLarge,
    PreconditionError,
    QuantumState,
    QuasimodeSpec,
    RadiusOutOfRange,
    build_quasimode,
    choose_N,
    choose_theta,
    coherent,
    ehrenfest_time,
    enumerate_prime_orbits,
    husimi,
    husimi_ball_report,
    nonequidistribution_report,
    propagator,
    quasimodes,
    residual,
    return_amplitude,
    run_pipeline,
    scmeasure_error,
    torus_coherent,
    validate_cat_map,
)
from catlab.io import canonical_json
from catlab.quasimodes import _ls_slope, loglog_slope

from conftest import quasimode_oracle, residual_oracle

LAMBDA = math.log((3 + math.sqrt(5)) / 2)


def t2_spec(arnold, N, phi=0.0, delta=0.24):
    grid = choose_theta(arnold, N)
    orbit = enumerate_prime_orbits(arnold, 2)[0]
    return QuasimodeSpec(orbit=orbit, phi=phi, delta=delta, grid=grid, catmap=arnold)


def scan(state, spec, space, r):
    """nonequidistribution_report, in phase space on the state's G = 256 grid."""
    hgrid = husimi(state, spec.catmap, 256) if space == "phase" else None
    return nonequidistribution_report(state, spec, space, r, hgrid=hgrid)


class TestChooseN:
    def test_t2_schedule(self):
        # 60-digit evaluation of exp(lambda T / delta)/(2 pi) gives 484.11,
        # so the ceiling is 485 (and T <= delta T_E indeed first holds there)
        assert choose_N(2, 0.24, LAMBDA) == 485

    def test_t3_schedule(self):
        assert choose_N(3, 0.24, LAMBDA) == 26700

    def test_t0_rejected(self):
        with pytest.raises(ValueError):
            choose_N(0, 0.24, LAMBDA)

    def test_t4_exceeds_cap(self):
        with pytest.raises(NTooLarge):
            choose_N(4, 0.24, LAMBDA)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            choose_N(2, 0.3, LAMBDA)

    def test_ehrenfest_boundary(self):
        # the schedule lands just above the admissibility threshold
        assert 2 <= 0.24 * ehrenfest_time(485, LAMBDA)
        assert 2 > 0.24 * ehrenfest_time(482, LAMBDA)

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_schedule_and_spec_share_the_time_window(self, arnold, T):
        # the schedule's N is the first N where the spec's window holds
        chosen = choose_N(T, 0.24, arnold.lyapunov)
        orbit = enumerate_prime_orbits(arnold, T)[0]

        def spec(N):
            grid = choose_theta(arnold, N)
            return QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)

        assert spec(chosen).grid.N == chosen
        with pytest.raises(PreconditionError, match="exceeds delta T_E"):
            spec(chosen - 1)


class TestSpec:
    def test_time_window_enforced(self, arnold):
        with pytest.raises(PreconditionError):
            t2_spec(arnold, 256)  # delta T_E = 1.84 < 2

    def test_large_N_accepted(self, arnold):
        # a float compatibility residual would exceed 1e-9 here
        spec = t2_spec(arnold, 3_000_001)
        assert spec.grid.theta == (math.pi, math.pi)

    def test_incompatible_theta(self, arnold):
        from catlab import PlanckGrid

        orbit = enumerate_prime_orbits(arnold, 2)[0]
        with pytest.raises(NoInvariantTheta):
            QuasimodeSpec(
                orbit=orbit,
                phi=0.0,
                delta=0.24,
                grid=PlanckGrid(1024, (Fraction(3, 10), Fraction(9, 10))),
                catmap=arnold,
            )


class TestBuild:
    def test_t1_is_coherent_state(self, arnold):
        grid = choose_theta(arnold, 512)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.7, delta=0.24, grid=grid, catmap=arnold)
        psi, psi_n = build_quasimode(spec)
        coh = torus_coherent(orbit.start(), arnold, grid)
        assert np.max(np.abs(psi.amplitudes - coh.amplitudes)) == 0.0
        assert abs(psi.norm2() - 1.0) < 1e-8

    def test_t2_norm_is_two(self, arnold, grid1024):
        spec = t2_spec(arnold, 1024)
        psi, psi_n = build_quasimode(spec)
        assert psi.norm2() == pytest.approx(2.0, rel=0.01)
        assert psi_n.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_norm_independent_of_phi(self, arnold):
        n0 = build_quasimode(t2_spec(arnold, 1024, phi=0.0))[0].norm2()
        n1 = build_quasimode(t2_spec(arnold, 1024, phi=math.pi / 3))[0].norm2()
        assert n1 == pytest.approx(2.0, rel=0.01)
        assert n0 == pytest.approx(n1, rel=1e-6)

    def test_phi_equivariance_term_by_term(self, arnold):
        # the construction is literally the phased sum of propagated terms
        spec = t2_spec(arnold, 1024, phi=0.9)
        grid, cat = spec.grid, spec.catmap
        u = propagator(cat, grid)
        term = torus_coherent(spec.orbit.start(), cat, grid).amplitudes
        expect = term + cmath.exp(-1j * 0.9) * u.apply(term)
        psi, _ = build_quasimode(spec)
        assert np.max(np.abs(psi.amplitudes - expect)) < 1e-14

    def test_each_window_evaluated_once(self, arnold, monkeypatch):
        # T + 1 Gaussians, each window evaluated once across the build, the
        # return amplitude and the residual; a step evaluates none
        calls = []
        window = coherent._coherent_window

        def counted(*args, **kwargs):
            calls.append(args)
            return window(*args, **kwargs)

        monkeypatch.setattr(coherent, "_coherent_window", counted)
        spec = t2_spec(arnold, 4096, phi=0.4)
        psi, _ = build_quasimode(spec)
        return_amplitude(spec)
        residual(psi, spec)
        assert len(calls) == spec.T + 1 == 3
        assert {g.z for g in spec.gaussians} == {z for _, z in calls}

    def test_norm_law_t3(self, arnold):
        # T = 3 needs delta T_E >= 3: N = 32768 gives 0.24 T_E = 3.05
        grid = choose_theta(arnold, 32768)
        orbit = enumerate_prime_orbits(arnold, 3)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        psi, _ = build_quasimode(spec)
        assert psi.norm2() == pytest.approx(3.0, rel=0.01)


class TestResidual:
    def test_bound_t2(self, arnold):
        spec = t2_spec(arnold, 1024)
        psi, _ = build_quasimode(spec)
        res = residual(psi, spec)
        assert res <= 2.0 / math.sqrt(2) + 0.01

    def test_sweep_and_minimizer(self, arnold):
        # the identity agrees with ||(U - e^{i phi}) psi|| / ||psi||, U
        # applied, over a grid of phi
        prop = propagator(arnold, choose_theta(arnold, 1024))
        bound = 2.0 / math.sqrt(2) + 0.01
        vals = []
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            spec_phi = t2_spec(arnold, 1024, phi=float(phi))
            psi, _ = build_quasimode(spec_phi)
            r = residual(psi, spec_phi)
            assert r == pytest.approx(residual_oracle(psi, float(phi), prop), abs=1e-12)
            assert r <= bound
            vals.append(r)
        assert min(vals) <= np.mean(vals)

    def test_t1_minimum_matches_closed_form(self, arnold):
        # ||(U - e^{i phi}) psi||^2 = 2 - 2 Re(e^{-i phi} <psi|U psi>);
        # the sweep minimum is sqrt(2 - 2 |<psi|U psi>|)
        grid = choose_theta(arnold, 512)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        prop = propagator(arnold, grid)
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        _, psi_n = build_quasimode(spec)
        overlap = np.vdot(psi_n.amplitudes, prop.apply(psi_n.amplitudes))
        closed_form = math.sqrt(2.0 - 2.0 * abs(overlap))
        sweep = []
        for phi in np.linspace(0, 2 * math.pi, 256, endpoint=False):
            spec_phi = QuasimodeSpec(orbit=orbit, phi=phi, delta=0.24, grid=grid, catmap=arnold)
            sweep.append(residual(build_quasimode(spec_phi)[0], spec_phi))
        assert min(sweep) == pytest.approx(closed_form, abs=1e-3)
        assert min(sweep) <= 2.0

    @pytest.mark.parametrize(
        "entries, T, N",
        [((2, 1, 1, 1), 2, 4097), ((1, 1, 1, 2), 2, 6000), ((2, 1, 1, 1), 3, 32768),
         ((3, 1, 2, 1), 2, 16384), ((1, -1, -1, 2), 2, 5001), ((4, 3, 9, 7), 1, 4099)],
    )
    def test_identity_matches_oracle(self, entries, T, N):
        cat = validate_cat_map(*entries)
        grid = choose_theta(cat, N)
        orbit = enumerate_prime_orbits(cat, T)[0]
        prop = propagator(cat, grid)
        for phi in (0.0, 0.4, 2.9, -1.3):
            spec = QuasimodeSpec(orbit=orbit, phi=phi, delta=0.24, grid=grid, catmap=cat)
            psi, _ = build_quasimode(spec)
            assert residual(psi, spec) == pytest.approx(
                residual_oracle(psi, phi, prop), abs=1e-12
            )


# the benchmark's quasimode maps: positive-trace hyperbolic maps with
# entries in 0..4 and trace <= 6 at T = 1, and two maps of trace 3 at T = 2
BENCH_T1_MAPS = [
    (a, b, c, d)
    for a in range(5) for b in range(1, 5) for c in range(1, 5) for d in range(5)
    if a * d - b * c == 1 and 2 < a + d <= 6
]
BENCH_T2_MAPS = [(2, 1, 1, 1), (1, 1, 1, 2)]


class TestPropagatorOracle:
    @pytest.mark.parametrize("N", [1024, 2048, 4096])
    def test_selftest_configs(self, arnold, N):
        # the desk config of criteria 6 and 8, and criterion 7's ladder
        spec = t2_spec(arnold, N, phi=0.0)
        psi, _ = build_quasimode(spec)
        expect = quasimode_oracle(spec)
        assert np.linalg.norm(psi.amplitudes - expect.amplitudes) <= 1e-12 * expect.norm()

    @pytest.mark.parametrize("N", [4096, 16384, 65536])
    def test_benchmark_configs(self, N):
        worst = 0.0
        for entries, T in [(m, 1) for m in BENCH_T1_MAPS] + [(m, 2) for m in BENCH_T2_MAPS]:
            cat = validate_cat_map(*entries)
            grid = choose_theta(cat, N)
            orbit = enumerate_prime_orbits(cat, T)[0]
            spec = QuasimodeSpec(orbit=orbit, phi=1.7, delta=0.24, grid=grid, catmap=cat)
            psi, _ = build_quasimode(spec)
            expect = quasimode_oracle(spec)
            err = np.linalg.norm(psi.amplitudes - expect.amplitudes) / expect.norm()
            worst = max(worst, err)
        assert worst <= 1e-12


class TestReturnAmplitude:
    @pytest.mark.parametrize(
        "entries, N",
        [((2, 1, 1, 1), 4096), ((2, 1, 1, 1), 65536), ((2, 1, 1, 1), 65537), ((3, 1, 2, 1), 16384)],
    )
    def test_modulus_closed_form(self, entries, N):
        # |<x|U^T x>| = sqrt(2/|tr M^T|) at T = 2, with no propagator built
        cat = validate_cat_map(*entries)
        spec = QuasimodeSpec(
            orbit=enumerate_prime_orbits(cat, 2)[0], phi=0.0, delta=0.24,
            grid=choose_theta(cat, N), catmap=cat,
        )
        a, _, _, d = cat.matrix_power(2)
        amplitude, x_norm2 = return_amplitude(spec)
        assert abs(amplitude) / x_norm2 == pytest.approx(math.sqrt(2.0 / abs(a + d)), abs=1e-10)

    def test_matches_oracle_overlap(self, arnold):
        spec = t2_spec(arnold, 4099)
        prop = propagator(arnold, spec.grid)
        x = torus_coherent(spec.orbit.start(), arnold, spec.grid).amplitudes
        back = prop.apply(prop.apply(x))
        amplitude, x_norm2 = return_amplitude(spec)
        assert abs(amplitude - np.vdot(x, back)) < 1e-12
        assert x_norm2 == pytest.approx(np.vdot(x, x).real, abs=1e-15)


class TestBallReport:
    def test_t1_single_ball(self, arnold):
        grid = choose_theta(arnold, 512)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        psi, _ = build_quasimode(spec)
        report = husimi_ball_report(psi, spec, husimi(psi, arnold, 256))
        assert len(report["ball_masses"]) == 1
        assert report["ball_masses"][0] == pytest.approx(1.0, abs=0.02)

    def test_t2_two_balls(self, arnold, grid4096):
        spec = t2_spec(arnold, 4096)
        psi, _ = build_quasimode(spec)
        report = husimi_ball_report(psi, spec, husimi(psi, arnold, 256))
        assert len(report["ball_masses"]) == 2
        for m in report["ball_masses"]:
            assert m == pytest.approx(1.0, abs=0.02)
        assert abs(report["off_support"]) < 1e-6 * spec.T
        assert sum(report["ball_masses"]) == pytest.approx(psi.norm2(), rel=0.01)

    def test_overlap_detected_at_small_N(self, arnold):
        # N = 400: 2 C sqrt(hbar) e^{2 lambda} = 0.23 > 1/l = 0.2
        grid = choose_theta(arnold, 400)
        orbit = enumerate_prime_orbits(arnold, 2)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.249, grid=grid, catmap=arnold)
        psi, _ = build_quasimode(spec)
        with pytest.raises(BallsOverlap):
            husimi_ball_report(psi, spec, husimi(psi, arnold, 256))


class TestScMeasure:
    def test_zero_frequency(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        report = scmeasure_error(psi_n, spec, [(0, 0)])
        assert report["scmeasure_max_error"] < 0.01

    def test_low_frequencies_small_error(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        freqs = [(n1, n2) for n1 in range(-2, 3) for n2 in range(-2, 3)]
        report = scmeasure_error(psi_n, spec, freqs)
        assert report["scmeasure_max_error"] < 0.15
        assert report["scmeasure_rate_bound"] == pytest.approx(
            spec.grid.hbar ** (0.5 - 0.24), rel=1e-12
        )

    def test_error_decreases_with_N(self, arnold):
        freqs = [(1, 0), (0, 1), (2, -1)]
        errs = []
        for N in (1024, 4096):
            spec = t2_spec(arnold, N)
            _, psi_n = build_quasimode(spec)
            errs.append(scmeasure_error(psi_n, spec, freqs)["scmeasure_max_error"])
        assert errs[1] < errs[0]

    def test_frequency_guard(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        with pytest.raises(PreconditionError):
            scmeasure_error(psi_n, spec, [(9, 0)])


class TestNonequi:
    def test_radius_interval_reported(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        with pytest.raises(RadiusOutOfRange) as exc:
            nonequidistribution_report(psi_n, spec, "phase", 0.5)
        assert exc.value.admissible is not None
        with pytest.raises(RadiusOutOfRange):
            nonequidistribution_report(psi_n, spec, "physical", 1e-4)

    @pytest.mark.parametrize("r", [0.05, 0.5])
    def test_unknown_space_refused_before_the_radius(self, arnold, r):
        # the desk spec's range is [0.02136, 0.10607]: a typo in space is a
        # ValueError whether r lies inside it or not, never RadiusOutOfRange
        spec = t2_spec(arnold, 4096)
        _, psi_n = build_quasimode(spec)
        with pytest.raises(ValueError, match="space must be 'physical' or 'phase', got 'bogus'"):
            nonequidistribution_report(psi_n, spec, "bogus", r)

    def test_phase_scan_needs_the_grid(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        with pytest.raises(ValueError, match="hgrid"):
            nonequidistribution_report(psi_n, spec, "phase", 0.1)

    def test_physical_witnesses(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        report = nonequidistribution_report(psi_n, spec, "physical", 0.06)
        assert report["witnesses"]["hit"]["mass"] >= 1.0 / spec.T - 0.02
        assert report["witnesses"]["miss"]["mass"] < 1e-6
        assert report["cells"] > spec.T

    def test_phase_witnesses(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        report = scan(psi_n, spec, "phase", 0.1)
        assert report["witnesses"]["hit"]["mass"] >= 1.0 / spec.T - 0.02
        assert report["witnesses"]["miss"]["mass"] < 1e-6
        assert report["sup_ratio"] / max(report["inf_ratio"], 1e-300) > 1e6

    def test_pigeonhole_miss(self, arnold):
        # whenever the net has more than T cells some net ball misses
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        for r in (0.08, 0.1):
            report = scan(psi_n, spec, "phase", r)
            assert report["cells"] > spec.T
            assert report["witnesses"]["miss"]["mass"] < 1e-6

    def test_random_state_is_lebesgue_like(self, arnold):
        spec = t2_spec(arnold, 1024)
        rng = np.random.default_rng(17)
        amp = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        amp /= np.linalg.norm(amp)
        st = QuantumState(amp, spec.grid)
        report = scan(st, spec, "phase", 0.1)
        # hits use the lower bump and misses the upper, so for a uniform
        # state the two ratios bracket 1 from opposite sides
        assert 1.0 / 3.0 <= report["sup_ratio"] <= 3.0
        assert 1.0 / 3.0 <= report["inf_ratio"] <= 3.0

    def test_flat_state_is_momentum_strip(self, arnold):
        # all-equal amplitudes form a momentum eigenstate whose Husimi is a
        # horizontal strip: every net ball at this radius misses it, so the
        # ratios are nowhere near Lebesgue
        spec = t2_spec(arnold, 1024)
        amp = np.ones(1024, dtype=complex) / math.sqrt(1024)
        st = QuantumState(amp, spec.grid)
        report = scan(st, spec, "phase", 0.1)
        assert report["sup_ratio"] < 1.0 / 3.0

    @pytest.mark.parametrize("space, r, N", [("phase", 0.1, 1024), ("physical", 0.06, 4096)])
    def test_witness_centers_survive_rounding(self, arnold, space, r, N):
        # hit masses tie at 1/T and miss masses near 0 up to rounding, so a
        # change of psi_n by 1e-15 of its norm, the size of an upstream
        # rounding, must not move a witness center
        spec = t2_spec(arnold, N)
        _, psi_n = build_quasimode(spec)
        report = scan(psi_n, spec, space, r)
        rng = np.random.default_rng(11)
        for _ in range(4):
            noise = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            noise *= 1e-15 * psi_n.norm() / np.linalg.norm(noise)
            bumped = QuantumState(psi_n.amplitudes + noise, spec.grid)
            moved = scan(bumped, spec, space, r)
            for w in ("hit", "miss"):
                assert moved["witnesses"][w]["center"] == report["witnesses"][w]["center"], w
            assert moved["sup_ratio"] == pytest.approx(report["sup_ratio"], rel=1e-12)

    def test_witnesses_are_extremes_within_tolerance(self, arnold):
        spec = t2_spec(arnold, 1024)
        _, psi_n = build_quasimode(spec)
        report = scan(psi_n, spec, "phase", 0.1)
        vol = math.pi * 0.1**2
        tol = 1e-12 * psi_n.norm2()
        assert report["witnesses"]["hit"]["mass"] >= report["sup_ratio"] * vol - tol
        assert report["witnesses"]["miss"]["mass"] <= report["inf_ratio"] * vol + tol


class TestSlope:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            x = np.sort(rng.choice(np.arange(1, 1 << 20), size=k, replace=False)).astype(float)
            y = np.exp(rng.standard_normal(k)) * x ** rng.uniform(-2.0, 1.0)
            want = np.polyfit(np.log(x), np.log(y), 1)[0]
            assert loglog_slope(x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)
            t = np.arange(k, dtype=float)
            assert _ls_slope(t, np.log(y)) == pytest.approx(
                np.polyfit(t, np.log(y), 1)[0], rel=1e-12, abs=1e-12
            )

    def test_exact_power_law(self):
        assert loglog_slope([512, 1024, 2048], [4.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_needs_two_abscissae(self):
        with pytest.raises(ValueError):
            loglog_slope([64, 64], [1.0, 2.0])


class TestRunExperiment:
    def test_end_to_end(self, arnold):
        config = {"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "phi": 0.0, "G": 256,
                  "r_phase": 0.1, "r_physical": 0.05}
        report = run_pipeline(config).report
        assert report["norm_sq"] == pytest.approx(2.0, rel=0.01)
        assert report["residual"] <= report["residual_bound"] + 0.01
        assert len(report["ball_masses"]) == 2
        assert report["nonequi"]["phase"]["sup_ratio"] > 1.0
        assert report["scmeasure_max_error"] < 0.2
        assert report["schedule"] is None

    def test_deterministic(self, arnold):
        config = {"matrix": [2, 1, 1, 1], "T": 1, "N": 512,
                  "r_phase": 0.1, "r_physical": 0.09}
        a = canonical_json(run_pipeline(config).report)
        b = canonical_json(run_pipeline(config).report)
        assert a == b

    def test_pipeline_objects_match_report(self, arnold):
        config = {"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "phi": 0.7}
        exp = run_pipeline(config)
        assert exp.report["norm_sq"] == exp.psi.norm2()
        assert exp.hgrid.G == 256 and exp.hgrid.state_norm2 == exp.psi_n.norm2()
        # the ball report reuses psi_n's grid scaled by ||psi||^2; a second
        # Husimi grid of psi gives the same masses
        spec = QuasimodeSpec(
            orbit=exp.orbit, phi=0.7, delta=0.24, grid=exp.grid, catmap=arnold
        )
        direct = husimi_ball_report(exp.psi, spec, husimi(exp.psi, arnold, 256))
        assert np.allclose(exp.report["ball_masses"], direct["ball_masses"], rtol=0, atol=1e-12)
        assert exp.report["off_support"] == pytest.approx(direct["off_support"], abs=1e-12)

    def test_one_grid_per_run(self, arnold, monkeypatch):
        # run_pipeline builds one Husimi grid, and both reports read it:
        # given exp.hgrid they reproduce the report's numbers exactly
        grids = []

        def counted(*args, **kwargs):
            grids.append(husimi(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(quasimodes, "husimi", counted)
        config = {"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "phi": 0.7, "r_phase": 0.1}
        exp = run_pipeline(config)
        assert len(grids) == 1 and grids[0] is exp.hgrid
        spec = QuasimodeSpec(
            orbit=exp.orbit, phi=0.7, delta=0.24, grid=exp.grid, catmap=arnold
        )
        ball = husimi_ball_report(exp.psi, spec, exp.hgrid)
        assert ball == {key: exp.report[key] for key in ball}
        nq = nonequidistribution_report(exp.psi_n, spec, "phase", 0.1, hgrid=exp.hgrid)
        assert exp.report["nonequi"]["phase"] == nq

    def test_builds_no_propagator(self, arnold, monkeypatch):
        # the report is written with the propagator and its kernel
        # unavailable; its residual and return amplitude agree with the
        # applied oracle
        from catlab import hilbert

        def never(*args, **kwargs):
            raise AssertionError("run_pipeline built the propagator or read its kernel")

        monkeypatch.setattr(quasimodes, "propagator", never)
        monkeypatch.setattr(hilbert, "propagator", never)
        monkeypatch.setattr(hilbert, "_gauss_kernel", never)
        exp = run_pipeline({"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "phi": 0.3})
        monkeypatch.undo()
        prop = propagator(arnold, exp.grid)
        assert exp.report["residual"] == pytest.approx(
            residual_oracle(exp.psi, 0.3, prop), abs=1e-12
        )
        x = torus_coherent(exp.orbit.start(), arnold, exp.grid).amplitudes
        back = np.vdot(x, prop.apply(prop.apply(x))) / np.vdot(x, x).real
        returned = exp.report["return_amplitude"]
        assert returned["modulus"] == pytest.approx(abs(back), abs=1e-12)
        assert returned["phase"] == pytest.approx(cmath.phase(back), abs=1e-12)
        assert returned["modulus"] == pytest.approx(math.sqrt(2.0 / 7.0), abs=1e-10)

    def test_huge_T_refused_before_big_integers(self):
        # l = tr(M^T) - 2 has about 41798 digits; the float bound refuses it
        with pytest.raises(EnumerationTooLarge, match="log10 l = 41797.5"):
            run_pipeline({"matrix": [2, 1, 1, 1], "T": 100000, "N": 4096})

    def test_schedule_overflow_surfaced(self, arnold):
        with pytest.raises(NTooLarge):
            run_pipeline({"matrix": [2, 1, 1, 1], "T": 4})

    def test_t1_degenerate(self, arnold):
        report = run_pipeline(
            {"matrix": [2, 1, 1, 1], "T": 1, "N": 512,
             "r_phase": 0.1, "r_physical": 0.09}
        ).report
        assert len(report["ball_masses"]) == 1
        assert report["residual"] <= 2.0
        assert report["norm_sq"] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_output_refused_before_building(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built before the config was checked")

        for name in ("choose_theta", "propagator", "husimi"):
            monkeypatch.setattr(quasimodes, name, never)
        config = {"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "outputs": ["orbit", "stat"]}
        with pytest.raises(ConfigError) as exc:
            run_pipeline(config)
        assert str(exc.value) == (
            "unknown output(s) stat in config key outputs; known: state, husimi, orbit"
        )

    def test_only_N_may_be_none(self, arnold):
        with pytest.raises(ConfigError, match="config key delta must be a finite number, got None"):
            run_pipeline({"matrix": [2, 1, 1, 1], "T": 2, "N": 4096, "delta": None})
        # N = None takes the schedule, N = 485 at T = 2, where balls of
        # C0 = 0.5 are disjoint
        exp = run_pipeline({"matrix": [2, 1, 1, 1], "T": 2, "N": None, "C0": 0.5})
        assert exp.config["N"] == 485
        assert exp.report["schedule"] == {"N": 485}

    def test_explicit_orbit_start(self, arnold):
        report = run_pipeline(
            {"matrix": [2, 1, 1, 1], "orbit_start": [1, 2, 5], "N": 4096,
             "r_phase": 0.1, "r_physical": 0.05}
        ).report
        assert report["T"] == 2
        assert report["orbit"]["points"] == [[1, 2], [4, 3]]


# one bad value per CONFIG key, each applied on top of DESK_CONFIG
DESK_CONFIG = {"matrix": [2, 1, 1, 1], "T": 2, "N": 4096}
BAD_CONFIGS = [
    {"matrix": [2, 1, 1, 2]},
    {"matrix": [1, 1, 0, 1]},
    {"matrix": [2, 1, 1]},
    {"T": 0},
    {"T": 2.5},
    {"orbit_start": [1, 2, 0]},
    {"N": 0},
    {"delta": 0.25},
    {"delta": math.nan},
    {"phi": math.nan},
    *({key: value} for key in ("C0", "c_sep", "c1") for value in (0, -1)),
    {"G": 8},
    {"G": 2.5},
    {"frequencies": [[9, 0]]},
    {"frequencies": [[1]]},
    {"r_phase": 0.5},
    {"r_physical": 0.2},
    {"outputs": ["stat"]},
    {"T": 3, "orbit_start": [1, 2, 5]},
]


class TestBadConfig:
    def test_table_covers_every_key(self):
        assert {key for bad in BAD_CONFIGS for key in bad} == set(quasimodes.CONFIG)

    @pytest.mark.parametrize(
        "bad", BAD_CONFIGS,
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()).replace(" ", ""),
    )
    def test_refused_before_building(self, bad, monkeypatch):
        # a bad value is a CatlabError with a reason, raised before the
        # propagator is built; no value crashes or runs silently
        def never(*args, **kwargs):
            raise AssertionError("built before the config was refused")

        monkeypatch.setattr(quasimodes, "propagator", never)
        with pytest.raises(CatlabError):
            run_pipeline({**DESK_CONFIG, **bad})


class TestPhiInvariance:
    def test_ball_masses_independent_of_phi(self, arnold):
        # the balls isolate single terms, so masses ignore the relative phases
        masses = {}
        for phi in (0.0, 1.1):
            spec = t2_spec(arnold, 4096, phi=phi)
            psi, _ = build_quasimode(spec)
            report = husimi_ball_report(psi, spec, husimi(psi, arnold, 256))
            assert all(m >= 0.0 for m in report["ball_masses"])
            assert sum(report["ball_masses"]) + report["off_support"] == pytest.approx(
                psi.norm2(), rel=0.01
            )
            masses[phi] = report["ball_masses"]
        for a, b in zip(masses[0.0], masses[1.1]):
            assert abs(a - b) < 1e-3


class TestNormLawLadder:
    def test_t1_at_schedule_point(self, arnold):
        # N = 485 is the T = 2 schedule point; T = 1 is admissible well below
        grid = choose_theta(arnold, 485)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        psi, _ = build_quasimode(spec)
        assert psi.norm2() == pytest.approx(1.0, rel=0.01)

    def test_t1_at_482(self, arnold):
        # T = 2 is inadmissible at N = 482 (delta T_E = 1.9989) but T = 1 is
        grid = choose_theta(arnold, 482)
        orbit = enumerate_prime_orbits(arnold, 1)[0]
        spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=arnold)
        psi, _ = build_quasimode(spec)
        assert psi.norm2() == pytest.approx(1.0, rel=0.01)
        with pytest.raises(PreconditionError):
            t2_spec(arnold, 482)
