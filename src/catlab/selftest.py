"""Self-contained acceptance checks, runnable twice for byte determinism.

Each criterion function returns a plain dict of deterministic values with a
"pass" flag; run_all collects them, and selftest executes the whole bundle
twice with the same seed and compares the serialized bytes.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .classical import (
    enumerate_prime_orbits,
    fixed_point_count,
    validate_cat_map,
)
from .coherent import axis_variances, husimi, torus_coherent
from .hilbert import QuantumState, choose_theta, egorov_defect, propagator, translation
from .io import canonical_json
from .quantize import Symbol, weyl_antiwick_gap
from .quasimodes import (
    DEFAULT_FREQUENCIES,
    QuasimodeSpec,
    build_quasimode,
    husimi_ball_report,
    loglog_slope,
    nonequidistribution_report,
    residual,
    scmeasure_error,
)

ARNOLD = (2, 1, 1, 1)


def _random_states(rng: np.random.Generator, N: int, count: int) -> np.ndarray:
    s = rng.standard_normal((count, N)) + 1j * rng.standard_normal((count, N))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def criterion_1(seed: int = 0) -> Dict:
    """Propagator unitarity < 1e-10 and Egorov defect < 1e-8, Arnold map."""
    cat = validate_cat_map(*ARNOLD)
    worst_unit = 0.0
    worst_egorov = 0.0
    for N in (482, 1024, 4096):
        grid = choose_theta(cat, N)
        u = propagator(cat, grid)
        rng = np.random.default_rng(seed + N)
        states = _random_states(rng, N, 20)
        for psi in states:
            worst_unit = max(worst_unit, abs(np.linalg.norm(u.apply(psi)) - 1.0))
        worst_egorov = max(worst_egorov, egorov_defect(u, cat, grid, states[:5], 3))
    return {
        "unitarity_defect": worst_unit,
        "egorov_defect": worst_egorov,
        "pass": bool(worst_unit < 1e-10 and worst_egorov < 1e-8),
    }


def criterion_2(seed: int = 0) -> Dict:
    """Translation composition law to 1e-12, 50 random pairs at N = 512."""
    cat = validate_cat_map(*ARNOLD)
    grid = choose_theta(cat, 512)
    rng = np.random.default_rng(seed + 2)
    psi = _random_states(rng, 512, 1)[0]
    worst = 0.0
    for _ in range(50):
        n = tuple(int(v) for v in rng.integers(-8, 9, 2))
        m = tuple(int(v) for v in rng.integers(-8, 9, 2))
        tn, tm = translation(n, grid), translation(m, grid)
        tnm = translation((n[0] + m[0], n[1] + m[1]), grid)
        wedge = n[1] * m[0] - n[0] * m[1]
        phase = np.exp(1j * np.pi * wedge / 512)
        err = np.linalg.norm(tn.apply(tm.apply(psi)) - phase * tnm.apply(psi))
        worst = max(worst, float(err))
    return {"composition_defect": worst, "pass": bool(worst < 1e-12)}


def criterion_3(seed: int = 0) -> Dict:
    """Coherent norm 1 +- 1e-8 at N = 4096; Husimi identity to 0.5% at G = 256."""
    cat = validate_cat_map(*ARNOLD)
    grid = choose_theta(cat, 4096)
    coh = torus_coherent((0.0, 0.0), cat, grid)
    norm_defect = abs(coh.norm2() - 1.0)
    h = husimi(coh, cat, 256)
    ident_coh = abs(h.total() - coh.norm2()) / coh.norm2()
    rng = np.random.default_rng(seed + 3)
    psi = QuantumState(_random_states(rng, 4096, 1)[0], grid)
    h2 = husimi(psi, cat, 256)
    ident_rand = abs(h2.total() - 1.0)
    return {
        "norm_defect": norm_defect,
        "identity_error_coherent": ident_coh,
        "identity_error_random": ident_rand,
        "pass": bool(
            norm_defect < 1e-8 and ident_coh < 0.005 and ident_rand < 0.005
        ),
    }


def criterion_4(seed: int = 0) -> Dict:
    """Unstable-axis Husimi variance matches hbar/(1 - tanh(lambda t)) to 5%."""
    cat = validate_cat_map(*ARNOLD)
    grid = choose_theta(cat, 4096)
    u = propagator(cat, grid)
    lam = cat.lyapunov
    state = torus_coherent((0.0, 0.0), cat, grid)
    rows = []
    ok = True
    amp = state.amplitudes
    for t in range(0, 3):
        if t > 0:
            amp = u.apply(amp)
        h = husimi(QuantumState(amp, grid), cat, 256)
        var_u, var_s = axis_variances(h, cat, (0.0, 0.0))
        theory = grid.hbar / (1.0 - math.tanh(lam * t))
        rel = abs(var_u - theory) / theory
        ok = ok and rel < 0.05
        rows.append({"t": t, "variance": var_u, "theory": theory, "rel_error": rel})
    return {"rows": rows, "pass": bool(ok)}


def criterion_5(seed: int = 0) -> Dict:
    """Orbit counts: divisor identity against {1, 5, 16, 45}; known T=2 orbit."""
    cat = validate_cat_map(*ARNOLD)
    expect_l = {1: 1, 2: 5, 3: 16, 4: 45}
    counts = {}
    ok = True
    for T in range(1, 5):
        l = fixed_point_count(cat, T)
        ok = ok and l == expect_l[T]
        counts[T] = len(enumerate_prime_orbits(cat, T))
    for T in range(1, 5):
        total = sum(s * counts[s] for s in range(1, T + 1) if T % s == 0)
        ok = ok and total == expect_l[T]
    orbits2 = enumerate_prime_orbits(cat, 2)
    found = any(
        {(p.j, p.k) for p in o.points} == {(4, 3), (1, 2)} and o.l == 5
        for o in orbits2
    )
    ok = ok and found
    return {"prime_counts": counts, "t2_orbit_found": found, "pass": bool(ok)}


def _t2_spec(N: int) -> Tuple[QuasimodeSpec, object]:
    cat = validate_cat_map(*ARNOLD)
    grid = choose_theta(cat, N)
    orbit = enumerate_prime_orbits(cat, 2)[0]
    spec = QuasimodeSpec(orbit=orbit, phi=0.0, delta=0.24, grid=grid, catmap=cat)
    return spec, propagator(cat, grid)


def criterion_6(seed: int = 0) -> Dict:
    """Quasimode laws at T=2, N=4096: norm, residual, ball decomposition."""
    spec, prop = _t2_spec(4096)
    psi, psi_n = build_quasimode(spec, prop)
    norm_sq = psi.norm2()
    res = residual(psi_n, 0.0, prop)
    report = husimi_ball_report(psi, spec, G=256)
    masses = report.masses()
    ok = (
        abs(norm_sq - 2.0) <= 0.02
        and res <= math.sqrt(2.0) + 0.01
        and len(masses) == 2
        and all(abs(m - 1.0) <= 0.02 for m in masses)
        and abs(report.off_support) < 1e-6
        and report.disjoint
    )
    return {
        "norm_sq": norm_sq,
        "residual": res,
        "residual_bound": math.sqrt(2.0) + 0.01,
        "ball_masses": masses,
        "off_support": report.off_support,
        "pass": bool(ok),
    }


def criterion_7(seed: int = 0) -> Dict:
    """Semiclassical measure: error <= 0.05 at N=4096 and ladder slope <= -0.16."""
    errors = {}
    for N in (1024, 2048, 4096):
        spec, prop = _t2_spec(N)
        _, psi_n = build_quasimode(spec, prop)
        errors[N] = scmeasure_error(psi_n, spec, DEFAULT_FREQUENCIES, G=256).max_error
    slope = loglog_slope(list(errors), list(errors.values()))
    ok = errors[4096] <= 0.05 and slope <= -(0.5 - 0.24) + 0.1
    return {
        "errors": {str(k): v for k, v in errors.items()},
        "slope": slope,
        "slope_bound": -(0.5 - 0.24) + 0.1,
        "pass": bool(ok),
    }


def criterion_8(seed: int = 0) -> Dict:
    """Non-equidistribution witnesses at T=2, N=4096 (phase and physical)."""
    spec, prop = _t2_spec(4096)
    _, psi_n = build_quasimode(spec, prop)
    h = husimi(psi_n, spec.catmap, 256)
    phase = nonequidistribution_report(psi_n, spec, "phase", 0.1, hgrid=h)
    phys = nonequidistribution_report(psi_n, spec, "physical", 0.05)
    ok = (
        phase.witnesses["hit"]["mass"] >= 0.48
        and phase.witnesses["miss"]["mass"] < 1e-6
        and phys.witnesses["hit"]["mass"] >= 0.48
        and phys.witnesses["miss"]["mass"] < 1e-6
    )
    return {
        "phase_hit": phase.witnesses["hit"]["mass"],
        "phase_miss": phase.witnesses["miss"]["mass"],
        "phase_sup_ratio": phase.sup_ratio,
        "phase_inf_ratio": phase.inf_ratio,
        "physical_hit": phys.witnesses["hit"]["mass"],
        "physical_miss": phys.witnesses["miss"]["mass"],
        "pass": bool(ok),
    }


GAP_SYMBOL = {
    (0, 0): 1.0,
    (1, 0): 0.3,
    (-1, 0): 0.3,
    (0, 1): 0.2,
    (0, -1): 0.2,
    (1, 1): 0.1,
    (-1, -1): 0.1,
}


def criterion_9(seed: int = 0) -> Dict:
    """Weyl/anti-Wick gap log-log slope -1 +- 0.3 over N in {512, 1024, 2048}."""
    cat = validate_cat_map(*ARNOLD)
    sym = Symbol.from_fourier(GAP_SYMBOL, real=True, label="gap-test")
    gaps = {}
    for N in (512, 1024, 2048):
        grid = choose_theta(cat, N)
        gaps[N] = weyl_antiwick_gap(sym, cat, grid, G=256)
    slope = loglog_slope(list(gaps), list(gaps.values()))
    ok = abs(slope - (-1.0)) <= 0.3
    return {
        "gaps": {str(k): v for k, v in gaps.items()},
        "slope": slope,
        "pass": bool(ok),
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_all(seed: int = 0) -> Dict:
    return {f"criterion_{k}": fn(seed) for k, fn in sorted(CRITERIA.items())}


def selftest(seed: int = 0, echo=print) -> Tuple[Dict, bool]:
    """Run criteria 1-9 twice with the same seed; compare serialized bytes."""
    first = run_all(seed)
    second = run_all(seed)
    identical = canonical_json(first) == canonical_json(second)
    for k in sorted(CRITERIA):
        status = "PASS" if first[f"criterion_{k}"]["pass"] else "FAIL"
        echo(f"{status} criterion {k}")
    echo(("PASS" if identical else "FAIL") + " criterion 10 (byte-identical reruns)")
    report = {"criteria": first, "byte_identical": identical, "seed": seed}
    return report, identical and all(first[f"criterion_{k}"]["pass"] for k in CRITERIA)
