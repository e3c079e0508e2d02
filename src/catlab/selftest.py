"""Acceptance thresholds on catlab's experiments, runnable twice for byte determinism.

Each criterion function returns a plain dict of deterministic values with a
"pass" flag; run_all collects them, and selftest executes the whole bundle
twice with the same seed and compares the serialized bytes.  On the Arnold
map 2,1,1,1 the criteria read these experiments (``catlab`` subcommand):

1. propagator_check (propagator-check) at N = 482, 1024, 4096, 20 states,
   nmax 3, seed ``seed + N``;
4. husimi_width_sweep (sweep --kind husimi-width), t = 0, 1, 2, N = 4096;
6, 8. the norm, residual and ball fields, and the ``nonequi`` block, of
   the run_pipeline report (quasimode) at T = 2, N = 4096;
7. scmeasure_sweep (sweep --kind scmeasure), N = 1024, 2048, 4096, with
   the anti-Wick values in closed form from the state;
9. waw_gap_sweep (sweep --kind waw-gap), N = 512, 1024, 2048, each gap the
   norm of a damped translation sum found by matrix-free Lanczos.

Criteria 2 (translation composition), 3 (coherent normalization and the
Husimi identity) and 5 (orbit counts) have no command-line counterpart
and compute their values here.
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
from .coherent import husimi, torus_coherent
from .hilbert import QuantumState, _norm, choose_theta, random_states, translation
from .io import canonical_json
from .quasimodes import (
    husimi_width_sweep,
    propagator_check,
    run_pipeline,
    scmeasure_sweep,
    waw_gap_sweep,
)

ARNOLD = (2, 1, 1, 1)
DESK_CONFIG = {"matrix": list(ARNOLD), "T": 2, "N": 4096}


def criterion_1(seed: int = 0) -> Dict:
    """Propagator unitarity < 1e-10 and Egorov defect < 1e-8, Arnold map."""
    cat = validate_cat_map(*ARNOLD)
    checks = [propagator_check(cat, N, seed + N, 20, 3) for N in (482, 1024, 4096)]
    worst_unit = max(c["unitarity_defect"] for c in checks)
    worst_egorov = max(c["egorov_defect"] for c in checks)
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
    psi = random_states(rng, 512, 1)[0]
    worst = 0.0
    for _ in range(50):
        n = tuple(int(v) for v in rng.integers(-8, 9, 2))
        m = tuple(int(v) for v in rng.integers(-8, 9, 2))
        tn, tm = translation(n, grid), translation(m, grid)
        tnm = translation((n[0] + m[0], n[1] + m[1]), grid)
        wedge = n[1] * m[0] - n[0] * m[1]
        phase = np.exp(1j * np.pi * wedge / 512)
        err = _norm(tn.apply(tm.apply(psi)) - phase * tnm.apply(psi))
        worst = max(worst, err)
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
    psi = QuantumState(random_states(rng, 4096, 1)[0], grid)
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
    _, table, _ = husimi_width_sweep(validate_cat_map(*ARNOLD), 4096, [0, 1, 2], 256)
    rows = [
        {"t": t, "variance": var_u, "theory": theory, "rel_error": abs(var_u - theory) / theory}
        for t, var_u, _, theory in table
    ]
    return {"rows": rows, "pass": all(row["rel_error"] < 0.05 for row in rows)}


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
        {tuple(x) for x in o.jk.tolist()} == {(4, 3), (1, 2)} and o.l == 5
        for o in orbits2
    )
    ok = ok and found
    return {"prime_counts": counts, "t2_orbit_found": found, "pass": bool(ok)}


def criterion_6(seed: int = 0) -> Dict:
    """Quasimode laws at T=2, N=4096: norm, residual, ball decomposition."""
    report = run_pipeline(DESK_CONFIG).report
    result = {k: report[k] for k in ("norm_sq", "residual", "ball_masses", "off_support")}
    result["residual_bound"] = math.sqrt(2.0) + 0.01
    masses = result["ball_masses"]
    result["pass"] = bool(
        abs(result["norm_sq"] - 2.0) <= 0.02
        and result["residual"] <= result["residual_bound"]
        and len(masses) == 2
        and all(abs(m - 1.0) <= 0.02 for m in masses)
        and abs(result["off_support"]) < 1e-6
    )
    return result


def criterion_7(seed: int = 0) -> Dict:
    """Semiclassical measure: error <= 0.05 at N=4096 and ladder slope <= -0.16."""
    _, rows, slope = scmeasure_sweep(validate_cat_map(*ARNOLD), [1024, 2048, 4096], 2, 0.24)
    errors = {str(N): err for N, _, err in rows}
    ok = errors["4096"] <= 0.05 and slope <= -(0.5 - 0.24) + 0.1
    return {
        "errors": errors,
        "slope": slope,
        "slope_bound": -(0.5 - 0.24) + 0.1,
        "pass": bool(ok),
    }


def criterion_8(seed: int = 0) -> Dict:
    """Non-equidistribution witnesses at T=2, N=4096 (phase and physical)."""
    nonequi = run_pipeline(DESK_CONFIG).report["nonequi"]
    result = {
        f"{space}_{w}": nonequi[space]["witnesses"][w]["mass"]
        for space in ("phase", "physical")
        for w in ("hit", "miss")
    }
    result["phase_sup_ratio"] = nonequi["phase"]["sup_ratio"]
    result["phase_inf_ratio"] = nonequi["phase"]["inf_ratio"]
    result["pass"] = all(
        result[f"{space}_hit"] >= 0.48 and result[f"{space}_miss"] < 1e-6
        for space in ("phase", "physical")
    )
    return result


def criterion_9(seed: int = 0) -> Dict:
    """Weyl/anti-Wick gap log-log slope -1 +- 0.05 over N in {512, 1024, 2048}."""
    _, rows, slope = waw_gap_sweep(validate_cat_map(*ARNOLD), [512, 1024, 2048])
    ok = abs(slope - (-1.0)) <= 0.05
    return {
        "gaps": {str(N): gap for N, _, gap in rows},
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
