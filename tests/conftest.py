import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from catlab import PlanckGrid, choose_theta, husimi, torus_coherent, validate_cat_map


@pytest.fixture(scope="session")
def arnold():
    return validate_cat_map(2, 1, 1, 1)


@pytest.fixture(scope="session")
def grid1024(arnold):
    return choose_theta(arnold, 1024)


@pytest.fixture(scope="session")
def grid4096(arnold):
    return choose_theta(arnold, 4096)


def hyperbolic_maps():
    """Entries (a, b, c, d) of every hyperbolic SL(2, Z) map with |entries| <= 5."""
    r = range(-5, 6)
    return [
        (a, b, c, d)
        for a in r for b in r for c in r for d in r
        if a * d - b * c == 1 and abs(a + d) > 2
    ]


def twisted_grid():
    """Map 2,5,1,3 at N = 600 with theta/pi = (2/3, 4/3).

    The angle is off the parity rule but passes the exact invariance check,
    so the propagator builds there, and a wrapped site's theta1 twist is
    neither 1 nor -1: coherent states, Husimi grids and anti-Wick
    operators agree only if they twist the same way.
    """
    cat = validate_cat_map(2, 5, 1, 3)
    theta_over_pi = (Fraction(2, 3), Fraction(4, 3))
    grid = PlanckGrid(600, tuple(math.pi * float(f) for f in theta_over_pi), theta_over_pi)
    return cat, grid


def random_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    amp /= np.linalg.norm(amp)
    from catlab import QuantumState

    return QuantumState(amp, grid)


def coarse_husimi(psi, catmap, G):
    """husimi on a grid chosen below sqrt(2 pi N), its resolution warning
    silenced."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Husimi grid G=", UserWarning)
        return husimi(psi, catmap, G)


def husimi_slow(psi, catmap, G):
    """Oracle: Husimi by direct overlaps against torus coherent states."""
    N = psi.grid.N
    vals = np.empty((G, G))
    for a in range(G):
        for b in range(G):
            x = ((a + 0.5) / G, (b + 0.5) / G)
            coh = torus_coherent(x, catmap, psi.grid)
            vals[a, b] = N * abs(coh.inner(psi)) ** 2
    return vals
