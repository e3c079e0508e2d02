import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from catlab import PlanckGrid, choose_theta, husimi, torus_coherent, validate_cat_map
from catlab.hilbert import _translation_data


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
    """Entries (a, b, c, d) of every SL(2, Z) map with trace > 2 and
    |entries| <= 5: the hyperbolic maps catlab accepts (it refuses
    trace < -2)."""
    r = range(-5, 6)
    return [
        (a, b, c, d)
        for a in r for b in r for c in r for d in r
        if a * d - b * c == 1 and a + d > 2
    ]


def twisted_grid():
    """Map 2,5,1,3 at N = 600 with theta/pi = (2/3, 4/3).

    The angle is off the parity rule but passes the exact invariance check,
    so the propagator builds there, and a wrapped site's theta1 twist is
    neither 1 nor -1: coherent states, Husimi grids and anti-Wick
    operators agree only if they twist the same way.
    """
    cat = validate_cat_map(2, 5, 1, 3)
    return cat, PlanckGrid(600, (Fraction(2, 3), Fraction(4, 3)))


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


def translation_entries(n, grid):
    """Oracle: the dense matrix of T_N(n), one nonzero per row."""
    n1, phase = _translation_data(n, grid)
    N = grid.N
    T = np.zeros((N, N), dtype=complex)
    rows = np.arange(N)
    T[rows, (rows - n1) % N] = phase
    return T


def propagator_dense(catmap, grid):
    """Oracle: the Gauss-sum kernel of the propagator, assembled densely
    in floats, with no exact phase reduction."""
    a, b, _, d = catmap.entries
    N = grid.N
    eta = grid.eta
    th1 = grid.theta[0]
    absB = abs(b)
    j = np.arange(N)
    xj = j + eta
    U = np.zeros((N, N), dtype=complex)
    for w in range(absB):
        xk = j + eta + N * w
        E = (np.pi / (N * b)) * (
            a * xk[None, :] ** 2 - 2.0 * np.outer(xj, xk) + d * xj[:, None] ** 2
        )
        U += np.exp(1j * E) * np.exp(-1j * th1 * w)
    return U / math.sqrt(N * absB)
