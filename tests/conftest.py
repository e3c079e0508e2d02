import numpy as np
import pytest

from catlab import choose_theta, torus_coherent, validate_cat_map


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


def random_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    amp /= np.linalg.norm(amp)
    from catlab import QuantumState

    return QuantumState(amp, grid)


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
