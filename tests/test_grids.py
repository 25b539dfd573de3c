"""Sample grids: the standard-library grids reproduce numpy's.

The linear grids must equal numpy.linspace exactly.  The log grid must be
within 2 ulp of numpy.geomspace, whose power function may differ from the
C library's by an ulp, and must keep its endpoints exact.
"""

import math
import random
from types import SimpleNamespace

import numpy as np

from bhthermo.cli import _sweep_grid
from bhthermo.constants import CONSTANTS
from bhthermo.evaporation import mass_history


def seeded_triples(seed, lo, hi, count=300):
    """(start, stop, n) with start and stop log-uniform in [1e{lo}, 1e{hi}]."""
    rng = random.Random(seed)
    return [(10.0 ** rng.uniform(lo, hi), 10.0 ** rng.uniform(lo, hi),
             rng.randint(2, 400)) for _ in range(count)]


def sweep_grid(start, stop, n, spacing):
    return _sweep_grid(SimpleNamespace(start=start, stop=stop, points=n,
                                       spacing=spacing))


def test_linear_grid_equals_numpy():
    for start, stop, n in [
            *seeded_triples(1, -5.0, 40.0),
            (-3.0, 7.5, 11),      # through zero
            (2.5, 2.5, 4),        # zero width
            (0.0, 1e-320, 6)]:    # subnormal width: the step underflows
        assert sweep_grid(start, stop, n, "linear") == \
            np.linspace(start, stop, n).tolist(), (start, stop, n)


def test_log_grid_within_2_ulp_of_numpy():
    # math.log10 is often an ulp off near 1, and raising 10 to the grid
    # magnifies an ulp of an endpoint's logarithm across the grid.
    triples = (seeded_triples(2, -10.0, 10.0, count=200)
               + seeded_triples(3, -5.0, 40.0, count=200)
               + seeded_triples(4, -300.0, 300.0, count=200))
    for start, stop, n in triples:
        grid = sweep_grid(start, stop, n, "log")
        assert len(grid) == n
        assert grid[0] == start and grid[-1] == stop
        for x, y in zip(grid, np.geomspace(start, stop, n).tolist()):
            assert abs(x - y) <= 2 * math.ulp(y), (start, stop, n, x, y)


def test_mass_history_masses_equal_numpy():
    for m0, _, n in seeded_triples(5, -4.0, 40.0, count=100):
        _, masses = mass_history(m0, points=n)
        assert masses == np.linspace(m0, CONSTANTS.planck_mass, n).tolist(), \
            (m0, n)
