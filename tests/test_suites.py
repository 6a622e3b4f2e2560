"""The suites' closed forms against the direct computations they replace."""

import math

import pytest

from chaoslab.suites import clt_kolmogorov_distance


def _kolmogorov_by_masses(n: int) -> float:
    """The distance from a dict of the masses of |S_n|, summed over all n + 1 binomial terms."""
    den = 2**n
    masses = {}  # |n - 2b| -> integer numerator
    for b in range(n + 1):
        key = abs(n - 2 * b)
        masses[key] = masses.get(key, 0) + math.comb(n, b)
    keys = sorted(masses)
    tail_above = {}  # key -> #atoms with |n - 2b| > key
    running = 0
    for key in reversed(keys):
        tail_above[key] = running
        running += masses[key]

    def gauss_tail(z: float) -> float:
        return math.erfc(z / math.sqrt(2.0))

    dist = abs((running - masses.get(0, 0)) / den - 1.0)
    for key in keys:
        if key == 0:
            continue
        z = key / math.sqrt(n)
        above = tail_above[key] / den
        below = (tail_above[key] + masses[key]) / den
        dist = max(dist, abs(above - gauss_tail(z)), abs(below - gauss_tail(z)))
    return dist


def test_clt_kolmogorov_distance_matches_the_mass_table():
    for n in range(2, 201, 2):
        assert clt_kolmogorov_distance(n) == _kolmogorov_by_masses(n), n


@pytest.mark.parametrize("n", [0, 3, -2])
def test_clt_kolmogorov_distance_needs_positive_even_n(n):
    with pytest.raises(ValueError, match="positive even"):
        clt_kolmogorov_distance(n)
