import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.chaos import eval_decoupled, eval_undecoupled
from chaoslab.dyadic import StepFunction1D, StepFunction2D, materialize_1d
from chaoslab.errors import QuadratureError
from chaoslab.rearrange import (
    VALUE_SNAP,
    Rearrangement,
    distribution,
    equimeasurable,
    log_distribution_L,
    rearrangement,
)


def single_rademacher():
    return materialize_1d([1.0])


def anchor_merge_oracle(x):
    """Per-atom reference for the snap merge: walk |x| in descending order; a
    value within VALUE_SNAP of the current step's first value joins that step,
    any other value opens a new step."""
    flat = np.abs(x.flat_values())
    vals = flat[np.argsort(flat, kind="stable")[::-1]]
    values: list[float] = []
    counts: list[int] = []
    for v in vals:
        if values and values[-1] - v <= VALUE_SNAP:
            counts[-1] += 1
        else:
            values.append(float(v))
            counts.append(1)
    return np.array(values), np.array(counts, dtype=np.float64) * x.atom_measure


@st.composite
def snap_step_functions(draw):
    """1D or 2D step functions whose atoms repeat values from a pool of random
    values and of clusters chained from gaps of at most VALUE_SNAP each, so a
    cluster can span more than VALUE_SNAP; signs are random."""
    gaps = st.one_of(
        st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)
    ).map(lambda g: g * VALUE_SNAP)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.floats(-50.0, 50.0))
        chain = draw(st.lists(gaps, max_size=12))
        pool.extend((start + np.cumsum([0.0, *chain])).tolist())
    bits = draw(st.integers(0, 7))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2**bits, max_size=2**bits))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2**bits, max_size=2**bits))
    values = np.array(picks) * np.array(signs)
    if draw(st.booleans()):
        return StepFunction1D(n=bits, values=values)
    n = draw(st.integers(0, bits))
    return StepFunction2D(n=n, m=bits - n, values=values.reshape(2**n, 2 ** (bits - n)))


class TestDistribution:
    def test_single_sign(self):
        d = distribution(single_rademacher())
        assert d.at(0.5) == 1.0
        assert d.at(1.0) == 0.0
        assert d.at(0.999999) == 1.0

    def test_all_ones_square(self):
        d = distribution(eval_decoupled(np.ones((2, 2))))
        assert d.at(3.0) == 4.0 / 16.0

    def test_zero_function(self):
        d = distribution(StepFunction1D(n=1, values=np.zeros(2)))
        assert d.at(0.0) == 0.0
        assert d.at(5.0) == 0.0

    def test_monotone(self):
        x = eval_undecoupled(np.ones((4, 4)) - np.eye(4))
        d = distribution(x)
        assert np.all(np.diff(d.measure_above) <= 0)


class TestRearrangement:
    def test_single_sign_constant(self):
        r = rearrangement(single_rademacher())
        assert r.steps == [(1.0, 1.0)]
        assert r.at(0.3) == 1.0
        assert r.at(1.0) == 1.0

    def test_all_ones_off_diagonal(self):
        r = rearrangement(eval_undecoupled(np.ones((3, 3)) - np.eye(3)))
        assert r.steps == [(6.0, 0.25), (2.0, 0.75)]

    def test_block_peak_survives_to_small_mass(self):
        # flipped second block: peak 4 on mass >= 2^-6
        coeffs = np.zeros((4, 4))
        coeffs[2:4, 2:4] = 1.0
        r = rearrangement(eval_decoupled(coeffs))
        assert r.at(2.0**-6) >= 4.0

    def test_consistency_with_distribution(self):
        x = eval_undecoupled(np.ones((4, 4)) - np.eye(4))
        r = rearrangement(x)
        d = distribution(x)
        for v, t in zip(r.values, r.bounds):
            assert d.at(v - 1e-9) >= t > d.at(v)

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        vals = rng.standard_normal(16)
        x = StepFunction1D(n=4, values=vals)
        y = StepFunction1D(n=4, values=vals[rng.permutation(16)])
        assert rearrangement(x).steps == rearrangement(y).steps

    def test_mass_preservation(self):
        rng = np.random.Generator(np.random.Philox(key=22))
        x = StepFunction1D(n=5, values=rng.standard_normal(32))
        r = rearrangement(x)
        assert math.isclose(
            r.integral(), float(np.abs(x.values).mean()), rel_tol=1e-13
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Rearrangement(values=np.array([1.0, 2.0]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Rearrangement(values=np.array([2.0, 1.0]), masses=np.array([0.5, -0.5]))


class TestEquimeasurable:
    def test_different_index_placement(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0  # r_1(s) r_2(t)
        b = np.zeros((3, 3))
        b[2, 0] = 1.0  # r_3(s) r_1(t)
        assert equimeasurable(eval_decoupled(a), eval_decoupled(b))

    def test_scaling_breaks_it(self):
        assert not equimeasurable(
            materialize_1d([1.0]), materialize_1d([2.0])
        )

    def test_across_generations(self):
        fine = materialize_1d([1.0, 0.0, 0.0])
        assert equimeasurable(materialize_1d([1.0]), fine)


class TestSnapMerge:
    """The sorted, diff-based merge against the per-atom anchor loop."""

    @settings(max_examples=300, deadline=None)
    @given(snap_step_functions())
    def test_rearrangement_matches_oracle(self, x):
        values, masses = anchor_merge_oracle(x)
        r = rearrangement(x)
        assert np.array_equal(r.values, values)
        assert np.array_equal(r.masses, masses)

    @settings(max_examples=100, deadline=None)
    @given(snap_step_functions())
    def test_distribution_matches_oracle(self, x):
        values, masses = anchor_merge_oracle(x)
        d = distribution(x)
        assert np.array_equal(d.thresholds, values[::-1])
        above = np.concatenate([[0.0], np.cumsum(masses[:-1])])
        assert np.array_equal(d.measure_above, above[::-1])
        assert d.measure_above[-1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(snap_step_functions(), st.data())
    def test_equimeasurable_matches_oracle(self, x, data):
        # a relabeling with some signs flipped, then possibly one atom nudged
        flat = x.flat_values()
        perm = data.draw(st.permutations(range(flat.size)))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=flat.size, max_size=flat.size))
        vals = flat[list(perm)] * np.array(signs)
        nudge = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e6]))
        vals[0] += nudge * VALUE_SNAP
        y = StepFunction1D(n=x.n + getattr(x, "m", 0), values=vals)
        vx, mx = anchor_merge_oracle(x)
        vy, my = anchor_merge_oracle(y)
        expected = vx.size == vy.size and bool(
            np.all(np.abs(vx - vy) <= VALUE_SNAP) and np.array_equal(mx, my)
        )
        assert equimeasurable(x, y) == expected
        if nudge == 0.0:
            assert expected

    def test_wide_chain_is_split_from_its_anchor(self):
        # 40 values 4e-13 apart span 1.6e-11: every gap is within VALUE_SNAP,
        # but each step may hold only the values within VALUE_SNAP of its first
        chain = 1.0 + 4e-13 * np.arange(40)
        x = StepFunction1D(n=6, values=np.concatenate([chain, -2.0 - np.arange(24)]))
        values, masses = anchor_merge_oracle(x)
        r = rearrangement(x)
        assert np.array_equal(r.values, values)
        assert np.array_equal(r.masses, masses)
        assert r.values.size == 24 + 14  # the chain splits into steps of 3, 3, ..., 1


class TestLogTailMeasure:
    # brackets are the two-sided exponential estimates; the expected values
    # were frozen from an independent quadrature of the section-measure
    # integral min(1, e^(1 - z/ln(e/s))) ds
    FROZEN = {
        1.0: 1.0,
        4.0: 0.348905264651,
        9.0: 0.0595146127893,
        16.0: 0.00918421857726,
        25.0: 0.00137796832936,
    }

    def test_frozen_values(self):
        for z, expected in self.FROZEN.items():
            assert log_distribution_L(z) == pytest.approx(expected, rel=1e-9)

    def test_bracket(self):
        for z in (1.0, 4.0, 9.0, 16.0, 25.0):
            L = log_distribution_L(z, rel_tol=1e-9)
            assert 0.5 * math.exp(-2 * math.sqrt(z) + 2) <= L
            assert L <= 2.0 * math.exp(-math.sqrt(z) + 2)

    def test_strictly_decreasing(self):
        grid = [1.0, 2.0, 4.0, 9.0, 16.0, 25.0]
        vals = [log_distribution_L(z) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            log_distribution_L(0.5)

    def test_against_scipy_oracle(self):
        quad = pytest.importorskip("scipy.integrate").quad

        def oracle(z):
            # section measure over s, split at the kink where the clamp engages
            f = lambda s: min(1.0, math.exp(1.0 - z / math.log(math.e / s)))
            kink = math.exp(1.0 - z)
            return quad(f, 0.0, kink, limit=200)[0] + quad(f, kink, 1.0, limit=200)[0]

        for z in (2.0, 6.5, 12.0):
            assert log_distribution_L(z) == pytest.approx(oracle(z), rel=1e-9)

    @staticmethod
    def u_oracle(z):
        # scipy's quad over u in [1, z], split at the peak u = sqrt(z), with the
        # peak height e^(-2 sqrt z) factored out so that large z keeps its digits
        quad = pytest.importorskip("scipy.integrate").quad
        root = math.sqrt(z)
        f = lambda u: math.exp(2.0 * root - u - z / u)
        parts = [quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                 for a, b in ((1.0, root), (root, z))]
        return math.exp(1.0 - z) + math.exp(2.0 - 2.0 * root) * sum(parts)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_matches_oracle_to_1e12(self, z):
        assert log_distribution_L(z) == pytest.approx(self.u_oracle(z), rel=1e-12, abs=0.0)

    # for z near 4e5 quad flags roundoff at epsrel 1e-13, yet its integral still holds
    # about 1e-13 there (checked against mpmath), and L(z) underflows to 0 anyway
    @pytest.mark.filterwarnings("ignore:The algorithm does not converge")
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e),
        st.floats(min_value=-323.0, max_value=0.0).map(lambda e: 10.0**e),
    )
    def test_returns_or_raises_within_a_second(self, z, rel_tol):
        t0 = time.perf_counter()
        try:
            log_distribution_L(z, rel_tol)
        except QuadratureError as err:
            # subnormal results round to a few units of 5e-324
            assert err.value == pytest.approx(self.u_oracle(z), rel=1e-12, abs=1e-320)
        assert time.perf_counter() - t0 < 1.0

    def test_tolerance_below_roundoff_raises(self):
        with pytest.raises(QuadratureError) as err:
            log_distribution_L(1e4, rel_tol=1e-300)
        assert err.value.achieved_tol >= np.finfo(np.float64).eps
        assert err.value.value == pytest.approx(self.u_oracle(1e4), rel=1e-12, abs=0.0)

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # NumPy loads numpy.polynomial lazily; the quadrature nodes are built on first use
        code = (
            "import sys, chaoslab;"
            "print([m for m in sys.modules if m.startswith('numpy.polynomial')])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
