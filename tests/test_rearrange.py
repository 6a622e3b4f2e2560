import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab.chaos import eval_decoupled, eval_undecoupled
from chaoslab.dyadic import StepFunction1D, StepFunction2D, materialize_1d
from chaoslab.rearrange import (
    BLOCK,
    VALUE_SNAP,
    Distribution,
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
    cluster can span more than VALUE_SNAP, or else take distinct values; signs
    are random."""
    gaps = st.one_of(
        st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)
    ).map(lambda g: g * VALUE_SNAP)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.floats(-50.0, 50.0))
        chain = draw(st.lists(gaps, max_size=12))
        pool.extend((start + np.cumsum([0.0, *chain])).tolist())
    bits = draw(st.integers(0, 7))
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(pool), min_size=2**bits, max_size=2**bits))
    else:  # distinct |values|, gaps above VALUE_SNAP: every atom is its own step
        wide = st.floats(1.5, 1e12).map(lambda g: g * VALUE_SNAP)
        chain = draw(st.lists(wide, min_size=2**bits - 1, max_size=2**bits - 1))
        start = draw(st.floats(0.0, 50.0))
        picks = draw(st.permutations((start + np.cumsum([0.0, *chain])).tolist()))
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

    @pytest.mark.parametrize("law", ["ties", "distinct"])
    def test_bit_identical_to_the_concatenated_form(self, law):
        # measure_above is written back to front into one buffer; the bits are those of
        # reversing [0, cumsum(masses[:-1])], on a law of 3 blocks and more
        rng = np.random.Generator(np.random.Philox(key=24))
        if law == "ties":
            x = eval_decoupled(rng.integers(-2, 3, (8, 9)).astype(float))
        else:
            x = StepFunction1D(n=15, values=rng.standard_normal(2**15))
        r = rearrangement(x)
        assert (r.values.size > 3 * BLOCK) == (law == "distinct")
        d = distribution(x)
        above = np.concatenate([[0.0], np.cumsum(r.masses[:-1])])
        assert d.thresholds.tobytes() == r.values[::-1].tobytes()
        assert d.measure_above.tobytes() == above[::-1].tobytes()
        assert d.thresholds.flags.c_contiguous and d.measure_above.flags.c_contiguous

    @pytest.mark.parametrize("thresholds, above", [
        ([1.0, 1.0], [0.5, 0.0]),
        ([2.0, 1.0], [0.5, 0.0]),
        ([1.0, math.nan], [0.5, 0.0]),
        ([1.0, 2.0], [0.0, 0.5]),
    ], ids=["tie", "decreasing", "nan", "rising-mass"])
    def test_validation(self, thresholds, above):
        with pytest.raises(ValueError):
            Distribution(thresholds=np.array(thresholds), measure_above=np.array(above))


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

    @pytest.mark.parametrize("kind", ["distinct", "tied", "tenth"])
    def test_at_and_bounds_agree_with_one_cumsum(self, kind):
        # a law of distinct values has one power-of-two weight broadcast, and its bounds take
        # the closed form; tied atoms, and a broadcast weight of 0.1, take the cumsum
        rng = np.random.Generator(np.random.Philox(key=24))
        if kind == "tenth":
            r = Rearrangement(values=np.linspace(2.0, 1.0, 10), masses=np.broadcast_to(0.1, 10))
        else:
            values = rng.standard_normal(2**15)
            r = rearrangement(StepFunction1D(n=15, values=values if kind == "distinct" else np.round(8 * values)))
        assert (r._power_of_two_weight() is not None) == (kind == "distinct")
        cumsum = np.cumsum(r.masses)
        assert r.bounds.tobytes() == cumsum.tobytes()
        picks = cumsum[:: max(1, cumsum.size // 50)]
        ts = np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, 2.0), rng.uniform(0.0, 1.0, 50)])
        for t in ts[(ts > 0.0) & (ts <= cumsum[-1])].tolist() + [float(cumsum[-1])]:
            k = min(int(np.searchsorted(cumsum, t, side="left")), r.values.size - 1)
            assert r.at(t) == r.values[k]
        with pytest.raises(ValueError):
            r.at(float(cumsum[-1]) + 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Rearrangement(values=np.array([1.0, 2.0]), masses=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Rearrangement(values=np.array([2.0, 1.0]), masses=np.array([0.5, -0.5]))

    @pytest.mark.parametrize("values, masses", [
        ([math.inf, math.inf], [0.5, 0.5]),
        ([1.0, 1.0], [0.5, 0.5]),
        ([math.nan, 1.0], [0.5, 0.5]),
        ([2.0, math.nan], [0.5, 0.5]),
        ([math.nan], [1.0]),
        ([2.0, 1.0], [0.5, math.nan]),
        ([2.0, 1.0], [0.5, 0.0]),
    ], ids=["inf-tie", "tie", "nan-first", "nan-last", "nan-only", "nan-mass", "zero-mass"])
    def test_validation_rejects_unordered_and_nan(self, values, masses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected by the checks, not by a RuntimeWarning
            with pytest.raises(ValueError):
                Rearrangement(values=np.array(values), masses=np.array(masses))

    @pytest.mark.parametrize("weight", [math.nan, 0.0, -0.0, -2.0**-20])
    def test_validation_rejects_a_bad_broadcast_weight(self, weight):
        # one weight broadcast over every step is checked once, at its first step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="masses must be positive"):
                Rearrangement(values=np.linspace(2.0, 1.0, 2**18), masses=np.broadcast_to(weight, 2**18))

    @pytest.mark.parametrize("place", [0, 7])
    def test_nan_step_function_rejected(self, place):
        values = np.arange(8.0)
        values[place] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            rearrangement(StepFunction1D(n=3, values=values))


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

    @staticmethod
    def one_pass(x, y):
        """The whole-law comparison: value gaps within VALUE_SNAP and masses equal."""
        rx, ry = rearrangement(x), rearrangement(y)
        return rx.values.size == ry.values.size and bool(
            np.all(np.abs(rx.values - ry.values) <= VALUE_SNAP) and np.array_equal(rx.masses, ry.masses)
        )

    @pytest.mark.parametrize("kind, expected", [
        ("permuted", True),
        ("nudged-within-snap", True),
        ("nudged-past-snap", False),
        ("tied-permuted", True),
        ("tied-atom-moved", False),
    ])
    def test_across_blocks_as_one_pass(self, kind, expected):
        # 2^15 atoms, distinct (four blocks of steps) or each value twice (two blocks); the
        # change sits at the smallest values, in the last block
        rng = np.random.Generator(np.random.Philox(key=26))
        if kind.startswith("tied"):
            values = rng.permutation(np.repeat(rng.standard_normal(2**14), 2))
        else:
            values = rng.standard_normal(2**15)
        other = rng.permutation(values) * rng.choice([-1.0, 1.0], values.size)
        order = np.argsort(np.abs(other))
        if kind.startswith("nudged"):
            other[order[0]] += math.copysign((0.5 if kind == "nudged-within-snap" else 2.0) * VALUE_SNAP, other[order[0]])
        if kind == "tied-atom-moved":  # a step of 2 atoms loses one to the step above it
            other[order[0]] = other[order[2]]
        x, y = StepFunction1D(n=15, values=values), StepFunction1D(n=15, values=other)
        assert equimeasurable(x, y) == self.one_pass(x, y) == expected

    def test_peak_is_the_two_sorts_and_a_block(self):
        # both sort buffers are kept as the values of a distinct law; the gaps go through one
        # block buffer, where the whole-law comparison held 4 law sizes
        rng = np.random.Generator(np.random.Philox(key=27))
        values = rng.standard_normal(2**16)
        x = StepFunction1D(n=16, values=values)
        y = StepFunction1D(n=16, values=values[rng.permutation(values.size)])
        equimeasurable(x, y)
        tracemalloc.start()
        try:
            assert equimeasurable(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * values.nbytes + 2 * BLOCK * 8 + 4096


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

    def test_distinct_law_across_drop_blocks(self):
        # 2^15 distinct Gaussian atoms span the drop test's block seams; each is its own step
        rng = np.random.Generator(np.random.Philox(key=23))
        x = StepFunction1D(n=15, values=rng.standard_normal(2**15))
        values, masses = anchor_merge_oracle(x)
        r = rearrangement(x)
        assert r.values.size == 2**15
        assert np.array_equal(r.values, values)
        assert np.array_equal(r.masses, masses)

    def test_one_close_pair_at_the_seam(self):
        # the same law with sorted positions 2^14 - 1 and 2^14 moved 0.5 VALUE_SNAP apart:
        # only the drop test sees them merge, and that one pair leaves the one-atom path
        rng = np.random.Generator(np.random.Philox(key=23))
        mags = np.sort(np.abs(rng.standard_normal(2**15)))[::-1]
        mags[2**14] = mags[2**14 - 1] - 0.5 * VALUE_SNAP
        x = StepFunction1D(n=15, values=rng.permutation(mags) * rng.choice([-1.0, 1.0], 2**15))
        values, masses = anchor_merge_oracle(x)
        r = rearrangement(x)
        assert r.values.size == 2**15 - 1
        assert np.array_equal(r.values, values)
        assert np.array_equal(r.masses, masses)

    @pytest.mark.parametrize("seed", range(3))
    def test_runs_across_drop_blocks(self, seed):
        # 2^15 atoms: drops are cut in blocks of BLOCK sorted values, and a sub-VALUE_SNAP
        # chain with exact ties (steps 0, 0.3 or 0.9 VALUE_SNAP) spans the seams between them
        rng = np.random.default_rng(seed)
        steps = rng.choice([0.0, 0.3, 0.9], 12000) * VALUE_SNAP
        vals = np.concatenate([np.full(10000, 3.0), 2.0 + np.cumsum(steps), np.ones(2**15 - 22000)])
        x = StepFunction1D(n=15, values=rng.permutation(vals) * rng.choice([-1.0, 1.0], 2**15))
        values, masses = anchor_merge_oracle(x)
        r = rearrangement(x)
        assert np.array_equal(r.values, values)
        assert np.array_equal(r.masses, masses)


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
            L = log_distribution_L(z)
            assert 0.5 * math.exp(-2 * math.sqrt(z) + 2) <= L
            assert L <= 2.0 * math.exp(-math.sqrt(z) + 2)

    def test_strictly_decreasing(self):
        grid = [1.0, 2.0, 4.0, 9.0, 16.0, 25.0]
        vals = [log_distribution_L(z) for z in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            log_distribution_L(0.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_nan_and_inf_rejected(self, z):
        with pytest.raises(ValueError, match="finite and >= 1"):
            log_distribution_L(z)

    def test_huge_z_underflows_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_distribution_L(1e300) == 0.0

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
    @example(751.90625)  # an adaptive stopping test once halted at 2 panels here, 4.7e-11 off
    def test_matches_oracle_to_1e12(self, z):
        assert log_distribution_L(z) == pytest.approx(self.u_oracle(z), rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e))
    def test_returns_within_a_second(self, z):
        t0 = time.perf_counter()
        log_distribution_L(z)
        assert time.perf_counter() - t0 < 1.0

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
