"""The law layer reads eval_* outputs from their representative atoms only.

``eval_decoupled`` is odd in each axis's signs and ``eval_undecoupled`` is even,
so a quarter (decoupled) or half (undecoupled) of the atoms carries the law of
|x|.  Every law function must give what it gives on a plain step function with
the same values, which reads all atoms.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab.chaos import decoupled_law, eval_decoupled, eval_undecoupled, undecoupled_law
from chaoslab.dyadic import StepFunction1D, StepFunction2D, full_sign_matrix
from chaoslab.rearrange import distribution, rearrangement
from chaoslab.spaces import evaluate_norm, exp_moment, lp_norm, parse_space

KINDS = ("gaussian", "integer", "sign", "near_tie")


def coefficients(kind, shape, seed):
    """Gaussian, small-integer (heavy ties), +-1, or multiples of 1e-13 (chains of
    gaps below VALUE_SNAP that span more than it, so steps are re-split from their anchors)."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "integer":
        return rng.integers(-3, 4, shape).astype(float)
    if kind == "sign":
        return rng.choice([-1.0, 1.0], shape)
    return rng.integers(-20, 21, shape) * 1e-13


@st.composite
def decoupled_cases(draw):
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return coefficients(draw(st.sampled_from(KINDS)), (n, m), draw(st.integers(0, 2**32 - 1)))


@st.composite
def undecoupled_cases(draw):
    n = draw(st.integers(1, 10))
    b = coefficients(draw(st.sampled_from(KINDS)), (n, n), draw(st.integers(0, 2**32 - 1)))
    np.fill_diagonal(b, 0.0)
    return b


# eval_* output and a plain step function on the same values, which reads every atom
CHAOS_PAIRS = st.one_of(
    decoupled_cases().map(eval_decoupled).map(
        lambda x: (x, StepFunction2D(n=x.n, m=x.m, values=x.values))
    ),
    undecoupled_cases().map(eval_undecoupled).map(
        lambda x: (x, StepFunction1D(n=x.n, values=x.values))
    ),
)


class TestEvalOutputs:
    @settings(max_examples=150, deadline=None)
    @given(decoupled_cases())
    @example(coefficients("gaussian", (1, 7), 1))
    @example(coefficients("near_tie", (7, 1), 2))
    def test_decoupled_mirror_odd_and_exact(self, a):
        v = eval_decoupled(a).values
        assert np.array_equal(v[::-1], -v)
        assert np.array_equal(v[:, ::-1], -v)
        oracle = full_sign_matrix(a.shape[0]) @ a @ full_sign_matrix(a.shape[1]).T
        if np.array_equal(a, np.round(a)):  # integer and +-1 sums are exact in any order
            assert np.array_equal(v, oracle)
        assert np.abs(v - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(undecoupled_cases())
    def test_undecoupled_mirror_even(self, b):
        v = eval_undecoupled(b).values
        assert np.array_equal(v[::-1], v)

    def test_fields_are_those_of_plain_step_functions(self):
        names = [f.name for f in dataclasses.fields(eval_decoupled(np.ones((2, 3))))]
        assert names == ["n", "m", "values"]
        names = [f.name for f in dataclasses.fields(eval_undecoupled(np.zeros((3, 3))))]
        assert names == ["n", "values"]


@st.composite
def law_path_cases(draw):
    """(coefficients, decoupled): n x m for 1 <= n, m <= 9 either way round, or n x n with a
    zero diagonal, of every kind, times a random scale."""
    decoupled = draw(st.booleans())
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9)) if decoupled else n
    a = coefficients(draw(st.sampled_from(KINDS)), (n, m), draw(st.integers(0, 2**32 - 1)))
    a *= draw(st.floats(1e-200, 1e200))
    if not decoupled:
        np.fill_diagonal(a, 0.0)
    return a, decoupled


SPACES = ("lp:1", "lp:2.5", "lp:inf", "orlicz-exp", "marc:0.25", "lorentz:1.5")


class TestLawPath:
    """``decoupled_law`` and ``undecoupled_law`` build only the atoms ``eval_*`` read their law
    from, through the same builders, so every law and norm is the same bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(law_path_cases())
    @example((coefficients("gaussian", (1, 9), 3), True))
    @example((coefficients("near_tie", (9, 1), 4), True))
    @example((coefficients("gaussian", (3, 8), 5), True))
    @example((np.zeros((1, 1)), False))
    def test_atoms_and_weight_are_those_of_eval(self, case):
        a, decoupled = case
        atoms, weight = (decoupled_law if decoupled else undecoupled_law)(a).law_atoms()
        want, want_weight = (eval_decoupled if decoupled else eval_undecoupled)(a).law_atoms()
        assert atoms.shape == (want.size,) and atoms.flags.c_contiguous
        assert np.array_equal(atoms, want.reshape(-1))
        assert weight == want_weight

    @settings(max_examples=100, deadline=None)
    @given(law_path_cases())
    def test_every_space_is_equal(self, case):
        a, decoupled = case
        law = (decoupled_law if decoupled else undecoupled_law)(a)
        x = (eval_decoupled if decoupled else eval_undecoupled)(a)
        for text in SPACES:
            spec = parse_space(text)
            assert evaluate_norm(spec, law) == evaluate_norm(spec, x), text


class TestLawMatchesAllAtoms:
    @settings(max_examples=200, deadline=None)
    @given(CHAOS_PAIRS)
    def test_rearrangement_bit_identical(self, pair):
        x, plain = pair
        got, want = rearrangement(x), rearrangement(plain)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.masses, want.masses)

    @settings(max_examples=200, deadline=None)
    @given(CHAOS_PAIRS)
    def test_distribution_bit_identical(self, pair):
        x, plain = pair
        got, want = distribution(x), distribution(plain)
        assert np.array_equal(got.thresholds, want.thresholds)
        assert np.array_equal(got.measure_above, want.measure_above)

    @settings(max_examples=150, deadline=None)
    @given(CHAOS_PAIRS, st.sampled_from([1, 2.5, 4, 400, math.inf]))
    def test_lp_norm_agrees(self, pair, q):
        x, plain = pair
        assert math.isclose(lp_norm(x, q), lp_norm(plain, q), rel_tol=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(CHAOS_PAIRS, st.sampled_from([0.5, 2.0, 30.0]))
    def test_exp_moment_agrees(self, pair, c):
        x, plain = pair
        top = float(np.abs(x.values).max())
        u = c / top if top > 0 else c
        assert math.isclose(exp_moment(x, u), exp_moment(plain, u), rel_tol=1e-13)


def test_law_reads_under_half_a_copy():
    """Each law reduction on 2^18 atoms allocates under half a copy of x and leaves x unchanged.

    Small-integer coefficients keep the rearrangement's own output small; reading
    every atom takes at least one copy of |x|.
    """
    a = np.random.Generator(np.random.Philox(key=34)).integers(-3, 4, (9, 9)).astype(float)
    x = eval_decoupled(a)
    before = x.values.copy()
    for fn, arg in ((rearrangement, None), (lp_norm, 4.0), (exp_moment, 0.18)):
        tracemalloc.start()
        try:
            fn(x) if arg is None else fn(x, arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.values.nbytes, fn.__name__
    assert np.array_equal(x.values, before)
