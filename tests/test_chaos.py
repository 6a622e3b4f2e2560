import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaoslab import chaos
from chaoslab.chaos import (
    apply_signs,
    as_sign_matrix,
    chaos_coefficients,
    decouple_identity_rhs,
    decoupled_law,
    eval_decoupled,
    eval_undecoupled,
    shift_map,
    undecoupled_law,
)
from chaoslab.dyadic import full_sign_matrix
from chaoslab.errors import EnumerationCapError
from chaoslab.extremal import walsh_sign_arrangement
from chaoslab.rearrange import distribution, equimeasurable


def masses(step):
    vals, counts = np.unique(step.flat_values(), return_counts=True)
    return {float(v): c * step.atom_measure for v, c in zip(vals, counts)}


@st.composite
def zero_diagonal(draw, sizes):
    """(b, exact): a square matrix with zero diagonal, Gaussian or small-integer entries."""
    n = draw(sizes)
    if draw(st.booleans()):
        b = draw(arrays(np.int64, (n, n), elements=st.integers(-3, 3))).astype(float)
        exact = True
    else:
        b = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, n))
        exact = False
    np.fill_diagonal(b, 0.0)
    return b, exact


def sign_table_undecoupled(b):
    """sum_{i != j} b_ij eps_i eps_j per mask through the full sign table."""
    E = full_sign_matrix(b.shape[0])
    return ((E @ b) * E).sum(axis=1)


def assert_atoms_match(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


class TestEvalDecoupled:
    def test_rank_one(self):
        x = eval_decoupled([[1.0]])
        assert masses(x) == {1.0: 0.5, -1.0: 0.5}

    def test_all_ones_corner(self):
        x = eval_decoupled(np.ones((2, 2)))
        # the all-plus pair is mask (0, 0)
        assert x.values[0, 0] == 4.0
        assert x.values.max() == 4.0

    def test_identity_coefficients(self):
        x = eval_decoupled([[1.0, 0.0], [0.0, 1.0]])
        assert masses(x) == {2.0: 0.25, 0.0: 0.5, -2.0: 0.25}

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            eval_decoupled(np.ones((14, 14)))

    @pytest.mark.parametrize("shape, bound", [((20, 1), 32), ((1, 20), 32), ((10, 10), 8.2)])
    def test_peak_memory(self, shape, bound):
        # the 2^n x 2^m output (16 MiB at 21 bits, 8 MiB at 20) plus the half forms of the
        # longer axis; a 2^n x n sign table of the long axis peaked near 180 MiB at (20, 1)
        tracemalloc.start()
        try:
            eval_decoupled(np.ones(shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLaws:
    def test_decoupled_law_peaks_at_its_quarter(self):
        # 11x11: the contiguous 2^10 x 2^10 quarter is 8 MiB, the mirrored table 32 MiB
        a = np.random.Generator(np.random.Philox(key=61)).standard_normal((11, 11))
        assert traced_peak(decoupled_law, a) <= 9 * 2**20
        assert traced_peak(eval_decoupled, a) >= 32 * 2**20

    def test_undecoupled_law_peaks_at_its_half(self):
        # n = 20: the 4 MiB half and the split table's factors; eval_undecoupled peaks at 8.3 MiB
        b = np.random.Generator(np.random.Philox(key=60)).standard_normal((20, 20))
        np.fill_diagonal(b, 0.0)
        assert traced_peak(undecoupled_law, b) < 6 * 2**20

    @pytest.mark.parametrize("shape, max_bits", [((4, 3), 6), ((1, 6), 6), ((6, 1), 6)])
    def test_decoupled_cap_counts_every_bit(self, shape, max_bits):
        # the quarter holds n + m - 2 bits, but the cap is on the n + m of the chaos
        a = np.ones(shape)
        for build in (decoupled_law, eval_decoupled):
            with pytest.raises(EnumerationCapError) as err:
                build(a, max_bits)
            assert str(err.value) == f"{shape[0]}x{shape[1]} decoupled sign bits 7 exceeds cap 6"
        assert decoupled_law(np.ones((3, 3)), max_bits).law_atoms()[0].shape == (16,)

    def test_undecoupled_cap_and_validation_are_those_of_eval(self):
        b = np.ones((7, 7)) - np.eye(7)
        for build in (undecoupled_law, eval_undecoupled):
            with pytest.raises(EnumerationCapError, match="^7x7 undecoupled sign bits 7 exceeds cap 6$"):
                build(b, 6)
            with pytest.raises(ValueError, match="diagonal must vanish"):
                build(np.eye(2))
            with pytest.raises(ValueError, match="must be square"):
                build(np.zeros((2, 3)))
        assert undecoupled_law(b[:6, :6], 6).law_atoms()[0].shape == (32,)


class TestEvalUndecoupled:
    def test_single_product(self):
        b = np.zeros((2, 2))
        b[0, 1] = 1.0
        assert masses(eval_undecoupled(b)) == {1.0: 0.5, -1.0: 0.5}

    def test_symmetrized_half(self):
        b = np.zeros((2, 2))
        b[0, 1] = b[1, 0] = 0.5
        assert masses(eval_undecoupled(b)) == {1.0: 0.5, -1.0: 0.5}

    def test_all_ones_off_diagonal(self):
        b = np.ones((3, 3)) - np.eye(3)
        assert masses(eval_undecoupled(b)) == {6.0: 0.25, -2.0: 0.75}

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal must vanish"):
            eval_undecoupled(np.eye(2))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            eval_undecoupled(np.zeros((2, 3)))

    @settings(max_examples=150, deadline=None)
    @given(zero_diagonal(st.integers(1, 10)))
    def test_matches_sign_table(self, case):
        b, exact = case
        got = eval_undecoupled(b)
        assert got.values.shape == (2 ** b.shape[0],)
        assert_atoms_match(got.values, sign_table_undecoupled(b), exact)
        assert np.array_equal(got.values, got.values[::-1])  # x(-eps) == x(eps)

    def test_peak_memory_at_20(self):
        # the 8 MiB output (its blocks are computed in place) plus the factors of the split
        # table, 8.3 MiB; the per-variable doubling peaked at 16 MiB and the 2^20 x 20 sign-table
        # product near 488 MiB
        b = np.random.Generator(np.random.Philox(key=60)).standard_normal((20, 20))
        np.fill_diagonal(b, 0.0)
        tracemalloc.start()
        try:
            eval_undecoupled(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestDecouplingIdentity:
    def test_hand_case(self):
        b = np.zeros((2, 2))
        b[0, 1] = 1.0
        lhs = eval_undecoupled(b)
        rhs = decouple_identity_rhs(b, 2)
        assert np.array_equal(lhs.values, rhs.values)

    def test_zero(self):
        rhs = decouple_identity_rhs(np.zeros((3, 3)), 3)
        assert np.all(rhs.values == 0.0)

    def test_random_n5(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(10):
            b = rng.standard_normal((5, 5))
            np.fill_diagonal(b, 0.0)
            lhs = eval_undecoupled(b)
            rhs = decouple_identity_rhs(b, 5)
            assert np.abs(lhs.values - rhs.values).max() <= 1e-12

    def test_random_up_to_n8(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        for n in range(2, 9):
            b = rng.standard_normal((n, n))
            np.fill_diagonal(b, 0.0)
            lhs = eval_undecoupled(b)
            rhs = decouple_identity_rhs(b, n)
            assert np.abs(lhs.values - rhs.values).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(zero_diagonal(st.integers(1, 8)))
    def test_matches_sign_table(self, case):
        b, exact = case
        rhs = decouple_identity_rhs(b, b.shape[0])
        assert_atoms_match(rhs.values, sign_table_undecoupled(b), exact)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_integer_coefficients_bit_exact(self, n):
        rng = np.random.Generator(np.random.Philox(key=13))
        b = rng.integers(-4, 5, size=(n, n)).astype(float)
        np.fill_diagonal(b, 0.0)
        assert np.array_equal(decouple_identity_rhs(b, n).values, eval_undecoupled(b).values)

    def test_subset_cap(self):
        with pytest.raises(EnumerationCapError):
            decouple_identity_rhs(np.zeros((13, 13)), 13)

    def test_independent_of_quadratic_form(self, monkeypatch):
        # the right-hand side checks eval_undecoupled, so it must not share its kernel
        rng = np.random.Generator(np.random.Philox(key=14))
        b = rng.integers(-4, 5, size=(6, 6)).astype(float)
        np.fill_diagonal(b, 0.0)
        lhs = eval_undecoupled(b).values

        def unavailable(_):
            raise AssertionError("decouple_identity_rhs called quadratic_form")

        monkeypatch.setattr(chaos, "quadratic_form", unavailable)
        assert np.array_equal(decouple_identity_rhs(b, 6).values, lhs)


class TestApplySigns:
    def test_identity_and_negation(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(apply_signs(a, np.ones((2, 3))), a)
        assert np.array_equal(apply_signs(a, -np.ones((2, 3))), -a)

    def test_involution(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        a = rng.standard_normal((3, 4))
        theta = np.where(rng.random((3, 4)) < 0.5, -1.0, 1.0)
        assert np.array_equal(apply_signs(apply_signs(a, theta), theta), a)

    def test_block_signs_recover_walsh_pattern(self):
        theta = walsh_sign_arrangement(2)
        assert np.array_equal(apply_signs(np.ones((4, 4)), theta), theta)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_signs(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            as_sign_matrix(np.array([[0.5, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            as_sign_matrix(np.array([[1.0, -1.0], [1.0, 1.0]]), symmetric=True)


class TestChaosCoefficients:
    def test_recovers_unit_coefficient(self):
        x = eval_decoupled([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(chaos_coefficients(x, 2, 2), [[0.0, 1.0], [0.0, 0.0]])

    def test_constant_function_projects_to_zero(self):
        from chaoslab.dyadic import StepFunction2D

        x = StepFunction2D(n=2, m=2, values=np.ones((4, 4)))
        assert np.all(chaos_coefficients(x, 2, 2) == 0.0)

    def test_roundtrip_random(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        a = rng.standard_normal((3, 3))
        x = eval_decoupled(a)
        assert np.abs(chaos_coefficients(x, 3, 3) - a).max() <= 1e-12

    def test_generation_too_small(self):
        x = eval_decoupled(np.ones((2, 2)))
        with pytest.raises(ValueError, match="generation too small"):
            chaos_coefficients(x, 3, 2)


class TestShiftMap:
    def test_single_entry(self):
        b = shift_map([[1.0]], 1)
        assert b.shape == (2, 2)
        assert b[0, 1] == 1.0 and b.sum() == 1.0
        assert masses(eval_undecoupled(b)) == {1.0: 0.5, -1.0: 0.5}

    def test_random_equimeasurable(self):
        rng = np.random.Generator(np.random.Philox(key=15))
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            assert equimeasurable(
                eval_decoupled(a), eval_undecoupled(shift_map(a, 3))
            )

    def test_all_ones_peak(self):
        a = np.ones((2, 2))
        und = eval_undecoupled(shift_map(a, 2))
        dec = eval_decoupled(a)
        assert und.values.max() == 4.0 == dec.values.max()
        # the peak level set is at least one corner cell of measure 1/16
        d = distribution(und)
        assert d.at(3.0) >= 1.0 / 16.0
        assert d.at(3.0) == distribution(dec).at(3.0)


class TestIndexRelabeling:
    def test_distribution_depends_only_on_block(self):
        rng = np.random.Generator(np.random.Philox(key=16))
        block = rng.standard_normal((2, 3))
        a1 = np.zeros((6, 8))
        a1[np.ix_([0, 4], [1, 2, 7])] = block
        a2 = np.zeros((9, 10))
        a2[np.ix_([3, 8], [0, 5, 9])] = block
        assert equimeasurable(eval_decoupled(a1), eval_decoupled(a2))
