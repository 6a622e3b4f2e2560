from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaoslab import dyadic
from chaoslab.dyadic import (
    DyadicPoint,
    StepFunction1D,
    dyadic_add,
    full_sign_matrix,
    linear_forms,
    materialize_1d,
    quadratic_blocks,
    quadratic_form,
    rademacher,
    walsh,
)
from chaoslab.errors import EnumerationCapError, InsufficientPrecisionError


class TestRademacher:
    def test_first_half_positive(self):
        assert rademacher(1, DyadicPoint((0,))) == 1
        assert rademacher(1, DyadicPoint((1,))) == -1

    def test_second_quarter(self):
        # cell (1/4, 1/2) has digits 0,1
        assert rademacher(2, DyadicPoint((0, 1))) == -1

    def test_third_bit(self):
        # cell (5/8, 3/4) = 0.101: third digit is 1
        assert rademacher(3, DyadicPoint((1, 0, 1))) == -1

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecisionError):
            rademacher(3, DyadicPoint((0, 1)))

    def test_constant_on_finer_cells(self):
        # value depends only on bit k: exhaustive over generation k+2
        for k in range(1, 7):
            for idx in range(2 ** (k + 2)):
                p = DyadicPoint.cell(idx, k + 2)
                assert rademacher(k, p) == 1 - 2 * p.bits[k - 1]

    def test_matches_sign_of_sine(self):
        import math

        for k in range(1, 7):
            for idx in range(2**7):
                p = DyadicPoint.cell(idx, 7)
                mid = p.left + 2.0**-8
                assert rademacher(k, p) == (1 if math.sin(2**k * math.pi * mid) > 0 else -1)


class TestWalsh:
    def test_w1_is_one(self):
        for idx in range(8):
            assert walsh(1, DyadicPoint.cell(idx, 3)) == 1

    def test_w2_on_first_quarter(self):
        assert walsh(2, DyadicPoint((0, 0))) == 1

    def test_w4_on_second_quarter(self):
        # w_4 = r_1 r_2, constant on the generation-2 cell (1/4, 1/2)
        assert walsh(4, DyadicPoint((0, 1))) == -1

    def test_orthonormal(self):
        # first 2^k Walsh functions on cells of any generation >= k+1
        for k in range(1, 5):
            for gen in (k + 1, k + 2):
                cells = [DyadicPoint.cell(i, gen) for i in range(2**gen)]
                w = np.array(
                    [[walsh(j, c) for c in cells] for j in range(1, 2**k + 1)],
                    dtype=float,
                )
                gram = (w @ w.T) * 2.0**-gen
                assert np.allclose(gram, np.eye(2**k), atol=1e-15)

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecisionError):
            walsh(3, DyadicPoint((0,)))  # w_3 = r_2 needs two bits


class TestDyadicAdd:
    def test_self_inverse(self):
        s = DyadicPoint((1, 0))
        assert dyadic_add(s, s) == DyadicPoint((0, 0))

    def test_disjoint_bits(self):
        assert dyadic_add(DyadicPoint((1, 0)), DyadicPoint((0, 1))) == DyadicPoint((1, 1))

    def test_precision_mismatch(self):
        with pytest.raises(ValueError):
            dyadic_add(DyadicPoint((1,)), DyadicPoint((1, 0)))

    def test_group_structure(self):
        pts = [DyadicPoint.cell(i, 3) for i in range(8)]
        zero = DyadicPoint((0, 0, 0))
        for s in pts:
            assert dyadic_add(s, zero) == s
            assert dyadic_add(s, s) == zero
            for u in pts:
                assert dyadic_add(s, u) == dyadic_add(u, s)
        # each translation permutes the cells
        for u in pts:
            image = {dyadic_add(s, u) for s in pts}
            assert len(image) == 8

    def test_translation_toggles_exactly_the_set_bits(self):
        # r_k(s + u) = r_k(s) iff bit k of u is 0; exhaustive at precision 8
        for s_idx in range(0, 256, 7):
            s = DyadicPoint.cell(s_idx, 8)
            for u_idx in range(256):
                u = DyadicPoint.cell(u_idx, 8)
                moved = dyadic_add(s, u)
                for k in range(1, 9):
                    same = rademacher(k, moved) == rademacher(k, s)
                    assert same == (u.bits[k - 1] == 0)

    def test_instance_bit_one_fixed(self):
        # moving by u with first digit 0 never changes r_1: all 4x4 cells
        for s_idx in range(4):
            s = DyadicPoint.cell(s_idx, 2)
            for u_idx in range(4):
                u = DyadicPoint.cell(u_idx, 2)
                if u.bits[0] == 0:
                    assert rademacher(1, dyadic_add(s, u)) == rademacher(1, s)


class TestMaterialize:
    def test_single_coefficient(self):
        f = materialize_1d([1.0])
        assert sorted(f.values.tolist()) == [-1.0, 1.0]

    def test_two_coefficients(self):
        f = materialize_1d([1.0, 1.0])
        assert sorted(f.values.tolist()) == [-2.0, 0.0, 0.0, 2.0]

    def test_normalized_four_term_sum(self):
        # distribution of the 4-term sum scaled by 1/2: binomial masses
        f = materialize_1d([0.5] * 4)
        vals, counts = np.unique(f.values, return_counts=True)
        assert vals.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert counts.tolist() == [1, 4, 6, 4, 1]

    def test_weights_sum_to_one(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for n in (1, 3, 7, 10):
            f = materialize_1d(rng.standard_normal(n))
            assert f.values.size * f.atom_measure == 1.0

    def test_value_at_mask_is_signed_sum(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        c = rng.standard_normal(5)
        f = materialize_1d(c)
        signs = full_sign_matrix(5)
        assert np.allclose(f.values, signs @ c, atol=1e-14)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            materialize_1d(np.ones(25))
        materialize_1d(np.ones(25), max_bits=25)  # explicit override works


def concatenation_materialize(c):
    """The former materialize_1d loop: one concatenation per coefficient."""
    vals = np.zeros(1, dtype=np.float64)
    for ci in np.asarray(c, dtype=np.float64):
        vals = np.concatenate([vals + ci, vals - ci])
    return vals


@st.composite
def coefficients(draw, shape):
    """(array, exact): Gaussian at three scales, or small integers / +-1, whose forms are exact."""
    shape = tuple(draw(s) if isinstance(s, st.SearchStrategy) else s for s in shape)
    kind = draw(st.sampled_from(["gauss", "int", "pm1"]))
    if kind == "gauss":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3])), False
    if kind == "int":
        return draw(arrays(np.int64, shape, elements=st.integers(-3, 3))).astype(float), True
    return np.where(draw(arrays(np.bool_, shape)), -1.0, 1.0), True


def assert_forms_match(got, want, exact):
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def sign_table_quadratic(b):
    """eps^T b eps per mask through the full sign table (the former evaluation)."""
    E = full_sign_matrix(b.shape[0])
    return ((E @ b) * E).sum(axis=1)


class TestLinearForms:
    @settings(max_examples=150, deadline=None)
    @given(coefficients((st.integers(1, 10), st.integers(1, 6))))
    def test_matches_sign_table(self, case):
        c, exact = case
        assert_forms_match(linear_forms(c), full_sign_matrix(c.shape[0]) @ c, exact)

    @settings(max_examples=100, deadline=None)
    @given(coefficients((st.integers(1, 10),)))
    def test_materialize_is_bit_identical_to_concatenation(self, case):
        c, _ = case
        want = concatenation_materialize(c)
        assert np.array_equal(materialize_1d(c).values, want)
        assert np.array_equal(linear_forms(c), want)

    @settings(max_examples=50, deadline=None)
    @given(coefficients((st.integers(1, 10), st.integers(1, 6))))
    def test_negated_mask_negates_exactly(self, case):
        v = linear_forms(case[0])
        assert np.array_equal(v[::-1], -v)

    def test_no_variables(self):
        assert np.array_equal(linear_forms(np.zeros((0, 3))), np.zeros((1, 3)))


class TestQuadraticForm:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: coefficients((n, n))))
    def test_matches_sign_table(self, case):
        b, exact = case  # non-symmetric, non-zero diagonal
        assert_forms_match(quadratic_form(b), sign_table_quadratic(b), exact)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: coefficients((n, n))))
    def test_matches_rademacher_brute_force(self, case):
        b, exact = case
        n = b.shape[0]
        want = np.empty(2**n)
        for mask in range(2**n):
            p = DyadicPoint(tuple((mask >> i) & 1 for i in range(n)))
            r = [rademacher(k, p) for k in range(1, n + 1)]
            want[mask] = sum(b[i, j] * r[i] * r[j] for i in range(n) for j in range(n))
        assert_forms_match(quadratic_form(b), want, exact)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: coefficients((n, n))), st.booleans())
    def test_even_under_negation_exactly(self, case, zero_diagonal):
        b = case[0].copy()
        if zero_diagonal:
            np.fill_diagonal(b, 0.0)
        v = quadratic_form(b)
        assert np.array_equal(v, v[::-1])

    def test_diagonal_enters_as_trace(self):
        # non-symmetric with a non-zero diagonal: eps^T b eps = trace + (b01 + b10) e0 e1
        b = np.array([[2.0, 5.0], [-1.0, 3.0]])
        assert quadratic_form(b).tolist() == [9.0, 1.0, 1.0, 9.0]

    def test_no_variables(self):
        assert quadratic_form(np.zeros((0, 0))).tolist() == [0.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: coefficients((n, n))), st.integers(1, 600))
    def test_blocks_tile_the_half(self, case, chunk):
        # blocks of whole rows of at most chunk bytes (one row if it is larger) tile the half
        # eps_n = +1 in mask order, equal bit for bit to the ones computed in place
        b, exact = case
        n = b.shape[0]
        with mock.patch.object(dyadic, "_CHUNK", chunk):
            blocks = list(quadratic_blocks(b))
            v = quadratic_form(b)
        row = 2 ** (n // 2)
        assert all(k.shape[1] == row and k.nbytes <= max(chunk, 8 * row) for k in blocks)
        assert np.array_equal(np.concatenate([k.ravel() for k in blocks]), v[: 2 ** (n - 1)])
        assert_forms_match(v, sign_table_quadratic(b), exact)


class TestSignHelpers:
    def test_mask_roundtrip(self):
        # row ``mask`` of the sign matrix is -1 exactly at the set bits of mask
        for n in range(1, 7):
            signs = full_sign_matrix(n)
            for mask in range(2**n):
                assert signs[mask].tolist() == [-1.0 if mask >> i & 1 else 1.0 for i in range(n)]

    def test_point_mask_matches_rademacher(self):
        # bit i-1 of the mask is the i-th digit of the cell
        for n in range(1, 7):
            signs = full_sign_matrix(n)
            for mask in range(2**n):
                p = DyadicPoint(tuple(mask >> i & 1 for i in range(n)))
                assert signs[mask].tolist() == [rademacher(k, p) for k in range(1, n + 1)]

    def test_step_function_shape_validation(self):
        with pytest.raises(ValueError):
            StepFunction1D(n=2, values=np.zeros(3))
