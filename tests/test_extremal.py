import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chaoslab.chaos import decouple_identity_rhs, eval_decoupled, eval_undecoupled
from chaoslab.dyadic import (
    DyadicPoint,
    full_sign_matrix,
    linear_forms,
    materialize_1d,
    quadratic_form,
    walsh,
)
from chaoslab import dyadic, extremal
from chaoslab.errors import EnumerationCapError
from chaoslab.extremal import (
    exact_average,
    exhaustive_inf,
    monte_carlo_average,
    sidon_defect,
    sup_norm_decoupled,
    sup_norm_undecoupled,
    theorem7_witness,
    walsh_sign_arrangement,
)
from chaoslab.rearrange import rearrangement
from chaoslab.spaces import quasinorm_phi_eps

WALSH_K2 = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def brute_sup_decoupled(a):
    """Independent oracle: maximum of |eps . (A delta)| over every sign pair."""
    a = np.asarray(a, dtype=float)
    E = full_sign_matrix(a.shape[0])
    D = full_sign_matrix(a.shape[1])
    return float(np.abs(E @ a @ D.T).max())


def brute_sup_by_columns(a):
    """Second oracle, cheap when columns are few: max over delta of sum_i |(A delta)_i|."""
    D = full_sign_matrix(np.asarray(a).shape[1])
    return float(np.abs(np.asarray(a, dtype=float) @ D.T).sum(axis=0).max())


@st.composite
def sign_matrices(draw, rows, cols):
    shape = (draw(rows), draw(cols))
    return np.where(draw(arrays(np.bool_, shape)), -1.0, 1.0)


def brute_sup_undecoupled(b):
    b = np.asarray(b, dtype=float)
    E = full_sign_matrix(b.shape[0])
    return float(np.abs(np.einsum("ci,ij,cj->c", E, b, E)).max())


class TestSupNormDecoupled:
    def test_all_ones(self):
        for n in (1, 2, 3):
            assert sup_norm_decoupled(np.ones((n, n))) == n * n

    def test_walsh_two(self):
        assert sup_norm_decoupled(np.array([[1.0, 1.0], [1.0, -1.0]])) == 2.0

    def test_oracle_equivalence_real(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            assert abs(sup_norm_decoupled(a) - brute_sup_decoupled(a)) <= 1e-12

    def test_oracle_equivalence_signs(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        for _ in range(25):
            theta = np.where(rng.random((5, 5)) < 0.5, -1.0, 1.0)
            assert sup_norm_decoupled(theta) == brute_sup_decoupled(theta)

    def test_rectangular(self):
        rng = np.random.Generator(np.random.Philox(key=43))
        a = rng.standard_normal((3, 5))
        assert abs(sup_norm_decoupled(a) - brute_sup_decoupled(a)) <= 1e-12

    def test_flip_and_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=44))
        a = rng.standard_normal((4, 4))
        base = sup_norm_decoupled(a)
        flipped = a.copy()
        flipped[2, :] *= -1.0
        assert sup_norm_decoupled(flipped) == pytest.approx(base, rel=1e-13)
        flipped = a.copy()
        flipped[:, 1] *= -1.0
        assert sup_norm_decoupled(flipped) == pytest.approx(base, rel=1e-13)
        perm = a[rng.permutation(4), :][:, rng.permutation(4)]
        assert sup_norm_decoupled(perm) == pytest.approx(base, rel=1e-13)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            sup_norm_decoupled(np.ones((31, 31)))

    def test_tall_scans_short_axis(self):
        # 2^39 row sign vectors would pass the cap; the transpose needs 4
        a = np.random.Generator(np.random.Philox(key=48)).standard_normal((40, 3))
        assert abs(sup_norm_decoupled(a) - sup_norm_decoupled(a.T)) <= 1e-12 * sup_norm_decoupled(a.T)
        theta = np.where(np.random.Generator(np.random.Philox(key=49)).random((26, 3)) < 0.5, -1.0, 1.0)
        assert sup_norm_decoupled(theta) == sup_norm_decoupled(theta.T) == brute_sup_by_columns(theta)

    def test_matches_materialized_sup(self):
        # second route: materialize the full step function and take max |value|
        rng = np.random.Generator(np.random.Philox(key=47))
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            direct = float(np.abs(eval_decoupled(a).values).max())
            assert abs(sup_norm_decoupled(a) - direct) <= 1e-12


def brute_sign_scan(cols, n):
    """Oracle for ``_sign_scan``: |S theta|_1 over the sign vectors S with eps_0 = +1, per matrix."""
    signs = full_sign_matrix(n)[::2]
    bits = (cols[:, None, :] >> np.arange(n, dtype=np.uint64)[None, :, None]) & np.uint64(1)
    return np.array([np.abs(signs @ (1.0 - 2.0 * b)).sum(axis=1).max() for b in bits])


@st.composite
def mask_stacks(draw, rows=st.integers(1, 18), count=st.integers(1, 40), cols=st.integers(1, 20)):
    """(cols, n): a stack of random column-mask matrices, by default up to 40 of them
    with n in 1..18 rows and 1..20 columns."""
    n = draw(rows)
    shape = (draw(count), draw(cols))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**64 - 1))))
    return rng.integers(0, 2**n, size=shape, dtype=np.uint64), n


class TestSignScanKernel:
    """Every +-1 route through the sign-scan kernel against GEMM oracles."""

    @settings(max_examples=150, deadline=None)
    @given(sign_matrices(st.integers(1, 10), st.integers(1, 10)))
    def test_sup_matches_brute(self, theta):
        want = brute_sup_decoupled(theta)
        assert brute_sup_by_columns(theta) == want
        assert sup_norm_decoupled(theta) == want

    @settings(max_examples=20, deadline=None)
    @given(sign_matrices(st.integers(18, 20), st.just(18)))
    # equal columns peak only at eps = +-column: here the last low and high rows
    @example(np.where(np.arange(18)[:, None] > 0, -1.0, 1.0) * np.ones((1, 18)))
    def test_sup_across_sign_chunks(self, theta):
        # the short side of 18 splits into 2^8 low and 2^9 high rows, paired in several blocks
        assert split_block_count(2**8, 2**9, theta.shape[0]) >= 2
        assert sup_norm_decoupled(theta) == brute_sup_by_columns(theta)

    def test_exact_average_n3(self):
        sups = [
            brute_sup_decoupled(
                np.array([[1.0 - 2.0 * ((code >> (i * 3 + j)) & 1) for j in range(3)]
                          for i in range(3)])
            )
            for code in range(512)
        ]
        rep = exact_average(3)
        assert rep.samples == 512
        assert rep.value == float(np.mean(sups))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_monte_carlo_matches_redrawn_stream(self, seed):
        # documented stream: Philox keyed by seed, (samples, n) column masks,
        # bit i of a mask set where row i of that column is -1
        n, samples = 5, 50
        rng = np.random.Generator(np.random.Philox(key=seed))
        cols = rng.integers(0, 2**n, size=(samples, n), dtype=np.uint64)
        rows = np.arange(n, dtype=np.uint64)[None, :, None]
        thetas = 1.0 - 2.0 * ((cols[:, None, :] >> rows) & np.uint64(1))
        sups = np.abs(full_sign_matrix(n) @ thetas).sum(axis=2).max(axis=1)
        rep = monte_carlo_average(n, samples, seed)
        assert rep.value == float(sups.mean())
        assert rep.stddev == float(sups.std(ddof=1))

    @settings(max_examples=60, deadline=None)
    @given(mask_stacks())
    # one block holds all 5 matrices, fewer than its 16 high rows: the high rows innermost
    @example((np.arange(40, dtype=np.uint64).reshape(5, 8) % 128, 8))
    # one block holds all 40 matrices, more than its 32 high rows: the matrices innermost
    @example((np.arange(120, dtype=np.uint64).reshape(40, 3) * 7 % 256, 9))
    # 2^16 pairs of 12 columns per matrix: the blocks split one matrix's low masks
    @example((np.arange(36, dtype=np.uint64).reshape(3, 12) * 4099 % 2**17, 17))
    def test_stacks_match_brute(self, case):
        cols, n = case
        assert np.array_equal(extremal._sign_scan(cols, n), brute_sign_scan(cols, n))

    def test_sums_past_each_accumulator(self):
        # sups of 128 overflow int8 and sups above 32767 int16, from stacks and single matrices
        all_plus = np.zeros((1, 32), dtype=np.uint64)
        assert extremal._sign_scan(all_plus, 4)[0] == extremal._sign_scan(all_plus[:, :8], 16)[0] == 128
        assert sup_norm_decoupled(np.ones((2, 20000))) == 40000
        rng = np.random.Generator(np.random.Philox(key=53))
        theta = np.where(rng.random((9, 4000)) < 0.02, -1.0, 1.0)
        want = float(np.abs(full_sign_matrix(9) @ theta).sum(axis=1).max())
        assert want > 2**15
        assert sup_norm_decoupled(theta) == want


@st.composite
def scan_inputs(draw, rows, cols):
    """(matrix, exact): Gaussian, small-integer or +-1 entries; the last two are exact."""
    shape = (draw(rows), draw(cols))
    kind = draw(st.sampled_from(["gauss", "int", "pm1"]))
    if kind == "gauss":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3])), False
    if kind == "int":
        return draw(arrays(np.int64, shape, elements=st.integers(-3, 3))).astype(float), True
    return draw(sign_matrices(st.just(shape[0]), st.just(shape[1]))), True


def assert_scan_matches(got, want, exact):
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want


def split_block_count(rows_lo, rows_hi, pair_bytes):
    """Blocks of at most _CHUNK bytes that a split scan of one matrix runs, each pairing a
    run of low rows with every high row at ``pair_bytes`` per pair."""
    return -(-rows_lo // max(1, extremal._CHUNK // (rows_hi * pair_bytes)))


class TestSplitScans:
    """Meet-in-the-middle scans of real matrices against the brute oracles."""

    @settings(max_examples=150, deadline=None)
    @given(scan_inputs(st.integers(1, 9), st.integers(1, 9)))
    @example((np.array([[2.5, -1.0, 0.5]]), False))  # n = 1: the high half is one zero row
    @example((np.array([[3.0], [-1.0], [2.0], [0.0], [1.0]]), True))  # odd n, m = 1
    def test_decoupled_matches_brute(self, case):
        a, exact = case
        assert_scan_matches(sup_norm_decoupled(a), brute_sup_decoupled(a), exact)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: scan_inputs(st.just(n), st.just(n))))
    @example((np.array([[-1.5]]), False))
    # non-zero diagonal, no symmetry: each cross pair enters once, as b_ij + b_ji
    @example((np.array([[2.0, 1.0, 0.0], [-3.0, -1.0, 2.0], [1.0, 0.0, 1.0]]), True))
    def test_undecoupled_matches_brute(self, case):
        b, exact = case
        assert_scan_matches(sup_norm_undecoupled(b), brute_sup_undecoupled(b), exact)

    @settings(max_examples=60, deadline=None)
    @given(
        scan_inputs(st.integers(2, 8), st.integers(1, 6)),
        mask_stacks(st.integers(2, 12), st.integers(1, 5), st.integers(1, 6)),
        st.integers(1, 600),
    )
    def test_small_blocks_cover_every_pair(self, case, stack, chunk):
        # a budget of at most 600 bytes splits even small scans and stacks into many uneven
        # blocks, of one or several matrices, low rows and table runs
        a, exact = case
        cols, n = stack
        k = min(a.shape)
        square = a[:k, :k]
        with mock.patch.object(extremal, "_CHUNK", chunk), mock.patch.object(dyadic, "_CHUNK", chunk):
            dec = sup_norm_decoupled(a)
            und = sup_norm_undecoupled(square)
            stacked = extremal._sign_scan(cols, n)
        assert_scan_matches(dec, brute_sup_decoupled(a), exact)
        assert_scan_matches(und, brute_sup_undecoupled(square), exact)
        assert np.array_equal(stacked, brute_sign_scan(cols, n))

    def test_decoupled_spans_several_blocks(self):
        # the short side of 18 columns splits into 2^8 low and 2^9 high rows of 19 doubles
        rng = np.random.Generator(np.random.Philox(key=50))
        a = rng.standard_normal((19, 18))
        assert split_block_count(2**8, 2**9, 19 * 8) >= 2
        assert_scan_matches(sup_norm_decoupled(a), brute_sup_by_columns(a), False)
        ints = rng.integers(-4, 5, size=(19, 18)).astype(float)
        assert sup_norm_decoupled(ints) == brute_sup_by_columns(ints)

    def test_undecoupled_spans_several_blocks(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        b = rng.standard_normal((18, 18))
        assert split_block_count(2**8, 2**9, 8) >= 2
        assert_scan_matches(sup_norm_undecoupled(b), brute_sup_undecoupled(b), False)
        ints = rng.integers(-2, 3, size=(18, 18)).astype(float)
        assert sup_norm_undecoupled(ints) == brute_sup_undecoupled(ints)

    @pytest.mark.parametrize(
        "scan, signs",
        [(sup_norm_decoupled, False), (sup_norm_decoupled, True), (sup_norm_undecoupled, False)],
        ids=["sup_norm_decoupled", "sup_norm_decoupled_pm1", "sup_norm_undecoupled"],
    )
    def test_peak_memory_at_22(self, scan, signs):
        # the split tables, their copies sorted by row norm and one block stay under 2 MiB
        # (README "Caps"); a full 2^21-row sign table is 45 MiB
        a = np.random.Generator(np.random.Philox(key=52)).standard_normal((22, 22))
        if signs:
            a = np.where(a < 0, -1.0, 1.0)
        # the decoupled scan pairs 2^10 low rows with 2^11 high rows in several blocks, so it sorts
        assert split_block_count(2**10, 2**11, 22 * (1 if signs else 8)) >= 2
        tracemalloc.start()
        try:
            scan(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def half_tables(a):
    """(low, high) float (columns, rows) tables of ``sup_norm_decoupled``: the column sums of
    the two row halves of the shorter axis, eps_0 = +1 in the low half."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] > a.shape[1]:
        a = a.T
    h = a.shape[0] // 2
    return linear_forms(a[:h])[::2].T, linear_forms(a[h:]).T


def pair_table_max(low, high):
    """Reference for the pair kernel: the full (low, high) pair table, |L_j + H_j| summed
    column by column in order, as the kernel sums every pair it scores."""
    total = np.zeros((low.shape[1], high.shape[1]))
    for lj, hj in zip(low, high):
        total += np.abs(lj[:, None] + hj[None, :])
    return total.max()


@st.composite
def near_tie_matrices(draw):
    """Real, +-1 or small-integer matrices, some with duplicated and negated columns, rows
    scaled by powers of two or entries near 1e+-200, so many pairs tie or nearly tie."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = {
        "gauss": lambda: rng.standard_normal((n, m)),
        "pm1": lambda: np.where(rng.random((n, m)) < 0.5, -1.0, 1.0),
        "int": lambda: rng.integers(-3, 4, (n, m)).astype(float),
    }[draw(st.sampled_from(["gauss", "pm1", "int"]))]()
    if draw(st.booleans()):
        a = np.hstack([a, -a[:, ::-1]])
    if draw(st.booleans()):
        a = a * 2.0 ** rng.integers(-3, 4, (n, 1))
    return a * draw(st.sampled_from([1.0, 1.0, 1e-200, 1e200]))


class TestPrunedPairScan:
    """The pair kernel scores only pairs whose row norms can beat the best score so far, and
    returns bit for bit the max over the full pair table."""

    @settings(max_examples=200, deadline=None)
    @given(near_tie_matrices(), st.integers(16, 4096))
    @example(np.zeros((8, 8)), 64)
    @example(np.ones((8, 8)), 64)  # every block after the first prunes
    @example(walsh_sign_arrangement(4), 4096)  # few prune
    def test_bit_identical_to_full_pair_table(self, a, chunk):
        # budgets of at most 4 KiB split the pairs of one matrix into several blocks at n <= 12
        with mock.patch.object(extremal, "_CHUNK", chunk):
            got = sup_norm_decoupled(a)
        assert got == pair_table_max(*half_tables(a))

    @settings(max_examples=60, deadline=None)
    @given(mask_stacks(st.integers(2, 12), st.integers(1, 4), st.integers(1, 8)), st.integers(16, 4096))
    def test_stacks_bit_identical(self, stack, chunk):
        cols, n = stack
        bits = (cols[:, :, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        thetas = 1.0 - 2.0 * bits.transpose(0, 2, 1)  # (matrices, n, columns)
        with mock.patch.object(extremal, "_CHUNK", chunk):
            got = extremal._sign_scan(cols, n)
        assert got.tolist() == [pair_table_max(*half_tables(t)) for t in thetas]

    @pytest.mark.parametrize(
        "a, kind, blocks",
        [(np.ones((8, 8)), float, 1), (np.zeros((8, 8)), float, 1), (WALSH_K2, float, 2), (WALSH_K2, np.int8, 1)],
        ids=["ones", "zero", "walsh-real", "walsh-int8"],
    )
    def test_blocks_scored(self, a, kind, blocks):
        # one low row a block.  All ones: every later low row has la + max hb below the first
        # block's 64, and zero: every bound is 0, so every later block prunes.  Every pair of
        # the 4x4 Walsh tables has la + hb = 8, its sup: a real table keeps such a tie within
        # its rounding slack, an integer table prunes it exactly.
        low, high = (np.ascontiguousarray(t, dtype=kind)[:, None] for t in half_tables(a))
        n = None if kind is float else a.shape[0]
        with (
            mock.patch.object(extremal, "_CHUNK", low.shape[0] * low.itemsize * high.shape[2]),
            mock.patch.object(np, "add", wraps=np.add) as add,
        ):
            got = extremal._pair_max(low, high, n)
        assert add.call_count == blocks
        assert got[0] == pair_table_max(low[:, 0], high[:, 0])

    def test_block_bound_reads_its_largest_low_row(self):
        # two low rows a block: after the first block's 12, the block (5, 1) still pairs 5
        # with the high row 10, where 5 + 10 = 15 > 12 although 1 + 10 does not beat 12
        low = np.array([[[-12, -11, 5, 1]]], dtype=np.int8)
        high = np.array([[[10, 0]]], dtype=np.int8)
        with mock.patch.object(extremal, "_CHUNK", 4):
            assert extremal._pair_max(low, high, 22)[0] == 15

    def test_rounding_slack_keeps_a_pair_above_its_bound(self):
        # the pair (l, h) sums to 2 + 2^-50, above its computed bound la + hb = 2 + 2^-51,
        # which the first block's row (2 + 2^-51, 0, 0) already scores: only the slack keeps it
        u = 2.0**-53
        low = np.array([[2 + 4 * u, 0.0, 0.0], [2 * u, 1.0, -1.0]]).T[:, None]
        high = np.array([[0.0, 1.75 * u, -1.25 * u], [0.0, 0.0, 0.0]]).T[:, None]
        with mock.patch.object(extremal, "_CHUNK", 3 * 8 * 2):
            got = extremal._pair_max(low, high)[0]
        assert got == pair_table_max(low[:, 0], high[:, 0]) == 2 + 8 * u

    def test_one_live_pair_sums_in_order(self):
        # one low row a block.  The first block's best is |-1.1 w|_1; the second low row 0.5 w
        # can beat it only with the high row w.  Their 15 small columns, 1.5 * 2^-54 each, are
        # below half an ulp of 1.5, so summed column by column the score is 1.5; NumPy's
        # pairwise sum of a lone pair adds them up first and gives more.
        w = np.array([1.0] + [2.0**-54] * 15)
        low = np.stack([-1.1 * w, 0.5 * w], axis=1)[:, None]
        high = np.stack([w, np.zeros(16)], axis=1)[:, None]
        assert np.add.reduce(np.abs(low[:, 0, 1] + high[:, 0, 0])) > 1.5  # pairwise
        with mock.patch.object(extremal, "_CHUNK", 16 * 8 * 2):
            assert extremal._pair_max(low, high)[0] == pair_table_max(low[:, 0], high[:, 0]) == 1.5


def half_rows(n):
    """(low rows, high rows) of an n-row sign scan: eps_0 = +1 halves the low table."""
    h = n // 2
    return max(1, 2**h // 2), 2 ** (n - h)


def block_shapes(add):
    """(columns, matrices, low rows, high rows) of each block that a spy on ``np.add`` saw."""
    return [np.broadcast_shapes(lo.shape, hi.shape) for (lo, hi), _ in add.call_args_list]


@st.composite
def stacks_around_the_high_rows(draw):
    """(cols, n, chunk): hrows - 1, hrows or hrows + 1 random n-row matrices of 1..8 columns,
    n in 1..12, and a budget of 1..count * lrows + 1 (matrix, low row) pairs a block plus a few
    spare bytes.  When all the matrices fit one run, a block of hrows + 1 of them takes every
    matrix before a second low row, and so splits the low rows when the budget falls short."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    lrows, hrows = half_rows(n)
    count = max(1, hrows + draw(st.integers(-1, 1)))
    fill = draw(st.integers(1, count * lrows + 1))
    chunk = m * hrows * fill + draw(st.integers(0, m * hrows - 1))
    rng = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**64 - 1))))
    return rng.integers(0, 2**n, size=(count, m), dtype=np.uint64), n, chunk


class TestStackBlocks:
    """A stack with more matrices than high rows fills a block with matrices first; integer
    scores are summed in int8 runs of 127 // n columns."""

    @settings(max_examples=80, deadline=None)
    @given(stacks_around_the_high_rows())
    # 5 matrices over 4 high rows, one block of all 5 per low row: the low rows split
    @example((np.arange(15, dtype=np.uint64).reshape(5, 3), 4, 3 * 4 * 5))
    def test_counts_around_the_high_rows(self, case):
        cols, n, chunk = case
        with mock.patch.object(extremal, "_CHUNK", chunk):
            got = extremal._sign_scan(cols, n)
        assert np.array_equal(got, brute_sign_scan(cols, n))

    def test_a_block_takes_every_matrix_before_a_second_low_row(self):
        # 9 matrices over 8 high rows at n = 6: each of the 4 low rows is one block of all 9
        n, m, count = 6, 5, 9
        lrows, hrows = half_rows(n)
        cols = np.random.Generator(np.random.Philox(key=54)).integers(
            0, 2**n, size=(count, m), dtype=np.uint64)
        with (
            mock.patch.object(extremal, "_CHUNK", m * hrows * count),
            mock.patch.object(np, "add", wraps=np.add) as add,
        ):
            got = extremal._sign_scan(cols, n)
        assert block_shapes(add) == [(m, count, 1, hrows)] * lrows
        assert np.array_equal(got, brute_sign_scan(cols, n))

    def test_a_block_of_several_matrices_does_not_prune(self):
        # 5 matrices over 4 high rows at n = 4, one low row a block.  Matrix 0 (all +1) scores
        # its max 4 m in the first block, where every later bound falls short; the others peak
        # only at the second low row, eps = (+, -, +, +), so pruning by matrix 0's bounds
        # would leave them at 2 m
        n, m = 4, 3
        cols = np.array([[0] * m] + [[2] * m] * 4, dtype=np.uint64)
        with mock.patch.object(extremal, "_CHUNK", m * 4 * 5):
            got = extremal._sign_scan(cols, n)
        assert got.tolist() == brute_sign_scan(cols, n).tolist() == [4 * m] * 5

    @pytest.mark.parametrize("n", range(1, 23))
    def test_all_ones_at_the_int8_run_edge(self, n):
        # every column of an all-ones matrix scores n, so the sup is n m; m = g - 1 and g sum
        # in one int8 run (n m <= 127, an int8 accumulator), g + 1 and 2 g + 1 in two and
        # three.  A budget of 32 MiB makes every scan one block, summed in runs
        g = 127 // n
        count = half_rows(n)[1] + 1 if n <= 8 else 1  # more matrices than high rows at n <= 8
        with mock.patch.object(extremal, "_CHUNK", 2**25):
            for m in (g - 1, g, g + 1, 2 * g + 1):
                stack = extremal._sign_scan(np.zeros((count, m), dtype=np.uint64), n)
                assert stack.tolist() == [n * m] * count
                assert sup_norm_decoupled(np.ones((n, m))) == n * m

    @pytest.mark.parametrize(
        "scan, n, m",
        [(lambda: extremal._sign_scan(STACK_12, 12), 12, 12),
         (lambda: monte_carlo_average(16, 2000, 55), 16, 16)],
        ids=["sign_scan_n12_4096", "monte_carlo_n16_2000"],
    )
    def test_peak_memory_of_stack_scans(self, scan, n, m):
        # the half tables of one run of matrices and at most two blocks' worth besides: the
        # wider blocks keep the byte budget
        lrows, hrows = half_rows(n)
        run = extremal._CHUNK // (m * hrows)
        budget = m * run * (lrows + hrows) + 2 * extremal._CHUNK
        monte_carlo_average(4, 4, 0)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


STACK_12 = np.random.Generator(np.random.Philox(key=56)).integers(
    0, 2**12, size=(4096, 12), dtype=np.uint64)


@st.composite
def pruned_scan_inputs(draw):
    """(a, chunk): an n x n matrix, n in 17..22, and a block budget of ``_CHUNK``, one table
    row of the undecoupled scan, or 4 KiB.  Entries are +-1, small integers or Gaussian, or
    the matrix is one where many scores tie: diagonal (every eps^T b eps is the trace),
    all-ones, rank-one or Hadamard; all scaled by 2^-1000, 1 or 2^1000.  At n >= 17 both
    scans span several blocks at every budget, and the two smaller budgets make one-row
    blocks of the decoupled pair scan and would make them of the undecoupled one."""
    n = draw(st.integers(17, 22))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = {
        "pm1": lambda: np.where(rng.random((n, n)) < 0.5, -1.0, 1.0),
        "int": lambda: rng.integers(-3, 4, (n, n)).astype(float),
        "gauss": lambda: rng.standard_normal((n, n)),
        "diagonal": lambda: np.diag(rng.standard_normal(n)),
        "ones": lambda: np.ones((n, n)),
        "rank1": lambda: np.outer(rng.standard_normal(n), rng.standard_normal(n)),
        "hadamard": lambda: walsh_sign_arrangement(5)[:n, :n],
    }[draw(st.sampled_from(["pm1", "int", "gauss", "diagonal", "ones", "rank1", "hadamard"]))]()
    chunk = draw(st.sampled_from([extremal._CHUNK, 8 * 2 ** (n // 2), 2**12]))
    return a * draw(st.sampled_from([2.0**-1000, 1.0, 2.0**1000])), chunk


class TestPrunedScans:
    """Both sup scans prune by a bound on each pair's score and size every block by its live
    prefix; they return bit for bit the max over every pair or table entry."""

    @settings(max_examples=40, deadline=None)
    @given(pruned_scan_inputs())
    # a budget of one table row: with one-row blocks, which NumPy multiplies by gemv, this
    # scan's max would be one ulp off the table's
    @example((np.random.Generator(np.random.Philox(key=80)).standard_normal((18, 18)), 8 * 2**9))
    def test_undecoupled_is_the_unpruned_max(self, case):
        b, chunk = case
        zero = b.copy()
        np.fill_diagonal(zero, 0.0)
        with mock.patch.object(extremal, "_CHUNK", chunk):
            got, got_zero = sup_norm_undecoupled(b), sup_norm_undecoupled(zero)
        assert got == float(np.abs(quadratic_form(b)).max())
        assert got_zero == float(np.abs(eval_undecoupled(zero).values).max())

    @settings(max_examples=25, deadline=None)
    @given(pruned_scan_inputs())
    def test_decoupled_is_the_full_pair_table_max(self, case):
        a, chunk = case
        with mock.patch.object(extremal, "_CHUNK", chunk):
            got = sup_norm_decoupled(a)
        assert got == pair_table_max(*half_tables(a))

    @pytest.mark.parametrize("n", [26, 28])
    def test_undecoupled_at_the_top_of_the_cap(self, n):
        b = np.random.Generator(np.random.Philox(key=58)).standard_normal((n, n))
        assert sup_norm_undecoupled(b) == max(float(np.abs(k).max()) for k in dyadic.quadratic_blocks(b))

    def test_undecoupled_blocks_are_whole_gemm_tiles(self):
        # a budget of one table row: every block still multiplies two rows at least, by a
        # prefix of whole 8-column tiles, as a one-row product (gemv) or a narrow tail tile may
        # sum an entry's terms in another order
        n = 20
        b = np.random.Generator(np.random.Philox(key=59)).standard_normal((n, n))
        np.fill_diagonal(b, 0.0)
        with (
            mock.patch.object(extremal, "_CHUNK", 8 * 2 ** (n // 2)),
            mock.patch.object(np, "matmul", wraps=np.matmul) as matmul,
        ):
            got = sup_norm_undecoupled(b)
        shapes = [(left.shape[0], right.shape[1]) for (left, right), _ in matmul.call_args_list]
        assert len(shapes) > 1
        assert all(rows >= 2 and cols % 8 == 0 for rows, cols in shapes)
        assert got == float(np.abs(eval_undecoupled(b).values).max())

    def test_rounding_slack_keeps_an_entry_above_its_bound(self):
        # the factors of n = 6 (left rows w = +++, -++, +-+, --+) cut to two columns, with
        # u = 2^-53.  The entry of row --+ (qw = u) and column 0 sums to 1 + 6u, above its
        # computed bound alpha + beta = u + (1 + 4u), which rounds to 1 + 4u, the first
        # block's best: only the slack keeps it
        u = 2.0**-53
        left = np.column_stack([full_sign_matrix(3)[:4], [-4 * u, 0.0, 6 * u, u], np.ones(4)])
        right = np.array([[-1 - 2 * u, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2 * u, 0.0]])
        with (
            mock.patch.object(extremal, "_CHUNK", 16),
            mock.patch.object(extremal, "quadratic_factors", lambda b: (left, right)),
        ):
            got = sup_norm_undecoupled(np.zeros((6, 6)))
        assert got == float(np.abs(left @ right).max()) == 1 + 6 * u

    @pytest.mark.parametrize("n", [24, 28])
    def test_undecoupled_peak_memory(self, n):
        # the sign table, the factors and their sorted copies, and one block: 2.2 MiB at 24 and
        # 8.2 MiB at 28, where the table it scans is 64 MiB and 1 GiB
        h = n // 2
        signs = 8 * (n - h) * 2 ** (n - h)
        factors = 8 * (n - h + 2) * (2 ** (n - h - 1) + 2**h)
        b = np.random.Generator(np.random.Philox(key=60)).standard_normal((n, n))
        sup_norm_undecoupled(np.ones((3, 3)))  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            sup_norm_undecoupled(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (signs + factors) + extremal._CHUNK


class TestStaircase:
    """The block rule both pruned scans share."""

    def test_unpruned_runs_fill_the_budget(self):
        # 12 pairs a block over 4 high rows: 3 low rows a block; a remainder shorter than
        # ``least`` joins the block before it
        assert list(extremal._staircase(10, 4, 12)) == [(0, 3, 4), (3, 6, 4), (6, 9, 4), (9, 10, 4)]
        assert list(extremal._staircase(10, 4, 12, least=2)) == [(0, 3, 4), (3, 6, 4), (6, 10, 4)]
        assert list(extremal._staircase(3, 8, 4, least=2)) == [(0, 3, 8)]

    def test_pruned_blocks_end_at_the_live_rows(self):
        la = np.array([10.0, 8.0, 7.0, 5.0, 1.0])
        hb = np.array([6.0, 4.0, 3.0, 1.0] + [0.0] * 12)
        best = np.array([12.5])
        # after the first block, low row 7 pairs with high row 6 alone and low row 5 with
        # none: one live high row, and the block ends at the last low row that can beat 12.5.
        # With 8-row tiles and two low rows at least, the remainder of one row joins it
        blocks = list(extremal._staircase(5, 16, 32, (la, hb, 1.0, best)))
        assert blocks == [(0, 2, 16), (2, 3, 1)]
        assert list(extremal._staircase(5, 16, 32, (la, hb, 1.0, best), tile=8, least=2)) == [
            (0, 2, 16), (2, 5, 8)]

    def test_reads_best_as_the_scan_raises_it(self):
        la, hb = np.array([4.0, 3.0, 2.0, 1.0]), np.array([4.0, 3.0, 2.0, 1.0])
        best = np.zeros(1)
        blocks = []
        for block in extremal._staircase(4, 4, 4, (la, hb, 1.0, best)):
            blocks.append(block)
            best[0] = 6.5  # scored by the first block: only la + hb > 6.5 stays live
        assert blocks == [(0, 1, 4), (1, 2, 1)]


class TestSupNormUndecoupled:
    def test_all_ones_with_diagonal(self):
        assert sup_norm_undecoupled(np.ones((2, 2))) == 4.0

    def test_pure_off_diagonal_pair(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert sup_norm_undecoupled(b) == 2.0

    def test_oracle_equivalence(self):
        rng = np.random.Generator(np.random.Philox(key=45))
        for _ in range(20):
            b = rng.standard_normal((4, 4))
            assert abs(sup_norm_undecoupled(b) - brute_sup_undecoupled(b)) <= 1e-12

    def test_never_exceeds_decoupled(self):
        rng = np.random.Generator(np.random.Philox(key=46))
        for _ in range(20):
            theta = np.triu(np.where(rng.random((4, 4)) < 0.5, -1.0, 1.0))
            theta = theta + np.triu(theta, 1).T
            assert sup_norm_undecoupled(theta) <= sup_norm_decoupled(theta)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda n: scan_inputs(st.just(n), st.just(n))),
           st.sampled_from([dyadic._CHUNK, 2**8]))
    def test_matches_materialized_sup(self, case, chunk):
        # both read the blocks of quadratic_blocks, so they agree bit for bit, also when
        # 256-byte blocks split the table into single rows
        b = case[0].copy()
        np.fill_diagonal(b, 0.0)
        with mock.patch.object(dyadic, "_CHUNK", chunk):
            assert sup_norm_undecoupled(b) == float(np.abs(eval_undecoupled(b).values).max())

    def test_triangular_half_of_symmetric_signs(self):
        # for symmetric signs the off-diagonal sum is twice its i<j half,
        # so restricting the summation only rescales the sup
        rng = np.random.Generator(np.random.Philox(key=49))
        for _ in range(10):
            theta = np.triu(np.where(rng.random((5, 5)) < 0.5, -1.0, 1.0), 1)
            theta = theta + theta.T
            half = sup_norm_undecoupled(np.triu(theta, 1))
            assert sup_norm_undecoupled(theta) == 2.0 * half


class TestWalshArrangement:
    def test_small_matrices(self):
        assert walsh_sign_arrangement(0).tolist() == [[1.0]]
        assert walsh_sign_arrangement(1).tolist() == [[1.0, 1.0], [1.0, -1.0]]
        assert np.array_equal(walsh_sign_arrangement(2), WALSH_K2)

    def test_sup_values(self):
        assert sup_norm_decoupled(walsh_sign_arrangement(0)) == 1.0
        assert sup_norm_decoupled(walsh_sign_arrangement(1)) == 2.0
        assert sup_norm_decoupled(walsh_sign_arrangement(2)) == 8.0

    def test_bound_through_k4(self):
        for k in range(5):
            phi = sup_norm_decoupled(walsh_sign_arrangement(k))
            assert phi <= 2.0 ** (1.5 * k)

    def test_closed_form_matches_dyadic_oracle(self):
        # the first 2^k Walsh functions are constant on generation-k cells;
        # k = 0 is read on a generation-1 cell, since a cell needs one digit
        for k in range(6):
            size = 2**k
            oracle = np.array(
                [[walsh(j + 1, DyadicPoint.cell(i, max(k, 1))) for j in range(size)]
                 for i in range(size)],
                dtype=float,
            )
            assert np.array_equal(walsh_sign_arrangement(k), oracle)

    def test_rows_are_orthogonal(self):
        w = walsh_sign_arrangement(3)
        assert np.array_equal(w.T @ w, 8.0 * np.eye(8))

    def test_cap(self):
        walsh_sign_arrangement(5)  # building k=5 is allowed
        with pytest.raises(EnumerationCapError):
            walsh_sign_arrangement(6)


class TestExhaustiveInf:
    def test_n1(self):
        assert exhaustive_inf(1).value == 1.0

    def test_n2_exact(self):
        rep = exhaustive_inf(2)
        assert rep.value == 2.0
        assert rep.samples == 2  # canonical matrices only

    def test_n4_decided(self):
        # between the parity-rounded lower bound 6 and the construction value 8
        assert exhaustive_inf(4).value == 8.0

    def test_lower_bound(self):
        for n in (2, 3, 4, 5):
            assert exhaustive_inf(n).value >= n**1.5 / math.sqrt(2.0) - 1e-12

    def test_canonical_matches_full_scan(self):
        # oracle: minimum over every sign matrix, no canonicalization
        for n in (2, 3):
            best = math.inf
            for code in range(2 ** (n * n)):
                theta = np.array(
                    [
                        [1.0 if (code >> (i * n + j)) & 1 == 0 else -1.0 for j in range(n)]
                        for i in range(n)
                    ]
                )
                best = min(best, brute_sup_decoupled(theta))
            assert exhaustive_inf(n).value == best

    def test_symmetric_matches_full_scan(self):
        for n in (2, 3):
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            best = math.inf
            for code in range(2 ** len(pairs)):
                theta = np.zeros((n, n))
                for b, (i, j) in enumerate(pairs):
                    v = 1.0 if (code >> b) & 1 == 0 else -1.0
                    theta[i, j] = theta[j, i] = v
                best = min(best, brute_sup_undecoupled(theta))
            assert exhaustive_inf(n, symmetric=True).value == best

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            exhaustive_inf(8)

    def test_n6_pinned(self):
        rep = exhaustive_inf(6)
        assert (rep.value, rep.samples) == (14.0, 2**25)
        rep = exhaustive_inf(6, symmetric=True)
        assert (rep.value, rep.samples) == (10.0, 2**21)


def canonical_masks(n):
    """Column masks of all 2^((n-1)^2) n x n sign matrices with row 0 and column 0 all +1."""
    codes = np.arange(2 ** ((n - 1) ** 2), dtype=np.uint64)
    cols = np.zeros((codes.size, n), dtype=np.uint64)
    width = np.uint64(n - 1)
    for f in range(1, n):
        inner = (codes >> np.uint64(f - 1) * width) & np.uint64(2 ** (n - 1) - 1)
        cols[:, f] = inner << np.uint64(1)  # row 0 is +1
    return cols


def unpinned_symmetric_inf(n):
    """Minimum of max |eps^T theta eps| over every symmetric sign matrix, row 0 not pinned."""
    i, j = np.triu_indices(n, 1)
    eps = full_sign_matrix(n)[::2]
    weights = np.vstack([2.0 * (eps[:, i] * eps[:, j]).T, np.ones((n, eps.shape[0]))])
    return float(np.abs(linear_forms(weights)).max(axis=1).min())


class TestCanonicalScans:
    """The multiset scan of canonical matrices and the pinned symmetric search against full scans."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 300))
    @example(5, 1)  # one prefix row per block
    def test_matches_every_canonical_matrix(self, n, block):
        # a small block makes the generator join prefix and suffix tables at every n
        phis = extremal._sign_scan(canonical_masks(n), n)
        with mock.patch.object(extremal, "_MULTISET_BLOCK", block):
            assert extremal._canonical_scan(n) == (int(phis.min()), int(phis.sum()))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(1, 50))
    @example(2, 1, 1)  # past one block with one entry: an empty prefix table
    def test_multisets_in_lexicographic_order(self, values, size, block):
        with mock.patch.object(extremal, "_MULTISET_BLOCK", block):
            blocks = list(extremal._multisets(values, size))
        rows = [tuple(int(v) for v in row) for b in blocks for row in b]
        assert rows == list(itertools.combinations_with_replacement(range(values), size))
        # a block outgrows its size only to hold one prefix row's joins, a suffix table at most
        suffixes = math.comb(values + size - size // 2 - 1, size - size // 2)
        assert all(b.shape[0] <= max(block, suffixes) for b in blocks)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_weights_sum_to_canonical_count(self, n):
        def count(cols, n):
            return np.ones(cols.shape[0], dtype=np.int64)

        with mock.patch.object(extremal, "_sign_scan", count):
            assert extremal._canonical_scan(n) == (1, 2 ** ((n - 1) ** 2))

    @pytest.mark.parametrize("chunk", [extremal._CHUNK, 2**8], ids=["one_block", "split"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_pinned_symmetric_matches_unpinned(self, n, chunk):
        # 256-byte blocks split the free bits into low and high tables from n = 4 on
        with mock.patch.object(extremal, "_CHUNK", chunk):
            assert extremal._symmetric_inf(n) == unpinned_symmetric_inf(n)


class TestAverages:
    def test_exact_average_n2(self):
        rep = exact_average(2)
        assert rep.value == 3.0
        assert rep.samples == 16

    def test_exact_average_n1(self):
        assert exact_average(1).value == 1.0

    def test_exact_average_n5_n6_pinned(self):
        rep = exact_average(5)
        assert (rep.value, rep.samples) == (479235 / 2**15, 2**25)
        assert exact_average(6).value == 40113495 / 2**21

    def test_monte_carlo_n1_exact(self):
        assert monte_carlo_average(1, 5, seed=7).value == 1.0

    def test_monte_carlo_reproducible(self):
        a = monte_carlo_average(6, 250, seed=99)
        b = monte_carlo_average(6, 250, seed=99)
        assert (a.value, a.stddev) == (b.value, b.stddev)
        c = monte_carlo_average(6, 250, seed=100)
        assert c.value != a.value

    def test_monte_carlo_bracket(self):
        rep = monte_carlo_average(8, 2000, seed=1235813)
        ratio = rep.value / 8.0**1.5
        assert 1.0 / math.sqrt(2.0) <= ratio <= 9.0 * math.sqrt(2.0)

    def test_report_fields(self):
        rep = monte_carlo_average(3, 10, seed=5)
        assert rep.mode == "monte_carlo"
        assert rep.samples == 10
        assert rep.seed == 5
        assert rep.rng == "philox4x64"
        assert rep.stddev is not None

    def test_identical_calls_give_equal_reports(self):
        assert exhaustive_inf(3) == exhaustive_inf(3)
        assert exact_average(2) == exact_average(2)
        assert monte_carlo_average(6, 50, 1) == monte_carlo_average(6, 50, 1)

    def test_report_serializes_to_json(self):
        rep = monte_carlo_average(3, 10, seed=5)
        doc = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert doc["mode"] == "monte_carlo"
        assert doc["value"] == rep.value


class TestSidonDefect:
    def test_values(self):
        assert sidon_defect(0) == 1.0
        assert sidon_defect(2) == 0.5
        assert sidon_defect(4) <= 0.25

    def test_decays(self):
        vals = [sidon_defect(k) for k in range(5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            sidon_defect(5)


class TestTheorem7:
    def test_full_mode_blocks(self):
        rep = theorem7_witness(0.25, 2, mode="full")
        for blk in rep.blocks:
            assert blk.signed_sup <= blk.signed_bound
            assert blk.corner_value == blk.corner_expected == 4.0**blk.k
            assert blk.rearranged_at_uk >= blk.corner_expected
            assert blk.u_k == 2.0 ** (-(2 ** (blk.k + 2)) + 1)
            assert 1.0 <= blk.marc_quasi_ratio <= 2.0

    def test_block_windows(self):
        rep = theorem7_witness(0.25, 2, mode="full")
        assert [b.window for b in rep.blocks] == [(1, 2), (2, 4), (4, 8)]

    def test_quasinorm_growth(self):
        eps = 0.25
        rep = theorem7_witness(eps, 2, mode="full")
        q = rep.partial_quasinorms
        assert len(q) == 3
        assert q[0] == 1.0
        for a, b in zip(q, q[1:]):
            assert b / a >= 2.0 ** (eps / 2.0)

    def test_lower_bound_sequence(self):
        rep = theorem7_witness(0.25, 2, mode="full")
        assert rep.lower_bounds == [2.0 ** (0.25 * k / 2.0 - 1.0) for k in range(3)]

    def test_corner_mode_reaches_k4(self):
        rep = theorem7_witness(0.25, 4, mode="corner")
        assert [b.corner_value for b in rep.blocks] == [1.0, 4.0, 16.0, 64.0, 256.0]
        assert rep.partial_quasinorms == []

    def test_caps(self):
        with pytest.raises(EnumerationCapError):
            theorem7_witness(0.25, 3, mode="full")
        with pytest.raises(EnumerationCapError):
            theorem7_witness(0.25, 5, mode="corner")

    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.4])
    def test_partial_images_match_padded_construction(self, eps):
        # image kk lives on its own 2^(kk+1) square; padding it to the largest square
        # only repeats atoms, so its quasi-norm is bit for bit the same
        K = 2
        top = 2 ** (K + 1)
        padded = []
        for kk in range(K + 1):
            coeffs = np.zeros((top, top))
            for k in range(kk + 1):
                coeffs[2**k : 2 ** (k + 1), 2**k : 2 ** (k + 1)] = 2.0 ** (-(3.0 + eps) * k / 2.0)
            padded.append(quasinorm_phi_eps(rearrangement(eval_decoupled(coeffs)), eps))
        assert theorem7_witness(eps, K, mode="full").partial_quasinorms == padded

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            theorem7_witness(0.75, 1)

    def test_negative_k_rejected(self):
        # K = -1 would build no block and report nothing, a vacuous witness
        for mode in ("full", "corner"):
            with pytest.raises(ValueError, match="K must be >= 0"):
                theorem7_witness(0.25, -1, mode=mode)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sup_norm_decoupled(np.ones((31, 40))), "decoupled scan dimension 31 exceeds cap 30"),
        (lambda: sup_norm_undecoupled(np.ones((29, 29))),
         "undecoupled scan dimension 29 exceeds cap 28"),
        (lambda: walsh_sign_arrangement(6), "Walsh generation 6 exceeds cap 5"),
        (lambda: exhaustive_inf(8), "exhaustive search dimension 8 exceeds cap 7"),
        (lambda: exact_average(8), "exact average dimension 8 exceeds cap 7"),
        (lambda: monte_carlo_average(17, 10, 0), "Monte-Carlo dimension 17 exceeds cap 16"),
        (lambda: eval_decoupled(np.ones((14, 14))), "14x14 decoupled sign bits 28 exceeds cap 26"),
        (lambda: eval_undecoupled(np.zeros((25, 25))),
         "25x25 undecoupled sign bits 25 exceeds cap 24"),
        (lambda: materialize_1d(np.ones(25)), "linear form sign bits 25 exceeds cap 24"),
        (lambda: decouple_identity_rhs(np.zeros((13, 13)), 13),
         "decoupling subset bits 13 exceeds cap 12"),
        # no caps of their own: bounded by the scans and evaluations they call
        (lambda: sidon_defect(5), "decoupled scan dimension 32 exceeds cap 30"),
        (lambda: theorem7_witness(0.25, 3, mode="full"),
         "16x16 decoupled sign bits 32 exceeds cap 26"),
        (lambda: theorem7_witness(0.25, 5, mode="corner"),
         "decoupled scan dimension 32 exceeds cap 30"),
        # the block walk meets a cap at the same block however large K is
        (lambda: theorem7_witness(0.25, 10**9, mode="full"),
         "16x16 decoupled sign bits 32 exceeds cap 26"),
        (lambda: theorem7_witness(0.25, 10**9, mode="corner"),
         "decoupled scan dimension 32 exceeds cap 30"),
    ],
    ids=[
        "sup_decoupled", "sup_undecoupled", "walsh", "exhaustive", "exact_average",
        "monte_carlo", "eval_decoupled", "eval_undecoupled", "materialize_1d",
        "decouple_identity", "sidon_defect", "theorem7_full", "theorem7_corner",
        "theorem7_full_huge_K", "theorem7_corner_huge_K",
    ],
)
def test_cap_error_names_size_and_cap(call, message):
    with pytest.raises(EnumerationCapError) as info:
        call()
    assert str(info.value) == message
