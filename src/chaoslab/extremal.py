"""Exact sup norms of chaos polynomials and extremal sign-matrix searches.

The sup of |sum a_ij r_i(s) r_j(t)| over the square reduces to scanning sign vectors of
one axis only (the shorter): for fixed signs eps the best t-signs align every column,
giving max_eps sum_j |sum_i a_ij eps_i| (negation symmetry pins eps_0 = +1).  Both scans
meet in the middle: eps splits into two halves whose contributions are tabulated once
(2^ceil(n/2) rows at most) and combined pair by pair, in blocks of at most ``_CHUNK``
bytes.  One pair kernel, ``_pair_max``, scores every decoupled scan: a real matrix, a +-1
matrix (whose half sums are small integers, so its tables are int8) and, through
``_sign_scan``, stacks of +-1 matrices given as column bitmasks, whose column sums are
n - 2 popcount(eps ^ c_j); the stacks serve the exhaustive infimum and both averages.
The undecoupled scan pairs the rows and columns of two factors of eps^T b eps by matrix
products.  A scan of one matrix over several blocks prunes: both halves sorted by a bound
on what they add to a score, each block after the first takes only the prefix of partners
whose bound, with a slack above rounding, can still beat the best score so far, and as
many rows as fill a block with that prefix (``_staircase``, one rule for both scans).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .chaos import as_coefficient_matrix, eval_decoupled
from .dyadic import _CHUNK, full_sign_matrix, linear_forms, quadratic_blocks, quadratic_factors
from .errors import EnumerationCapError
from .rearrange import rearrangement
from .spaces import marcinkiewicz_norm, phi_eps, quasinorm_phi_eps

SUP_DECOUPLED_CAP = 30
SUP_UNDECOUPLED_CAP = 28
EXHAUSTIVE_CAP = 7
EXACT_AVERAGE_CAP = 7
MONTE_CARLO_CAP = 16
WALSH_K_CAP = 5

_MULTISET_BLOCK = 1 << 20  # multisets per block of the canonical scan
_RNG_NAME = "philox4x64"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one extremal computation, with enough state to reproduce it."""

    n: int
    mode: str  # "exhaustive" | "exhaustive_average" | "monte_carlo"
    value: float
    samples: int
    seed: int
    stddev: float | None = None
    rng: str | None = None


def _half_scores(cols: np.ndarray, masks: np.ndarray, shift: int, width: int) -> np.ndarray:
    """int8 table width - 2 popcount(mask ^ half), (columns, matrices, masks), matrices innermost.

    ``half`` is bits [shift, shift + width) of each mask in ``cols``, a (columns, matrices)
    block, cast to the type of ``masks``, one half of the sign vectors in ``width`` bits.
    """
    half = ((cols >> shift) & (2**width - 1)).astype(masks.dtype)
    table = np.bitwise_count(half[:, None, :] ^ masks[:, None]).view(np.int8)
    table *= -2
    table += width
    return table.transpose(0, 2, 1)


def _cut_buffer(row: int, itemsize: int) -> int:
    """Cut NumPy's ufunc buffer to one block row of ``row`` items (a multiple of 16) if it is
    1 KiB or more, and return the size to restore: NumPy buffers a broadcast add whose rows
    are shorter than its buffer, copying every operand, and adds such rows faster in place.
    ``_pair_max`` adds its blocks so, along rows of high-table entries: without the cut a
    20x20 Gaussian's decoupled scan, 2^10 doubles a row, takes about 8% longer; its int8
    blocks of matrices barely move."""
    saved = np.getbufsize()
    if row * itemsize >= 1024:
        np.setbufsize(min(row // 16 * 16, saved))
    return saved


def _staircase(lrows: int, hrows: int, budget: int, bound=None, tile: int = 1, least: int = 1):
    """Blocks (first, stop, live) of a pair scan: low rows [first, stop) with high rows [0, live).

    A block takes ``budget // live`` low rows, ``least`` at least (a shorter remainder joins
    the block before it), so it holds about ``budget`` pairs.  Given ``bound`` = (la, hb,
    slack, best), the low and high rows' score bounds, both sorted descending, and a one-slot
    array holding the best score so far, the scan prunes: after the first block only the high
    rows where (la[first] + hb) * slack > best[0] are live, a prefix, rounded up to a multiple
    of ``tile`` (at most hrows); a block ends at the last low row where (la + hb[0]) * slack
    > best[0], which pairs with one high row at least; and the scan stops at the first low
    row that pairs with none, as the rows below score no higher.
    """
    first, live, end = 0, hrows, lrows
    while first < lrows:
        if bound is not None and first:
            la, hb, slack, best = bound
            live = _beating(hb, la[first], slack, best[0])
            if not live:
                return
            live = min(hrows, -(-live // tile) * tile)
            end = first + _beating(la[first:], hb[0], slack, best[0])
        stop = first + max(least, min(budget // live, end - first))
        if stop > lrows - least:
            stop = lrows
        yield first, stop, live
        first = stop


def _beating(bounds: np.ndarray, other, slack, best) -> int:
    """How many of the descending ``bounds`` b have (b + other) * slack > best, a prefix: all
    of them, without a pass over them, when the last one does."""
    if (bounds[-1] + other) * slack > best:
        return bounds.size
    return int(np.count_nonzero((bounds + other) * slack > best))


def _pair_max(low: np.ndarray, high: np.ndarray, n: int | None = None) -> np.ndarray:
    """Per matrix k, the max over pairs (l, g) of sum_j |low[j, k, l] + high[j, k, g]|.

    ``low`` and ``high`` are (columns, matrices, rows) half tables of one dtype: real, or,
    given ``n``, int8 column sums of +-1 signs over n rows, so every |L_j + H_j| is at most n.
    A block pairs a run of matrices and low rows with every high row in one ``np.add`` over
    all columns of at most ``_CHUNK`` bytes, whose ``abs`` is summed over the columns in
    order.  A stack with more matrices than high rows fills a block with matrices before it
    takes a second low row, so add, abs and sum stream hundreds of matrices, innermost in the
    tables, per inner loop; otherwise a block fills with low rows first.  Real scores are
    summed in doubles.  Integer scores are summed in runs of 127 // n columns in int8, which
    cannot wrap (127 // n terms of at most n), and only the run totals are widened to a type
    holding n * columns.

    A lone matrix whose pairs need several blocks is pruned by ``_staircase`` with the bound
    la[l] + hb[g] on a pair's score, la and hb the l1 norms of the low and high rows, both
    sorted descending: after the first block, a block pairs its low rows only with the high
    rows where (la[first] + hb) * slack > best, a prefix of at least two rows, and takes as
    many low rows as fill ``_CHUNK`` bytes with that prefix.  Integer tables prune exactly
    (slack 1).  For real tables with m columns and unit roundoff u, a computed score is at
    most (1 + u)(1 + g) times the exact la + hb, and the computed (la + hb) * slack at least
    (1 - g)(1 - u)^2 slack times it, where g = (m - 1) u / (1 - (m - 1) u) bounds a
    sequential sum; slack = 1 + 4 (m + 2) u exceeds the quotient, 1 + (2m + 1) u to first
    order, so no pruned pair beats best (below 2^-1022 every add is exact).  Kept pairs are
    summed as in a full scan, so the max is bit for bit the same.
    """
    cols, count, lrows = low.shape
    hrows = high.shape[2]
    acc_type = float if n is None else np.min_scalar_type(-n * cols - 1)  # holds n * columns
    pairs = max(1, _CHUNK // (cols * low.itemsize))  # (low row, high row) pairs a block
    fill = max(1, pairs // hrows)  # (matrix, low row) pairs a block
    if count > hrows:  # matrices first, innermost in the tables
        mats = min(count, fill)
        rows = min(lrows, fill // mats)
    else:
        rows = min(lrows, fill)
        mats = min(count, fill // rows)
    prune = mats == 1 and rows < lrows  # a lone matrix over several blocks
    step = cols if n is None else 127 // n  # columns summed per reduce
    best = np.zeros(count, dtype=acc_type)
    saved = _cut_buffer(max(mats, hrows), low.itemsize)  # a block's innermost axis
    try:
        for start in range(0, count, mats):
            lo, hi = low[:, start : start + mats], high[:, start : start + mats, None]
            if mats < hrows:  # blocks follow the tables' memory order: high rows innermost
                hi = np.ascontiguousarray(hi)
            view = best[start : start + mats]
            bound = None
            if prune:  # sort both tables by row norm
                la = np.add.reduce(np.abs(lo[:, 0]), axis=0, dtype=acc_type)
                hb = np.add.reduce(np.abs(hi[:, 0, 0]), axis=0, dtype=acc_type)
                lorder, horder = np.argsort(la)[::-1], np.argsort(hb)[::-1]
                # np.take keeps the copies in C order, columns outermost as in the tables
                lo, hi = np.take(lo, lorder, axis=-1), np.take(hi, horder, axis=-1)
                slack = 1 if n else 1 + 4 * (cols + 2) * np.finfo(acc_type).epsneg
                bound = (la[lorder], hb[horder], slack, view)
            # two high rows at least, so NumPy sums a block column by column, not pairwise
            for first, stop, live in _staircase(lrows, hrows, pairs if prune else rows * hrows,
                                                bound, tile=2):
                block = np.add(lo[:, :, first:stop, None], hi[..., :live])
                np.abs(block, out=block)
                if step < cols:  # widen the first run's total, then add the others
                    scores = np.add.reduce(block[:step], axis=0, dtype=np.int8).astype(acc_type)
                    for j in range(step, cols, step):
                        scores += np.add.reduce(block[j : j + step], axis=0, dtype=np.int8)
                else:
                    scores = np.add.reduce(block, axis=0, dtype=acc_type)
                np.maximum(view, np.maximum.reduce(scores, axis=(1, 2)), out=view)
                del block  # before the next block is allocated
    finally:
        np.setbufsize(saved)
    return best


def _sign_scan(cols: np.ndarray, n: int) -> np.ndarray:
    """Decoupled sup norm of each n-row +-1 matrix in a stack of column masks.

    ``cols`` is (M, m) uint64, bit i of cols[k, j] set where row i of column j
    of matrix k is -1.  Returns, as int64, max over eps with eps_0 = +1 of
    sum_j |n - 2 popcount(eps ^ cols[k, j])|.

    Meets in the middle as ``sup_norm_decoupled`` does: with eps = (l, g) over bits [0, h)
    and [h, n), popcount(eps ^ c) = popcount(l ^ c_lo) + popcount(g ^ c_hi), so each column
    score is |L_j[l] + H_j[g]| from two int8 half tables, built for runs of matrices whose
    high table (the larger) fills at most ``_CHUNK`` bytes and paired by ``_pair_max``.
    """
    count, m = cols.shape
    h = n // 2
    low_masks = np.arange(0, 2**h, 2, dtype=np.min_scalar_type(2**h - 1))  # eps_0 = +1 if n > 1
    high_masks = np.arange(2 ** (n - h), dtype=np.min_scalar_type(2 ** (n - h) - 1))
    run = max(1, _CHUNK // (m * high_masks.size))
    best = np.empty(count, dtype=np.int64)
    for start in range(0, count, run):
        # (columns, matrices), cast once to the narrowest type holding n bits
        stack = np.ascontiguousarray(cols[start : start + run].T, np.min_scalar_type(2**n - 1))
        # the tables are temporaries, freed before the next run's are built
        best[start : start + run] = _pair_max(
            _half_scores(stack, low_masks, 0, h), _half_scores(stack, high_masks, h, n - h), n
        )
    return best


def sup_norm_decoupled(a) -> float:
    """Exact sup norm of the decoupled chaos polynomial with coefficients ``a``.

    Scans 2^(n-1) sign vectors of the shorter axis (the rows of a square matrix), as
    max_eps |A^T eps|_1 = max_delta |A delta|_1, meeting in the middle: eps = (l, g)
    over the two row halves has column sums L[l] + H[g], and ``_pair_max`` takes the max
    of sum_j |L[l, j] + H[g, j]| over the pairs.  The half sums of a +-1 matrix are
    integers of at most 15 in magnitude, so its tables are int8.
    """
    a = as_coefficient_matrix(a)
    if a.shape[0] > a.shape[1]:
        a = a.T
    n = a.shape[0]
    EnumerationCapError.check("decoupled scan dimension", n, SUP_DECOUPLED_CAP)
    # (columns, 1, rows), each column contiguous; for n = 1 the low half is one zero row,
    # so the high half has two rows or more and NumPy sums blocks column by column, not pairwise
    h = n // 2
    signs = np.all(np.abs(a) == 1.0)
    kind = np.int8 if signs else float
    low = np.ascontiguousarray(linear_forms(a[:h])[::2].T, dtype=kind)[:, None]
    high = np.ascontiguousarray(linear_forms(a[h:]).T, dtype=kind)[:, None]
    return float(_pair_max(low, high, n if signs else None)[0])


def sup_norm_undecoupled(b) -> float:
    """Exact sup norm of sum b_ij r_i(t) r_j(t) (diagonal included, as a quadratic form).

    The form is even, so the max of its absolute value over the table of ``quadratic_blocks``
    (eps_n = +1), the one ``eval_undecoupled`` mirrors, is the sup; a table that fits one
    block is read through ``quadratic_blocks`` itself.  A larger one is scanned by
    ``_staircase`` over the factors of ``quadratic_factors``, pruned as ``_pair_max`` prunes:
    an entry left[w] @ right[:, u] is qw + qu + w . c(u), with qw = w^T b22 w,
    qu = u^T b11 u and c(u) = (b12 + b21^T)^T u, so its absolute value is at most
    alpha[w] + beta[u], alpha = |qw| and beta = |qu| + |c(u)|_1.  Rows of left sorted by
    alpha and columns of right by beta, both descending, a block after the first multiplies
    its rows only by the columns where (alpha[first] + beta) * slack > best; right's columns
    are sorted once a block leaves one out, so a table where nothing prunes (a diagonal b,
    every entry the trace) is not copied.  The K = n - n // 2 + 2 terms of an entry are
    exact, so with unit roundoff u its computed value is at most (1 + g) times
    alpha + beta, g = (K - 1) u / (1 - (K - 1) u), and the computed bound, beta a sum of
    K - 1 terms, at least (1 - g)(1 - u)^2 slack times it; slack = 1 + 4 (K + 2) u exceeds
    the quotient, 1 + 2K u to first order (below 2^-1022 every add is exact).  A block is one
    ``np.matmul`` of two rows at least by a column prefix rounded up to a multiple of 8:
    OpenBLAS's gemm then sums every entry's terms in order, as in the unpruned blocks, where
    a gemv (one row) or a narrow tail tile may not, so the max is bit for bit the unpruned
    one.
    """
    b = as_coefficient_matrix(b)
    n, m = b.shape
    if n != m:
        raise ValueError(f"undecoupled coefficients must be square, got {n}x{m}")
    EnumerationCapError.check("undecoupled scan dimension", n, SUP_UNDECOUPLED_CAP)
    budget = _CHUNK // 8  # table entries a block
    if 2 ** (n - 1) <= budget:
        return max(float(np.abs(block, out=block).max()) for block in quadratic_blocks(b))
    left, right = quadratic_factors(b)
    alpha = np.abs(left[:, -2])
    beta = np.abs(right[:-2]).sum(axis=0)
    beta += np.abs(right[-1])
    lorder, horder = np.argsort(alpha)[::-1], np.argsort(beta)[::-1]
    left, ranked = left[lorder], False  # right's columns are sorted once a block leaves one out
    best = np.zeros(1)
    slack = 1 + 4 * (right.shape[0] + 2) * np.finfo(float).epsneg
    bound = (alpha[lorder], beta[horder], slack, best)
    for first, stop, live in _staircase(left.shape[0], right.shape[1], budget, bound, 8, 2):
        if live < right.shape[1] and not ranked:
            right, ranked = np.take(right, horder, axis=1), True  # in C order, as right
        block = np.matmul(left[first:stop], right[:, :live])
        np.maximum(best, max(block.max(), -block.min()), out=best)
    return float(best[0])


def walsh_sign_arrangement(k: int) -> np.ndarray:
    """Sign matrix of the first 2^k Walsh functions on the generation-k cells.

    Row i holds the signs on the i-th cell; the resulting arrangement keeps
    the decoupled sup norm at or below 2^(3k/2).  Walsh function j + 1 is the
    product of r_(b+1) over the set bits b of j, and the cell's digit b + 1 is
    bit k-1-b of i, so entry (i, j) is (-1)^popcount(rev_k(i) & j).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    EnumerationCapError.check("Walsh generation", k, WALSH_K_CAP)
    idx = np.arange(2**k, dtype=np.uint64)
    rev = np.zeros_like(idx)
    for b in range(k):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(k - 1 - b)
    return 1.0 - 2.0 * (np.bitwise_count(rev[:, None] & idx[None, :]) & 1)


def _join(prefix: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    """Rows prefix[r] + suffix[t] for every suffix row t whose head is at least the tail of
    prefix row r, prefix rows outermost.

    Both tables hold nondecreasing rows in lexicographic order, so the suffix rows that a
    prefix row joins are a tail of the table and the joined rows are again nondecreasing and
    in lexicographic order.
    """
    if prefix.shape[1] and suffix.shape[1]:
        start = np.searchsorted(suffix[:, 0], prefix[:, -1])
    else:
        start = np.zeros(prefix.shape[0], dtype=np.intp)
    counts = suffix.shape[0] - start
    ends = np.cumsum(counts)
    picks = np.arange(ends[-1]) + np.repeat(start + counts - ends, counts)
    return np.hstack([np.repeat(prefix, counts, axis=0), suffix[picks]])


def _nondecreasing(values: int, length: int) -> np.ndarray:
    """All nondecreasing rows of ``length`` entries from range(values), in lexicographic order."""
    column = np.arange(values, dtype=np.min_scalar_type(values - 1))[:, None]
    table = column[:1, :0]
    for _ in range(length):
        table = _join(table, column)
    return table


def _multisets(values: int, size: int) -> Iterator[np.ndarray]:
    """All C(values + size - 1, size) multisets of ``size`` entries from range(values), as
    nondecreasing rows in lexicographic order, in blocks of at most ``_MULTISET_BLOCK`` rows
    (or one prefix row's joins, if more).

    Each block joins a run of rows of the prefix table (the first size // 2 entries) with the
    suffix table (the rest), so no table larger than a block is built.
    """
    prefix, suffix = _nondecreasing(values, size // 2), _nondecreasing(values, size - size // 2)
    rows = max(1, _MULTISET_BLOCK // suffix.shape[0])  # a prefix row joins the suffix table at most
    for start in range(0, prefix.shape[0], rows):
        yield _join(prefix[start : start + rows], suffix)


def _canonical_scan(n: int) -> tuple[int, int]:
    """(min, weighted sum) of the decoupled sup norm over the 2^((n-1)^2) canonical n x n sign
    matrices, those whose row 0 and column 0 are all +1.

    Permuting columns keeps the sup, so the other n - 1 columns are scanned as multisets of
    their inner masks (rows 1..n-1), C(2^(n-1) + n - 2, n - 1) of them, each scored once by
    ``_sign_scan``.  A multiset whose equal masks come in runs of mu_i stands for
    (n-1)!/prod mu_i! canonical matrices, its weight; the weights sum to 2^((n-1)^2), and the
    weighted sum of sups is an exact integer (below 2^42 at n = 7).
    """
    size = n - 1
    best, total = n * n, 0  # no sup exceeds n^2
    for block in _multisets(2**size, size):
        cols = np.zeros((block.shape[0], n), dtype=np.uint8)  # column 0 is all +1: mask 0
        np.left_shift(block, 1, out=cols[:, 1:])  # row 0 is +1: inner masks shift up a bit
        run = np.ones(block.shape[0], dtype=np.int64)  # each entry's place in its run of equals
        orders = np.ones(block.shape[0], dtype=np.int64)  # prod mu_i!
        for t in range(1, size):
            run = np.where(block[:, t] == block[:, t - 1], run + 1, 1)
            orders *= run
        phis = _sign_scan(cols, n)
        best = min(best, int(phis.min()))
        total += int(np.dot(math.factorial(size) // orders, phis))
    return best, total


def _symmetric_inf(n: int) -> int:
    """Minimum over symmetric n x n sign matrices theta of max over eps of |eps^T theta eps|.

    D theta D for a diagonal sign matrix D, and -theta, keep the sup, so row 0 of theta is
    pinned to +1 (theta_0j for j >= 1 by D, then theta_00 by -D theta D with D = diag(1, -1,
    ..., -1)): 2^(n(n-1)/2) matrices.  The free bits weigh 2 eps_i eps_j off the
    diagonal and 1 on it, the pinned ones add the constant 1 + 2 sum_(j>=1) eps_j, and the
    forms are small integers, so the scan pairs an int8 table of the low free bits with one of
    the high ones (the constant added), eps (first sign +1) outermost, in blocks of at most
    ``_CHUNK`` bytes.
    """
    eps = full_sign_matrix(n - 1)  # (E, n - 1): the masks with first sign +1, that sign left out
    i, j = np.triu_indices(n - 1, 1)
    weights = np.vstack([2.0 * (eps[:, i] * eps[:, j]).T, np.ones((n - 1, eps.shape[0]))])
    const = 1.0 + 2.0 * eps.sum(axis=1)
    bits = min(weights.shape[0], (_CHUNK // eps.shape[0]).bit_length() - 1)  # low free bits
    kind = np.min_scalar_type(-n * n)  # every |eps^T theta eps| is at most n^2
    low = np.ascontiguousarray(linear_forms(weights[:bits]).T, dtype=kind)  # (E, 2^bits)
    high = np.ascontiguousarray((linear_forms(weights[bits:]) + const).T, dtype=kind)
    rows = max(1, _CHUNK // low.size)  # high rows per block
    best = n * n
    for start in range(0, high.shape[1], rows):
        block = np.add(low[:, None, :], high[:, start : start + rows, None])
        best = min(best, int(np.maximum.reduce(np.abs(block, out=block), axis=0).min()))
    return best


def exhaustive_inf(n: int, symmetric: bool = False) -> SearchReport:
    """Exact minimum of the sup norm over all sign matrices.

    Decoupled mode: flipping a row or a column permutes the sign vectors and so keeps the
    sup, and every flip orbit holds one matrix with row 0 and column 0 all +1.  The minimum
    over these 2^((n-1)^2) canonical matrices, the ``samples`` reported, is taken over
    multisets of their other columns (``_canonical_scan``).  Symmetric mode minimizes
    max |eps^T theta eps| over all 2^(n(n+1)/2) symmetric matrices, the ``samples`` reported,
    scanning the 2^(n(n-1)/2) with row 0 pinned to +1 (``_symmetric_inf``).  The minimum is
    3n - 4 for n = 2..7 in decoupled mode.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    EnumerationCapError.check("exhaustive search dimension", n, EXHAUSTIVE_CAP)
    if symmetric:
        value, samples = _symmetric_inf(n), 2 ** (n * (n + 1) // 2)
    else:
        value, samples = _canonical_scan(n)[0], 2 ** ((n - 1) ** 2)
    return SearchReport(n=n, mode="exhaustive", value=float(value), samples=samples, seed=0)


def exact_average(n: int) -> SearchReport:
    """Exact mean of the decoupled sup norm over all 2^(n^2) sign matrices.

    Each row and column flip orbit holds 2^(2n-1) matrices, one of them canonical (row 0 and
    column 0 all +1), so the mean is the weighted sum of ``_canonical_scan`` over
    2^((n-1)^2), an exact integer divided by a power of two: exact in a double for n <= 7.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    EnumerationCapError.check("exact average dimension", n, EXACT_AVERAGE_CAP)
    total = _canonical_scan(n)[1]
    return SearchReport(n=n, mode="exhaustive_average", value=total / 2 ** ((n - 1) ** 2),
                        samples=2 ** (n * n), seed=0)


def monte_carlo_average(n: int, samples: int, seed: int) -> SearchReport:
    """Unbiased estimate of the mean sup norm over uniform random sign matrices.

    Matrices are drawn from a counter-based Philox generator keyed by ``seed``
    in a fixed order, so identical (n, samples, seed) reproduce the report
    bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    EnumerationCapError.check("Monte-Carlo dimension", n, MONTE_CARLO_CAP)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    cols = rng.integers(0, 2**n, size=(samples, n), dtype=np.uint64)
    phis = _sign_scan(cols, n).astype(np.float64)
    std = float(phis.std(ddof=1)) if samples > 1 else 0.0
    return SearchReport(n=n, mode="monte_carlo", value=float(phis.mean()), samples=samples,
                        seed=seed, stddev=std, rng=_RNG_NAME)


def sidon_defect(k: int) -> float:
    """Sup norm of the Walsh arrangement divided by its l1 coefficient mass 2^(2k).

    Decays like 2^(-k/2), witnessing that the product system is not Sidon.
    The decoupled scan cap keeps k at or below 4 (k=5 would need 2^31 sign vectors).
    """
    theta = walsh_sign_arrangement(k)
    return sup_norm_decoupled(theta) / 4.0**k


@dataclass(frozen=True)
class Theorem7Block:
    """Per-block record of the blow-up construction."""

    k: int
    window: tuple[int, int]  # half-open index window (lo, hi]
    signed_sup: float  # sup norm of the Walsh-signed block
    signed_bound: float  # 2^(3k/2)
    corner_value: float  # flipped block at the all-plus sign pair
    corner_expected: float  # 2^(2k)
    rearranged_at_uk: float | None = None  # flipped block rearrangement at u_k
    u_k: float | None = None
    marc_quasi_ratio: float | None = None


@dataclass(frozen=True)
class Theorem7Report:
    eps: float
    mode: str  # "full" | "corner"
    blocks: list[Theorem7Block]
    partial_quasinorms: list[float] = field(default_factory=list)
    lower_bounds: list[float] = field(default_factory=list)  # 2^(eps*k/2 - 1)


def _block_windows(K: int) -> Iterator[tuple[int, int]]:
    """Windows of blocks 0..K, lazily: a cap met at block k stops the walk there, whatever K."""
    return ((2**k, 2 ** (k + 1)) for k in range(K + 1))


def theorem7_witness(eps: float, K: int, mode: str = "full") -> Theorem7Report:
    """Build and check the block construction that escapes the Marcinkiewicz space.

    Block k carries Walsh signs on the index window (2^k, 2^(k+1)]; its sup
    norm stays below 2^(3k/2) while flipping the signs to all-ones produces
    the peak value 2^(2k) on a corner of the square.  Full mode additionally
    computes exact rearrangements of the flipped blocks and the quasi-norms of
    the partial sign-flipped images, whose lower bounds grow like
    2^(eps*k/2 - 1).  The caps of the scans and evaluations it calls bound K:
    full mode stops at K = 2 (image K = 3 needs 32 sign bits), corner mode at
    K = 4 (block 5 needs a 32-row scan).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if mode not in ("full", "corner"):
        raise ValueError(f"mode must be 'full' or 'corner', got {mode}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    blocks: list[Theorem7Block] = []
    for k, (lo, hi) in enumerate(_block_windows(K)):
        width = hi - lo
        signed_sup = sup_norm_decoupled(walsh_sign_arrangement(k))
        corner = float(np.ones((width, width)).sum())
        rearr_at = u_k = ratio = None
        if mode == "full":
            u_k = 2.0 ** (-(2 ** (k + 2)) + 1)
            # the flipped block factors through the window variables only
            r = rearrangement(eval_decoupled(np.ones((width, width))))
            rearr_at = r.at(u_k)
            marc = marcinkiewicz_norm(r, phi_eps(eps))
            quasi = quasinorm_phi_eps(r, eps)
            ratio = marc / quasi if quasi > 0 else math.inf
        blocks.append(
            Theorem7Block(
                k=k,
                window=(lo, hi),
                signed_sup=signed_sup,
                signed_bound=2.0 ** (1.5 * k),
                corner_value=corner,
                corner_expected=4.0**k,
                rearranged_at_uk=rearr_at,
                u_k=u_k,
                marc_quasi_ratio=ratio,
            )
        )

    partial_quasinorms: list[float] = []
    lower_bounds = [2.0 ** (eps * k / 2.0 - 1.0) for k in range(K + 1)]
    if mode == "full":
        for kk in range(K + 1):  # on its own 2^(kk+1) square: padding only repeats atoms
            coeffs = np.zeros((2 ** (kk + 1), 2 ** (kk + 1)))
            for k, (lo, hi) in enumerate(_block_windows(kk)):
                coeffs[lo:hi, lo:hi] = 2.0 ** (-(3.0 + eps) * k / 2.0)
            partial_quasinorms.append(quasinorm_phi_eps(rearrangement(eval_decoupled(coeffs)), eps))
    return Theorem7Report(
        eps=eps,
        mode=mode,
        blocks=blocks,
        partial_quasinorms=partial_quasinorms,
        lower_bounds=lower_bounds,
    )
