"""Exact sup norms of chaos polynomials and extremal sign-matrix searches.

The sup of |sum a_ij r_i(s) r_j(t)| over the square reduces to scanning sign
vectors of the s-axis only: for fixed signs eps the best t-signs align every
column, giving max_eps sum_j |sum_i a_ij eps_i| (negation symmetry pins
eps_0 = +1).  For +-1 matrices the column sum is n - 2 popcount(eps ^ c_j) on
the column's bitmask c_j; one kernel, ``_sign_scan``, scores whole stacks of
such matrices at once and serves the +-1 sup norm, the exhaustive infimum, the
exact average and the Monte-Carlo average.  Real matrices meet in the middle:
eps splits into two halves whose contributions are tabulated once (2^ceil(n/2)
rows at most) and combined pair by pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chaos import as_coefficient_matrix, eval_decoupled
from .dyadic import full_sign_matrix, linear_forms, quadratic_form
from .errors import EnumerationCapError
from .rearrange import Rearrangement, rearrangement
from .spaces import marcinkiewicz_norm, phi_eps, quasinorm_phi_eps

SUP_DECOUPLED_CAP = 30
SUP_UNDECOUPLED_CAP = 24
EXHAUSTIVE_CAP = 5
EXACT_AVERAGE_CAP = 4
MONTE_CARLO_CAP = 16
WALSH_K_CAP = 5
SIDON_K_CAP = 4
THEOREM7_FULL_CAP = 2
THEOREM7_CORNER_CAP = 4

_CHUNK = 1 << 16
_RNG_NAME = "philox4x64"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one extremal computation, with enough state to reproduce it."""

    n: int
    mode: str  # "exhaustive" | "exhaustive_average" | "monte_carlo" | "walsh"
    value: float
    samples: int
    seed: int
    elapsed: float
    stddev: float | None = None
    rng: str | None = None


def _mask_chunks(n: int, size: int = _CHUNK):
    """Masks of the 2^(n-1) sign vectors with eps_0 = +1 for ``_sign_scan``, ``size`` at a time."""
    total = 2 ** (n - 1)
    for start in range(0, total, size):
        yield np.arange(start, min(start + size, total), dtype=np.uint64) << np.uint64(1)


def _column_masks(theta: np.ndarray) -> np.ndarray:
    """Bitmask per column of a +-1 matrix; bit i set where row i is -1."""
    bits = (theta < 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(theta.shape[0], dtype=np.uint64)
    return bits.T @ weights


def _bit_fields(fields: int, width: int) -> np.ndarray:
    """All 2^(fields*width) codes split into ``fields`` masks of ``width`` bits each."""
    codes = np.arange(2 ** (fields * width), dtype=np.uint64)
    shifts = np.arange(fields, dtype=np.uint64) * np.uint64(width)
    return (codes[:, None] >> shifts) & np.uint64(2**width - 1)


def _sign_scan(cols: np.ndarray, n: int) -> np.ndarray:
    """Decoupled sup norm of each n-row +-1 matrix in a stack of column masks.

    ``cols`` is (M, m) uint64, bit i of cols[k, j] set where row i of column j
    of matrix k is -1.  Returns, as int64, max over eps with eps_0 = +1 of
    sum_j |n - 2 popcount(eps ^ cols[k, j])|.  Column scores accumulate into an
    int32 (matrices x sign vectors) block of at most ``_CHUNK`` cells, laid out
    with its longer axis innermost (sign vectors, unless n is small).
    """
    cols = np.ascontiguousarray(np.asarray(cols, dtype=np.uint64).T)
    count = cols.shape[1]
    size = min(2 ** (n - 1), _CHUNK)
    rows = max(1, _CHUNK // size)
    axis = 1 if size >= rows else 0  # the sign-vector axis of the block
    best = np.zeros(count, dtype=np.int64)
    for eps in _mask_chunks(n, size):
        for start in range(0, count, rows):
            block = cols[:, start : start + rows]
            shape = (block.shape[1], eps.size) if axis else (eps.size, block.shape[1])
            acc = np.zeros(shape, dtype=np.int32)
            for col in block:
                pair = (col, eps) if axis else (eps, col)
                # n - 2 popcount lies in [-n, n], so int8 holds it for n <= 64
                score = np.bitwise_count(np.bitwise_xor.outer(*pair)).view(np.int8)
                score *= -2
                score += n
                acc += np.abs(score, out=score)
            view = best[start : start + rows]
            np.maximum(view, acc.max(axis=axis), out=view)
    return best


def sup_norm_decoupled(a) -> float:
    """Exact sup norm of the decoupled chaos polynomial with coefficients ``a``.

    Scans 2^(n-1) sign vectors of the row axis; +-1 matrices go through the
    popcount kernel.  Real matrices meet in the middle: eps = (l, h) over the
    two row halves has column sums L[l] + H[h], and sum_j |L[l, j] + H[h, j]|
    accumulates column by column over blocks of at most ``_CHUNK`` pairs.
    """
    a = as_coefficient_matrix(a)
    n, m = a.shape
    if n > SUP_DECOUPLED_CAP:
        raise EnumerationCapError(f"row dimension {n} exceeds scan cap {SUP_DECOUPLED_CAP}")
    if np.all(np.abs(a) == 1.0):
        return float(_sign_scan(_column_masks(a)[None, :], n)[0])
    h = max(1, n // 2)
    # column-major, so each table column is contiguous; for n = 1, H is one zero row
    low = np.asfortranarray(linear_forms(a[:h])[::2])
    high = np.asfortranarray(linear_forms(a[h:]))
    rows = max(1, _CHUNK // high.shape[0])
    best = 0.0
    for start in range(0, low.shape[0], rows):
        block = low[start : start + rows]
        acc = np.zeros((block.shape[0], high.shape[0]))
        tmp = np.empty_like(acc)
        for j in range(m):
            acc += np.abs(np.add.outer(block[:, j], high[:, j], out=tmp), out=tmp)
        best = max(best, float(acc.max()))
    return best


def sup_norm_undecoupled(b) -> float:
    """Exact sup norm of sum b_ij r_i(t) r_j(t) (diagonal included, as a quadratic form).

    Meets in the middle: for eps = (u, w), eps^T B eps = u^T B11 u + w^T B22 w
    + u (B12 + B21^T) w, so the half forms are vectors and the cross term is
    one matrix product per block of at most ``_CHUNK`` pairs (u_0 = +1, as
    the form is even).
    """
    b = as_coefficient_matrix(b)
    n, m = b.shape
    if n != m:
        raise ValueError(f"undecoupled coefficients must be square, got {n}x{m}")
    if n > SUP_UNDECOUPLED_CAP:
        raise EnumerationCapError(f"dimension {n} exceeds scan cap {SUP_UNDECOUPLED_CAP}")
    h = max(1, n // 2)
    w = full_sign_matrix(n - h)  # the GEMM's right factor
    qu = quadratic_form(b[:h, :h])[::2]
    qw = quadratic_form(b[h:, h:])
    cross = linear_forms(b[:h, h:] + b[h:, :h].T)[::2]
    rows = max(1, _CHUNK // w.shape[0])
    best = 0.0
    for start in range(0, qu.size, rows):
        quad = cross[start : start + rows] @ w.T
        quad += qu[start : start + rows, None]
        quad += qw
        best = max(best, float(np.abs(quad, out=quad).max()))
    return best


def walsh_sign_arrangement(k: int) -> np.ndarray:
    """Sign matrix of the first 2^k Walsh functions on the generation-k cells.

    Row i holds the signs on the i-th cell; the resulting arrangement keeps
    the decoupled sup norm at or below 2^(3k/2).  Walsh function j + 1 is the
    product of r_(b+1) over the set bits b of j, and the cell's digit b + 1 is
    bit k-1-b of i, so entry (i, j) is (-1)^popcount(rev_k(i) & j).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > WALSH_K_CAP:
        raise EnumerationCapError(f"k={k} exceeds cap {WALSH_K_CAP}")
    idx = np.arange(2**k, dtype=np.uint64)
    rev = np.zeros_like(idx)
    for b in range(k):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(k - 1 - b)
    return 1.0 - 2.0 * (np.bitwise_count(rev[:, None] & idx[None, :]) & 1)


def exhaustive_inf(n: int, symmetric: bool = False) -> SearchReport:
    """Exact minimum of the sup norm over all sign matrices.

    Decoupled mode canonicalizes by row/column sign flips (first row and
    column pinned to +1), shrinking the scan to 2^((n-1)^2) matrices; flipping
    a row or column permutes the sign vectors so the sup norm is unchanged.
    Symmetric mode enumerates all 2^(n(n+1)/2) symmetric matrices directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXHAUSTIVE_CAP:
        raise EnumerationCapError(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    t0 = time.perf_counter()
    if not symmetric:
        # column 0 is all +1 (mask 0); row 0 is +1, so inner masks shift up one bit
        inner = _bit_fields(n - 1, n - 1) << np.uint64(1)
        cols = np.hstack([np.zeros((inner.shape[0], 1), dtype=np.uint64), inner])
        value = float(_sign_scan(cols, n).min())
        samples = int(cols.shape[0])
    else:
        i, j = np.triu_indices(n, 1)
        eps = full_sign_matrix(n)[::2]  # (E, n), first sign +1
        off = eps[:, i] * eps[:, j]
        coeff = full_sign_matrix(i.size + n)
        theta_off = coeff[:, : i.size]
        theta_diag = coeff[:, i.size:]
        quad = 2.0 * theta_off @ off.T + theta_diag.sum(axis=1, keepdims=True)
        value = float(np.abs(quad).max(axis=1).min())
        samples = int(coeff.shape[0])
    return SearchReport(
        n=n,
        mode="exhaustive",
        value=value,
        samples=samples,
        seed=0,
        elapsed=time.perf_counter() - t0,
    )


def exact_average(n: int) -> SearchReport:
    """Exact mean of the decoupled sup norm over all 2^(n^2) sign matrices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_AVERAGE_CAP:
        raise EnumerationCapError(f"n={n} exceeds exact-average cap {EXACT_AVERAGE_CAP}")
    t0 = time.perf_counter()
    phis = _sign_scan(_bit_fields(n, n), n)
    return SearchReport(
        n=n,
        mode="exhaustive_average",
        value=float(phis.mean()),
        samples=int(phis.size),
        seed=0,
        elapsed=time.perf_counter() - t0,
    )


def monte_carlo_average(n: int, samples: int, seed: int) -> SearchReport:
    """Unbiased estimate of the mean sup norm over uniform random sign matrices.

    Matrices are drawn from a counter-based Philox generator keyed by ``seed``
    in a fixed order, so identical (n, samples, seed) reproduce the report
    bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MONTE_CARLO_CAP:
        raise EnumerationCapError(f"n={n} exceeds Monte-Carlo cap {MONTE_CARLO_CAP}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=seed))
    cols = rng.integers(0, 2**n, size=(samples, n), dtype=np.uint64)
    phis = _sign_scan(cols, n).astype(np.float64)
    std = float(phis.std(ddof=1)) if samples > 1 else 0.0
    return SearchReport(
        n=n,
        mode="monte_carlo",
        value=float(phis.mean()),
        samples=samples,
        seed=seed,
        elapsed=time.perf_counter() - t0,
        stddev=std,
        rng=_RNG_NAME,
    )


def sidon_defect(k: int) -> float:
    """Sup norm of the Walsh arrangement divided by its l1 coefficient mass 2^(2k).

    Decays like 2^(-k/2), witnessing that the product system is not Sidon.
    The scan cap keeps k at or below 4 (k=5 would need 2^31 sign vectors).
    """
    if k > SIDON_K_CAP:
        raise EnumerationCapError(f"k={k} exceeds cap {SIDON_K_CAP}")
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


def _block_windows(K: int) -> list[tuple[int, int]]:
    return [(2**k, 2 ** (k + 1)) for k in range(K + 1)]


def theorem7_witness(eps: float, K: int, mode: str = "full") -> Theorem7Report:
    """Build and check the block construction that escapes the Marcinkiewicz space.

    Block k carries Walsh signs on the index window (2^k, 2^(k+1)]; its sup
    norm stays below 2^(3k/2) while flipping the signs to all-ones produces
    the peak value 2^(2k) on a corner of the square.  Full mode additionally
    computes exact rearrangements of the flipped blocks and the quasi-norms of
    the partial sign-flipped images, whose lower bounds grow like
    2^(eps*k/2 - 1).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if mode not in ("full", "corner"):
        raise ValueError(f"mode must be 'full' or 'corner', got {mode}")
    cap = THEOREM7_FULL_CAP if mode == "full" else THEOREM7_CORNER_CAP
    if K > cap:
        raise EnumerationCapError(f"K={K} exceeds {mode}-mode cap {cap}")

    blocks: list[Theorem7Block] = []
    for k, (lo, hi) in enumerate(_block_windows(K)):
        width = hi - lo
        theta = walsh_sign_arrangement(k)
        signed_sup = sup_norm_decoupled(theta)
        corner = float(np.ones((width, width)).sum())
        rearr_at = None
        u_k = None
        ratio = None
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
        top = 2 ** (K + 1)
        for kk in range(K + 1):
            coeffs = np.zeros((top, top))
            for k, (lo, hi) in enumerate(_block_windows(kk)):
                coeffs[lo:hi, lo:hi] = 2.0 ** (-(3.0 + eps) * k / 2.0)
            image = eval_decoupled(coeffs)
            partial_quasinorms.append(quasinorm_phi_eps(rearrangement(image), eps))
    return Theorem7Report(
        eps=eps,
        mode=mode,
        blocks=blocks,
        partial_quasinorms=partial_quasinorms,
        lower_bounds=lower_bounds,
    )
