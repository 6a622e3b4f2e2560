"""Dyadic sample space: Rademacher/Walsh evaluation and exact step functions.

Every function in scope is constant on open dyadic cells, so all evaluation
happens on cells, never at breakpoints (where sign(sin) vanishes).  A cell of
generation ``m`` is described by its binary digits ``s_1 .. s_m`` (most
significant first): it is the interval ``(sum s_i 2^-i, sum s_i 2^-i + 2^-m)``.

The k-th Rademacher function equals ``+1`` on cells whose k-th digit is 0 and
``-1`` otherwise.  Polynomials in ``r_1 .. r_n`` are stored densely, indexed
by a sign-vector bitmask: bit ``i-1`` of the mask holds the i-th digit, so a
set bit means ``r_i = -1`` there.  All atoms of a generation carry equal
weight, hence masks can be enumerated in any order without touching the distribution.
``linear_forms`` tabulates eps^T c by doubling; ``quadratic_factors`` splits eps to factor eps^T b eps,
which ``quadratic_blocks`` multiplies out.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, InsufficientPrecisionError

#: Default cap on the number of enumerated sign bits for a 1D step function.
MAX_BITS_1D = 24

#: Default cap on the total number of sign bits (both axes) materialized in 2D.
MAX_BITS_2D = 26

_CHUNK = 1 << 19  # bytes per block of a quadratic form or of a pair scan


@dataclass(frozen=True)
class DyadicPoint:
    """An open dyadic cell, given by its binary digits, most significant first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("a dyadic point needs at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def precision(self) -> int:
        return len(self.bits)

    @property
    def left(self) -> float:
        """Left endpoint of the cell."""
        return sum(b * 2.0 ** -(i + 1) for i, b in enumerate(self.bits))

    @classmethod
    def cell(cls, index: int, precision: int) -> "DyadicPoint":
        """The index-th cell (0-based, left to right) of the given generation."""
        if not 0 <= index < 2**precision:
            raise ValueError(f"cell index {index} out of range for precision {precision}")
        return cls(tuple((index >> (precision - 1 - i)) & 1 for i in range(precision)))


def rademacher(k: int, p: DyadicPoint) -> int:
    """Value of the k-th Rademacher function on the cell ``p``.

    Equals +1 when the k-th binary digit of the cell is 0; this is the sign of
    the corresponding sine on the open cell.
    """
    if k < 1:
        raise ValueError("Rademacher index must be >= 1")
    if k > p.precision:
        raise InsufficientPrecisionError(
            f"insufficient precision: r_{k} needs {k} bits, point has {p.precision}"
        )
    return 1 - 2 * p.bits[k - 1]


def walsh(j: int, p: DyadicPoint) -> int:
    """Value of the j-th Walsh function (1-based, w_1 = 1) on the cell ``p``.

    w_{2^i + j'} = r_{i+1} * w_{j'}; unwinding the recursion, w_j is the
    product of r_{b+1} over the set bits b of j-1.  The first 2^k Walsh
    functions therefore only involve r_1 .. r_k and are constant on cells of
    generation k.
    """
    if j < 1:
        raise ValueError("Walsh index must be >= 1")
    sign = 1
    b = j - 1
    pos = 1
    while b:
        if b & 1:
            sign *= rademacher(pos, p)
        b >>= 1
        pos += 1
    return sign


def dyadic_add(s: DyadicPoint, u: DyadicPoint) -> DyadicPoint:
    """Dyadic group addition: bitwise XOR of the digit sequences."""
    if s.precision != u.precision:
        raise ValueError(
            f"precision mismatch: {s.precision} vs {u.precision}"
        )
    return DyadicPoint(tuple(a ^ b for a, b in zip(s.bits, u.bits)))


def full_sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign vectors as a (2^n, n) matrix of +-1 floats, mask order, by doubling: rows
    2^j .. 2^(j+1) - 1 copy the rows below with sign j set to -1."""
    out = np.empty((2**n, n))
    out[0] = 1.0
    for j in range(n):
        size = 1 << j
        out[size : 2 * size] = out[:size]
        out[size : 2 * size, j] = -1.0
    return out


def linear_forms(c) -> np.ndarray:
    """eps^T c for every mask, for c of shape (n, ...), by doubling: O(2^n) per column."""
    c = np.asarray(c, dtype=np.float64)
    out = np.zeros((2 ** c.shape[0],) + c.shape[1:])
    for j, cj in enumerate(c):
        size = 1 << j
        np.subtract(out[:size], cj, out=out[size : 2 * size])
        out[:size] += cj
    return out


def quadratic_factors(b) -> tuple[np.ndarray, np.ndarray]:
    """(left, right), whose product is eps^T b eps of a square float b over the masks with
    eps_n = +1, rows w (w_last = +1) by columns u, in mask order.

    With eps = (u, w), u the low h = n // 2 bits, eps^T b eps = u^T b11 u + w^T b22 w
    + u^T (b12 + b21^T) w, so left = [w, w^T b22 w, 1] and right = [(b12 + b21^T)^T u; 1;
    u^T b11 u], factors of rank n - h + 2 from one sign table of 2^(n-h) rows.  Every term of
    an entry is exact (a sign times a stored value), so a product that sums an entry's terms
    in order, as OpenBLAS's gemm does in whole 8-column tiles, gives it bit for bit wherever
    the entry sits in the product.
    """
    n = b.shape[0]
    h = n // 2
    signs = full_sign_matrix(n - h)  # its first 2^h rows and h columns are the u table
    u, w = signs[: 2**h, :h], signs[: 2 ** (n - h - 1)]
    qw, qu = ((w @ b[h:, h:]) * w).sum(axis=1), ((u @ b[:h, :h]) * u).sum(axis=1)
    left = np.column_stack([w, qw, np.ones_like(qw)])
    right = np.vstack([(u @ (b[:h, h:] + b[h:, :h].T)).T, np.ones_like(qu), qu])
    return left, right


def quadratic_blocks(b, table=None) -> Iterator[np.ndarray]:
    """eps^T b eps of a square float b over the masks with eps_n = +1, in mask order, in blocks
    of whole rows of at most ``_CHUNK`` bytes (or one row), computed into ``table`` if given:
    each block is one matrix product of a run of ``quadratic_factors``' left rows and right.
    """
    left, right = quadratic_factors(b)
    rows = max(1, _CHUNK // (right.itemsize * right.shape[1]))
    for start in range(0, left.shape[0], rows):
        yield np.matmul(left[start : start + rows], right,
                        out=None if table is None else table[start : start + rows])


def quadratic_form(b, mirror: bool = True) -> np.ndarray:
    """eps^T b eps for every mask of a square b: ``quadratic_blocks`` and its mirror image, as
    complementing a mask negates eps, so negated masks agree bit for bit.  ``mirror=False``
    returns the half eps_n = +1 alone, the same bits."""
    b = np.asarray(b, dtype=np.float64)
    half = 2 ** b.shape[0] // 2
    if not half:  # no variables: the form is the constant 0
        return np.zeros(1)
    out = np.empty(2 * half if mirror else half)
    for _ in quadratic_blocks(b, out[:half].reshape(-1, 2 ** (b.shape[0] // 2))):
        pass  # each block is computed in place
    if mirror:
        out[half:] = out[half - 1 :: -1]
    return out


@dataclass(frozen=True, eq=False)
class StepFunction1D:
    """Exact step function on the interval, one value per generation-n cell."""

    n: int
    values: np.ndarray  # shape (2**n,), indexed by sign-vector bitmask

    def __post_init__(self):
        if self.values.shape != (2**self.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match generation {self.n}"
            )

    @property
    def atom_measure(self) -> float:
        return 2.0**-self.n

    def flat_values(self) -> np.ndarray:
        return self.values

    def law_atoms(self) -> tuple[np.ndarray, float]:
        """Atoms whose |values| carry the law of |x| (any shape), and the measure of each."""
        return self.flat_values(), self.atom_measure

    def integral(self) -> float:
        """Exact integral over the interval."""
        return float(self.values.sum()) * self.atom_measure


@dataclass(frozen=True, eq=False)
class StepFunction2D:
    """Exact step function on the square, one value per pair of cells."""

    n: int
    m: int
    values: np.ndarray  # shape (2**n, 2**m), indexed by (s-mask, t-mask)

    def __post_init__(self):
        if self.values.shape != (2**self.n, 2**self.m):
            raise ValueError(
                f"values shape {self.values.shape} does not match generations "
                f"({self.n}, {self.m})"
            )

    @property
    def atom_measure(self) -> float:
        return 2.0 ** -(self.n + self.m)

    def flat_values(self) -> np.ndarray:
        return self.values.reshape(-1)

    def law_atoms(self) -> tuple[np.ndarray, float]:
        """Atoms whose |values| carry the law of |x| (any shape), and the measure of each."""
        return self.flat_values(), self.atom_measure

    def integral(self) -> float:
        return float(self.values.sum()) * self.atom_measure


def materialize_1d(coeffs, max_bits: int = MAX_BITS_1D) -> StepFunction1D:
    """Step function of the linear polynomial sum(c_i * r_i) over all sign vectors.

    Exact: the value at mask m is the signed sum of the coefficients, built by
    one doubling pass per coefficient (``linear_forms``).
    """
    c = np.asarray(coeffs, dtype=np.float64).reshape(-1)
    n = c.size
    if n < 1:
        raise ValueError("need at least one coefficient")
    EnumerationCapError.check("linear form sign bits", n, max_bits)
    return StepFunction1D(n=n, values=linear_forms(c))
