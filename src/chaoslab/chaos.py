"""Degree-2 chaos polynomials: decoupled on the square, undecoupled on the interval.

Coefficient and sign matrices are plain float arrays; validators below enforce
the contracts (finite entries, exact +-1 signs, zero diagonal where required).
The undecoupled chaos is ``dyadic.quadratic_form``: meet-in-the-middle blocks, no full sign table.
``decoupled_law`` and ``undecoupled_law`` build only the quarter or half of the atoms that
carries |x|'s law, through the same builders whose output ``eval_*`` mirror, so their laws
are those of ``eval_*`` bit for bit and no table of all 2^(n+m) or 2^n atoms is made.
"""

from __future__ import annotations

import numpy as np

from .dyadic import (
    MAX_BITS_1D,
    MAX_BITS_2D,
    StepFunction1D,
    StepFunction2D,
    full_sign_matrix,
    linear_forms,
    quadratic_form,
)
from .errors import EnumerationCapError

DECOUPLE_SUBSETS_CAP = 12


def as_coefficient_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"coefficient matrix must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient matrix entries must be finite")
    return a


def as_sign_matrix(theta, symmetric: bool = False) -> np.ndarray:
    t = as_coefficient_matrix(theta)
    if not np.all(np.abs(t) == 1.0):
        raise ValueError("sign matrix entries must be exactly +-1")
    if symmetric:
        if t.shape[0] != t.shape[1] or not np.array_equal(t, t.T):
            raise ValueError("sign matrix is not symmetric")
    return t


class _DecoupledChaos(StepFunction2D):
    """eps^T A delta, odd in eps and in delta: the block eps_n = delta_m = +1 carries |x|'s law."""

    def law_atoms(self) -> tuple[np.ndarray, float]:
        hn, hm = 2 ** (self.n - 1), 2 ** (self.m - 1)
        return self.values[:hn, :hm], 4.0 * self.atom_measure


class _UndecoupledChaos(StepFunction1D):
    """eps^T B eps, even in eps: the half eps_n = +1 carries |x|'s law."""

    def law_atoms(self) -> tuple[np.ndarray, float]:
        return self.values[: 2 ** (self.n - 1)], 2.0 * self.atom_measure


def _half_forms(c: np.ndarray) -> np.ndarray:
    """eps^T c over the masks with eps_last = +1, in mask order: no table of the other half."""
    forms = linear_forms(c[:-1])
    forms += c[-1]
    return forms


def _decoupled_quarter(a, max_bits: int, per_axis: int) -> np.ndarray:
    """A (per_axis * 2^(n-1), per_axis * 2^(m-1)) table whose top left block holds eps^T A delta
    over the quarter eps_n = delta_m = +1 (masks below 2^(n-1) and 2^(m-1)), the rest unwritten.

    The quarter is a matrix product, the half forms of the longer axis times the half sign
    table of the shorter, so no sign table of the longer axis is built.
    """
    a = as_coefficient_matrix(a)
    n, m = a.shape
    EnumerationCapError.check(f"{n}x{m} decoupled sign bits", n + m, max_bits)
    hn, hm = 2 ** (n - 1), 2 ** (m - 1)
    values = np.empty((per_axis * hn, per_axis * hm))
    quarter, c = (values[:hn, :hm], a) if n >= m else (values[:hn, :hm].T, a.T)
    np.matmul(_half_forms(c), _half_forms(np.eye(c.shape[1])).T, out=quarter)
    return values


def eval_decoupled(a, max_bits: int = MAX_BITS_2D) -> StepFunction2D:
    """Step function of sum(a_ij * r_i(s) * r_j(t)) on the square.

    Value at the mask pair (e, d) is eps^T A delta, for all 2^(n+m) sign pairs.  Only the
    quarter with eps_n = delta_m = +1 is computed (``_decoupled_quarter``); complementing a
    mask negates its sign vector and maps mask k to 2^n - 1 - k, so the other three blocks
    are its negated mirror images, exact by construction.  The result reads its law
    (``law_atoms``) from that quarter alone, at four times the atom measure.
    """
    values = _decoupled_quarter(a, max_bits, 2)
    hn, hm = values.shape[0] // 2, values.shape[1] // 2
    np.negative(values[:hn, hm - 1 :: -1], out=values[:hn, hm:])
    np.negative(values[hn - 1 :: -1], out=values[hn:])
    return _DecoupledChaos(n=hn.bit_length(), m=hm.bit_length(), values=values)


def decoupled_law(a, max_bits: int = MAX_BITS_2D) -> StepFunction1D:
    """A step function of generation n + m - 2 whose |values| have the law of
    ``eval_decoupled(a, max_bits)``: the quarter that it mirrors, bit for bit, raveled."""
    quarter = _decoupled_quarter(a, max_bits, 1)
    return StepFunction1D(n=quarter.size.bit_length() - 1, values=quarter.reshape(-1))


def _as_undecoupled(b, max_bits: int) -> np.ndarray:
    """b as a square float matrix with a zero diagonal, of at most ``max_bits`` sign bits."""
    b = as_coefficient_matrix(b)
    n, m = b.shape
    if n != m:
        raise ValueError(f"undecoupled coefficients must be square, got {n}x{m}")
    if np.any(np.diagonal(b) != 0.0):
        raise ValueError("diagonal must vanish")
    EnumerationCapError.check(f"{n}x{n} undecoupled sign bits", n, max_bits)
    return b


def eval_undecoupled(b, max_bits: int = MAX_BITS_1D) -> StepFunction1D:
    """Step function of sum(b_ij * r_i(t) * r_j(t)), i != j, on the interval.

    The coefficient matrix must be square with an explicitly zero diagonal.  The form is
    even and ``quadratic_form`` mirrors the half eps_n = +1 (the blocks ``sup_norm_undecoupled``
    scans), so the result reads its law from that half at twice the atom measure.
    """
    b = _as_undecoupled(b, max_bits)
    return _UndecoupledChaos(n=b.shape[0], values=quadratic_form(b))


def undecoupled_law(b, max_bits: int = MAX_BITS_1D) -> StepFunction1D:
    """A step function of generation n - 1 with the law of ``eval_undecoupled(b, max_bits)``:
    the half eps_n = +1 that ``quadratic_form`` mirrors, bit for bit."""
    half = quadratic_form(_as_undecoupled(b, max_bits), mirror=False)
    return StepFunction1D(n=half.size.bit_length() - 1, values=half)


def decouple_identity_rhs(b, N: int) -> StepFunction1D:
    """Subset average that reconstructs the undecoupled polynomial.

    Sums, over the 2^N subsets D of {1..N}, the polynomial with coefficients (b_ij + b_ji)
    on rows in D and columns outside D, times 2^(1-N); D and its complement give one form,
    counted twice.  Forms come from the sign table, not ``quadratic_form``, so this checks
    eval_undecoupled(b): equal in exact arithmetic, bit for bit on integers.
    """
    b = as_coefficient_matrix(b)
    if b.shape != (N, N):
        raise ValueError(f"coefficient matrix must be {N}x{N}, got {b.shape}")
    if np.any(np.diagonal(b) != 0.0):
        raise ValueError("diagonal must vanish")
    EnumerationCapError.check("decoupling subset bits", N, DECOUPLE_SUBSETS_CAP)
    a = b + b.T
    E = full_sign_matrix(N)
    total = np.zeros(2**N, dtype=np.float64)
    for d in range(2 ** (N - 1)):  # the subsets without N; complements transpose the form
        in_d = ((d >> np.arange(N)) & 1).astype(bool)
        total += ((E[:, in_d] @ a[np.ix_(in_d, ~in_d)]) * E[:, ~in_d]).sum(axis=1)
    return StepFunction1D(n=N, values=2.0 ** (2 - N) * total)


def apply_signs(a, theta) -> np.ndarray:
    """Entrywise sign change of a coefficient matrix."""
    a = as_coefficient_matrix(a)
    t = as_sign_matrix(theta)
    if a.shape != t.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {t.shape}")
    return a * t


def chaos_coefficients(x: StepFunction2D, n: int, m: int) -> np.ndarray:
    """Fourier coefficients of x against the products r_i(s) r_j(t), i<=n, j<=m.

    Composing with eval_decoupled realizes the orthogonal projection onto the
    chaos; on a pure chaos polynomial this recovers its coefficient matrix.
    """
    if n > x.n or m > x.m:
        raise ValueError(
            f"generation too small: need ({n}, {m}), step function has ({x.n}, {x.m})"
        )
    E = full_sign_matrix(x.n)[:, :n]
    D = full_sign_matrix(x.m)[:, :m]
    return (E.T @ x.values @ D) * x.atom_measure


def shift_map(a, n: int) -> np.ndarray:
    """Undecoupled 2n x 2n coefficients equimeasurable with the decoupled chaos.

    Places a_ij at position (i, j+n); the two index blocks then ride on
    independent Rademacher functions of the same variable.
    """
    a = as_coefficient_matrix(a)
    if a.shape != (n, n):
        raise ValueError(f"coefficient matrix must be {n}x{n}, got {a.shape}")
    b = np.zeros((2 * n, 2 * n), dtype=np.float64)
    b[:n, n:] = a
    return b
