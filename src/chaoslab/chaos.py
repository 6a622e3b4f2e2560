"""Degree-2 chaos polynomials: decoupled on the square, undecoupled on the interval.

Coefficient and sign matrices are plain float arrays; validators below enforce
the contracts (finite entries, exact +-1 signs, zero diagonal where required).
The undecoupled chaos is built by doubling (``dyadic.quadratic_form``), no sign table.
"""

from __future__ import annotations

import numpy as np

from .dyadic import (
    MAX_BITS_1D,
    MAX_BITS_2D,
    StepFunction1D,
    StepFunction2D,
    full_sign_matrix,
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


def _check_bits(total: int, cap: int, what: str) -> None:
    if total > cap:
        raise EnumerationCapError(
            f"enumeration too large: {what} needs {total} bits, cap is {cap}"
        )


def eval_decoupled(a, max_bits: int = MAX_BITS_2D) -> StepFunction2D:
    """Step function of sum(a_ij * r_i(s) * r_j(t)) on the square.

    Value at the mask pair (e, d) is eps^T A delta; computed exactly for all
    2^(n+m) sign pairs.
    """
    a = as_coefficient_matrix(a)
    n, m = a.shape
    _check_bits(n + m, max_bits, f"{n}x{m} decoupled evaluation")
    E = full_sign_matrix(n)
    D = full_sign_matrix(m)
    return StepFunction2D(n=n, m=m, values=E @ a @ D.T)


def eval_undecoupled(b, max_bits: int = MAX_BITS_1D) -> StepFunction1D:
    """Step function of sum(b_ij * r_i(t) * r_j(t)), i != j, on the interval.

    The coefficient matrix must be square with an explicitly zero diagonal.
    """
    b = as_coefficient_matrix(b)
    n, m = b.shape
    if n != m:
        raise ValueError(f"undecoupled coefficients must be square, got {n}x{m}")
    if np.any(np.diagonal(b) != 0.0):
        raise ValueError("diagonal must vanish")
    _check_bits(n, max_bits, f"{n}x{n} undecoupled evaluation")
    return StepFunction1D(n=n, values=quadratic_form(b))


def decouple_identity_rhs(b, N: int) -> StepFunction1D:
    """Subset average that reconstructs the undecoupled polynomial.

    Sums, over the 2^N subsets D of {1..N}, the polynomial with coefficients (b_ij + b_ji)
    on rows in D and columns outside D, times 2^(1-N); D and its complement give one form,
    counted twice.  Equals eval_undecoupled(b) in exact arithmetic, bit for bit on integers.
    """
    b = as_coefficient_matrix(b)
    if b.shape != (N, N):
        raise ValueError(f"coefficient matrix must be {N}x{N}, got {b.shape}")
    if np.any(np.diagonal(b) != 0.0):
        raise ValueError("diagonal must vanish")
    if N > DECOUPLE_SUBSETS_CAP:
        raise EnumerationCapError(
            f"enumeration too large: 2^{N} subsets exceeds cap 2^{DECOUPLE_SUBSETS_CAP}"
        )
    a = b + b.T
    total = np.zeros(2**N, dtype=np.float64)
    for d in range(2 ** (N - 1)):  # the subsets without N; complements transpose the form
        in_d = ((d >> np.arange(N)) & 1).astype(bool)
        total += quadratic_form(np.where(np.outer(in_d, ~in_d), a, 0.0))
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
