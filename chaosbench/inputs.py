"""Benchmark inputs, generated from the workload seed with NumPy only.

Both the worker (which feeds them to chaoslab) and the checker (which feeds
them to the references in ``oracles``) call ``make_inputs``, so the program
never sees anything but the generated arrays and files.
"""

from __future__ import annotations

import numpy as np

# The integer chaos of the ``sign`` workload carries the known Lp-overflow
# operation, whose failure must not depend on the seed; this key gives a
# 10x10 matrix with entries in -3..3, max|x| = 80 and 41 distinct |x|.
INT_CHAOS_KEY = 3

# Stale-artifact pair of the ``cli`` workload: both matrices are fixed so the
# failure does not depend on the seed.  Their sup norms are 8 and 16.
STALE_FIRST = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
STALE_SECOND = np.ones((4, 4))


def sign_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)


def symmetric_sign_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    upper = np.triu(sign_matrix(rng, n))
    return upper + np.triu(upper, 1).T


def zero_diagonal(a: np.ndarray) -> np.ndarray:
    np.fill_diagonal(a, 0.0)
    return a


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "real":
        a10 = rng.standard_normal((10, 10))
        return {
            "a10": a10,
            "exp_u": 0.5 / float(np.linalg.norm(a10)),
            "a8": rng.standard_normal((8, 8)),
            "b18": zero_diagonal(rng.standard_normal((18, 18))),
            "g20": rng.standard_normal((20, 20)),
        }
    if workload == "sign":
        return {
            "s22": sign_matrix(rng, 22),
            "theorem6": [symmetric_sign_matrix(rng, n) for n in range(3, 15)],
            "mc_seed": _seed(rng),
            "int10": np.random.default_rng(INT_CHAOS_KEY)
            .integers(-3, 4, (10, 10))
            .astype(np.float64),
        }
    if workload == "cli":
        return {
            "g11": rng.standard_normal((11, 11)),
            "g10": rng.standard_normal((10, 10)),
            "g8": rng.standard_normal((8, 8)),
            "b16": zero_diagonal(rng.standard_normal((16, 16))),
            "s20": sign_matrix(rng, 20),
            "s16": symmetric_sign_matrix(rng, 16),
            "scaling_seed": _seed(rng),
            "stale_first": STALE_FIRST,
            "stale_second": STALE_SECOND,
        }
    raise ValueError(f"unknown workload {workload!r}")


def format_matrix(a: np.ndarray) -> str:
    """The CLI's whitespace matrix format, with every float written exactly."""
    n, m = a.shape
    rows = [" ".join(repr(float(v)) for v in row) for row in a]
    return f"{n} {m}\n" + "\n".join(rows) + "\n"
