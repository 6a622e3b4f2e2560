"""A fixed reference computation that times the host, not chaoslab.

The machine this benchmark runs on is a share of a host whose speed for
single-threaded work moves by 30-40% for minutes at a time (other tenants,
clock changes).  A run lasts well under a minute, so every run sees one
speed, and ten runs see several; the speed also flickers from one second to
the next.  To compare runs, the timed work is cut into segments with a
reference sample (the mean time of a fixed unit of work, over a block)
before and after each, every segment is divided by the mean of its two
samples, and the sum is scaled back to seconds by ``REFERENCE_S``: the
reported time is the time the work would take on a host where one reference
unit takes ``REFERENCE_S``.

The reference uses NumPy and plain Python only (never chaoslab), in the mix
the workloads spend their time on: a sign-table GEMM, sorting, an
element-wise kernel and an interpreted loop.  It works in buffers allocated
once (6 MiB, part of the worker's peak RSS), so its time does not depend on
the state the allocator was left in by the work around it.  A change to
chaoslab moves the timed work and not the reference, so it moves the
reported time by the same share as the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.02  # scale of the reported times; about one unit on this host
MIN_UNITS = 2

_rng = np.random.default_rng(20240101)
_A = _rng.standard_normal((9, 9))
_V = _rng.standard_normal(1 << 18)
_SIGNS = 1.0 - 2.0 * ((np.arange(512)[:, None] >> np.arange(9)) & 1)
_SIGNS_T = np.ascontiguousarray(_SIGNS.T)
_HALF = np.empty((512, 9))
_ATOMS = np.empty((512, 512))
_BUF = np.empty(1 << 18)


def _work() -> float:
    t0 = time.perf_counter()
    np.matmul(_SIGNS, _A, out=_HALF)
    np.matmul(_HALF, _SIGNS_T, out=_ATOMS)  # 2^18 atoms of a 9x9 decoupled chaos
    flat = _ATOMS.reshape(-1)
    np.abs(flat, out=flat)
    flat.sort()
    np.copyto(_BUF, _V)
    _BUF.sort()
    np.multiply(_V, _V, out=_BUF)
    np.negative(_BUF, out=_BUF)
    np.exp(_BUF, out=_BUF)
    _BUF.sum()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t0


def sample(seconds: float) -> float:
    """Mean seconds of one reference unit, over a block of at least ``seconds``.

    The host's speed also flickers within a second, so a sample is a mean
    over many units, as a pass is a sum over many operations.
    """
    times = [_work() for _ in range(MIN_UNITS)]
    while sum(times) < seconds:
        times.append(_work())
    return statistics.fmean(times)


def normalised(segments: list[float], blocks: list[float]) -> float:
    """Seconds at reference speed of the work timed in ``segments``.

    ``blocks[k]`` and ``blocks[k + 1]`` are the reference samples taken right
    before and right after ``segments[k]``; each segment is scaled by their mean.
    """
    assert len(blocks) == len(segments) + 1
    return sum(s * 2.0 * REFERENCE_S / (a + b) for s, a, b in zip(segments, blocks, blocks[1:]))
