"""Distribution functions, decreasing rearrangements, and the log-log tail measure.

All step functions in this package take finitely many values on equal-weight
atoms, so distributions and rearrangements are computed exactly by one sort of
|x| and a diff of neighbouring values.  The sort covers only the atoms that
``law_atoms`` names: a quarter of them for ``eval_decoupled`` (|x| is even in
each axis's signs) and half for ``eval_undecoupled`` (x itself is even), each
standing for 4 or 2 atoms; this is exact because the other atoms hold exact
negations or copies of theirs.  A value is snapped into a step when it lies
within ``VALUE_SNAP`` of the step's first value, to absorb floating-point
noise; in-scope functions only take values that are small signed sums of
coefficients, so genuinely distinct values never collide.

Work on a law goes ``BLOCK`` elements at a time through one or two block
buffers, so past the sort buffer no array as long as the law is allocated:
the drop test of the sort, the value gaps of ``equimeasurable``, and the
bounds (cumulative masses) that the norms in ``spaces`` read through
``Rearrangement.bound_blocks``.  ``BLOCK`` doubles fill 64 KiB, half of
glibc's default 128 KiB mmap threshold, so a block buffer comes from the heap
and reuses its pages instead of faulting in fresh ones on every call.  A law
of one atom per step keeps its one weight as a read-only broadcast view; that
weight is a power of two w, so bound k is (k + 1) w in closed form, bit for
bit the cumsum, and only other masses are summed.  The log-log tail measure
``log_distribution_L`` is the one numerical value here: a fixed 160-node
Gauss-Legendre rule, with no tolerance to set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import StepFunction1D, StepFunction2D

VALUE_SNAP = 1e-12
BLOCK = 1 << 13  # elements per block buffer: 64 KiB of doubles, below glibc's mmap threshold
_UNDERFLOW_EFOLDS = 750.0  # exp(-750) is 0 in double precision
_PANELS = 8  # equal panels of the Gauss-Legendre rule for L(z)

StepFunction = StepFunction1D | StepFunction2D


@dataclass(frozen=True, eq=False)
class Rearrangement:
    """Decreasing rearrangement as strictly decreasing (value, mass) steps.

    Masses are positive and sum to a total mass M, which is 1 for every law
    this package builds; ``orlicz_exp_norm`` reads any M.  They may be a read-only
    view, as of one weight broadcast over every step.  The function is read
    left-continuously on (0, M]: x*(t) = values[k] for t in (bound[k-1], bound[k]].
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.values.size != self.masses.size or self.values.size == 0:
            raise ValueError("values and masses must be equal-length and nonempty")
        # comparisons with NaN are False, and min propagates NaN, so these reject NaN values
        # and masses too
        if not (_ordered(self.values, np.greater) and self.values[-1] == self.values[-1]):
            raise ValueError("values must be strictly decreasing and not NaN")
        # one weight broadcast over every step (stride 0) is checked once, not once a step
        masses = self.masses[:1] if self.masses.strides[0] == 0 else self.masses
        if not masses.min() > 0:
            raise ValueError("masses must be positive")

    def _power_of_two_weight(self) -> float | None:
        """The one weight w broadcast over every step (stride 0) when w is a power of two, else
        None.  Then bound k is exactly (k + 1) w: each partial sum of the cumsum is an integer
        below 2^53 times w, so no addition rounds (and one that overflows gives inf either way)."""
        if self.masses.strides[0] != 0:
            return None
        w = float(self.masses[0])
        return w if math.frexp(w)[0] == 0.5 else None

    @property
    def bounds(self) -> np.ndarray:
        """Right endpoints of the steps (cumulative masses), in closed form as in ``bound_blocks``."""
        w = self._power_of_two_weight()
        if w is None:
            return np.cumsum(self.masses)
        bounds = np.arange(1.0, self.values.size + 1.0)
        bounds *= w
        return bounds

    def bound_blocks(self, buf: np.ndarray, keep=None):
        """Yield (lo, hi, bounds[lo:hi]) for blocks of ``BLOCK`` steps, each written in ``buf``,
        which the caller may then overwrite: the bounds of ``bounds``, bit for bit.  One
        power-of-two weight w broadcast over the steps gives each block as (counts + lo) w,
        ``counts`` being 1..BLOCK, made once per call (a module constant would stay resident
        in every process); other masses are summed, carrying the blocks before.  Given
        ``keep``, a test of (lo, bounds[hi - 1]) made as each block comes due, a block that
        fails it is skipped: not yielded, nor, under one weight, written, as its last bound
        is hi w."""
        w = self._power_of_two_weight()
        if w is not None:
            counts = np.arange(1.0, min(BLOCK, self.values.size) + 1.0)
        carry = 0.0
        for lo in range(0, self.values.size, BLOCK):
            hi = min(lo + BLOCK, self.values.size)
            block = buf[: hi - lo]
            if w is None:
                np.copyto(block, self.masses[lo:hi])
                carry = carry_cumsum(block, carry)
            if keep is not None and not keep(lo, carry if w is None else hi * w):
                continue
            if w is not None:
                np.add(counts[: hi - lo], lo, out=block)
                block *= w
            yield lo, hi, block

    @property
    def steps(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.masses.tolist()))

    def at(self, t: float) -> float:
        """Left-continuous evaluation x*(t) for t in (0, M]."""
        bounds = self.bounds
        if not 0.0 < t <= bounds[-1] + 1e-15:
            raise ValueError(f"t={t} outside (0, {bounds[-1]:g}]")
        k = int(np.searchsorted(bounds, t, side="left"))
        return float(self.values[min(k, self.values.size - 1)])

    def integral(self) -> float:
        return float(np.dot(self.values, self.masses))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exact distribution function of |x| as threshold/measure-above pairs.

    ``measure_above[k]`` is the measure of the set where |x| exceeds
    ``thresholds[k]``; thresholds are the distinct values of |x|, ascending.
    """

    thresholds: np.ndarray
    measure_above: np.ndarray

    def __post_init__(self):
        if self.thresholds.size != self.measure_above.size:
            raise ValueError("thresholds and measure_above must be equal-length")
        # comparisons with NaN are False, so these reject NaN too
        if not _ordered(self.thresholds, np.less):
            raise ValueError("thresholds must be strictly increasing")
        if not _ordered(self.measure_above, np.greater_equal):
            raise ValueError("measure_above must be non-increasing")

    def at(self, z: float) -> float:
        """n_x(z): measure of {|x| > z}."""
        if z < 0:
            return 1.0
        k = int(np.searchsorted(self.thresholds, z, side="right"))
        if k == 0:
            return 1.0
        return float(self.measure_above[k - 1])


def block_buffer(size: int) -> np.ndarray:
    """A buffer of one block, or of ``size`` elements when the law is shorter."""
    return np.empty(min(BLOCK, size))


def _ordered(a: np.ndarray, op) -> bool:
    """True iff op(a[k], a[k + 1]) for every k, compared a block at a time with no np.diff
    or step-sized temporary."""
    for lo in range(0, a.size - 1, BLOCK):
        run = a[lo : lo + BLOCK + 1]
        if not op(run[:-1], run[1:]).all():
            return False
    return True


def carry_cumsum(block: np.ndarray, carry: float) -> float:
    """Cumulative sums of ``block`` in place after the earlier blocks' total ``carry``, which
    rides in its first slot; returns the new total.  NumPy's cumsum adds in sequence, so block
    after block this is one long cumsum, bit for bit."""
    block[0] += carry
    np.cumsum(block, out=block)
    return float(block[-1])


def _sorted_steps(x: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |values| (descending) with exact masses, snap-merged.

    One sort buffer: the owned copy of the |values| of ``x.law_atoms()`` is sorted
    descending in place (negated, sorted, negated back, all exact).  A step starts
    wherever the descending values drop by more than ``VALUE_SNAP``.  When every
    value starts one, as for any law of distinct values, the buffer itself is
    returned as the values, and the masses are one atom's weight broadcast over
    them, a read-only view.  Otherwise each step is
    anchored at its first (largest) value and holds exactly the values within
    ``VALUE_SNAP`` of that anchor, so a run of small gaps that spans more than
    ``VALUE_SNAP`` in total is split again from its anchor.  Masses count atoms at
    the weight ``law_atoms`` gives them: the chaos's representative quarter or half
    has the same distinct values as all atoms, each repeated 4 or 2 times less, so
    steps and masses are the same bit for bit.  NaN values are rejected.
    """
    atoms, weight = x.law_atoms()
    vals = np.abs(atoms).reshape(-1)
    np.negative(vals, out=vals)
    vals.sort()
    np.negative(vals, out=vals)
    if vals[-1] != vals[-1]:  # NaN sorts last
        raise ValueError("step function values must not be NaN")
    # the drops go a block at a time through one gap buffer; the step flags ``new`` are built
    # from the first block whose gaps are not all wide, so a law of distinct values needs none
    gaps = block_buffer(vals.size)
    new = None
    for k in range(0, vals.size - 1, BLOCK):
        run = vals[k : k + BLOCK + 1]
        gap = np.subtract(run[:-1], run[1:], out=gaps[: run.size - 1])
        if new is None:
            if gap.min() > VALUE_SNAP:
                continue
            new = np.ones(vals.size, dtype=bool)
        np.greater(gap, VALUE_SNAP, out=new[k + 1 : k + run.size])
    if new is None:  # one atom per step
        return vals, np.broadcast_to(weight, vals.size)
    starts = np.flatnonzero(new)
    values = vals[starts]
    # a step whose last value lies more than VALUE_SNAP below its anchor is split again;
    # anchor - v grows along a descending run, so each cut is a searchsorted, marked in new
    lasts = vals[np.append(new[1:], True)]
    wide = np.flatnonzero(np.subtract(values, lasts, out=lasts) > VALUE_SNAP)
    for w in wide.tolist():
        k = int(starts[w])
        end = int(starts[w + 1]) if w + 1 < starts.size else vals.size
        while True:
            k += int(np.searchsorted(vals[k] - vals[k:end], VALUE_SNAP, side="right"))
            if k == end:
                break
            new[k] = True
    if wide.size:
        starts = np.flatnonzero(new)
        values = vals[starts]
    # each step-sized temporary is a fresh allocation, so the masses are written in place
    masses = np.empty(starts.size)
    np.subtract(starts[1:], starts[:-1], out=masses[:-1])
    masses[-1] = vals.size - starts[-1]
    masses *= weight
    return values, masses


def rearrangement(x: StepFunction) -> Rearrangement:
    """Decreasing rearrangement of |x| with equal values merged into one step."""
    values, masses = _sorted_steps(x)
    return Rearrangement(values=values, masses=masses)


def distribution(x: StepFunction) -> Distribution:
    """Exact distribution function of |x|."""
    values, masses = _sorted_steps(x)
    # thresholds ascend, so measure_above[k] is the mass of the steps above values[-1 - k]:
    # the cumsum of the masses, written back to front into one buffer after a 0
    above = np.empty(values.size)
    above[-1] = 0.0
    np.cumsum(masses[:-1], out=above[-2::-1])
    return Distribution(thresholds=values[::-1].copy(), measure_above=above)


def equimeasurable(x: StepFunction, y: StepFunction) -> bool:
    """True iff |x| and |y| have identical distribution functions.

    Values are compared after the snap merge; masses are exact dyadic
    rationals and must match exactly.  Both go a block at a time, the value
    gaps through one block buffer, so past the two sorts no array as long as
    the law is allocated.
    """
    vx, mx = _sorted_steps(x)
    vy, my = _sorted_steps(y)
    if vx.size != vy.size:
        return False
    buf = block_buffer(vx.size)
    for lo in range(0, vx.size, BLOCK):
        hi = min(lo + BLOCK, vx.size)
        gap = np.subtract(vx[lo:hi], vy[lo:hi], out=buf[: hi - lo])
        if not (np.abs(gap, out=gap) <= VALUE_SNAP).all():
            return False
        if not np.array_equal(mx[lo:hi], my[lo:hi]):
            return False
    return True


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``_PANELS`` equal panels of the 20-point Gauss-Legendre rule on
    [0, 1], built on first use."""
    # NumPy loads numpy.polynomial lazily; importing it here keeps it off `import chaoslab`
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    panels = np.arange(_PANELS)[:, None] + 0.5 * (nodes + 1.0)
    return panels.ravel() / _PANELS, np.tile(0.5 * weights / _PANELS, _PANELS)


def log_distribution_L(z: float) -> float:
    """Measure of {(s,t): ln(e/s) ln(e/t) > z} on the unit square, z >= 1.

    Slicing along s with u = ln(e/s): the t-section has measure
    min(1, e^(1-z/u)), so L(z) = e^(1-z) + e^2 * integral over [1, z] of
    exp(-u - z/u) du.  (Written without the clamp, the integrand would
    overshoot the section measure for u > z and L(1) would exceed 1.)  The
    substitution u = sqrt(z) e^theta folds both halves of [1, z] onto
    theta in [0, ln sqrt(z)]; with the peak height taken out, L(z) =
    e^(1-z) + e^(2 - 2 sqrt z) * integral of 2 sqrt(z) cosh(theta)
    exp(-4 sqrt(z) sinh^2(theta/2)) dtheta, smooth and peaked at theta = 0.
    One fixed rule integrates it: 8 equal panels of 20-point Gauss-Legendre,
    160 nodes.  Against a 40-digit quadrature its relative error is below
    2e-14 for z in [1, 1e4] and 6e-14 up to 1.2e5, where L(z) turns
    subnormal; 16 and 32 panels give the same, so that is rounding, not
    quadrature error.
    """
    if not 1.0 <= z < math.inf:
        raise ValueError(f"z must be finite and >= 1, got {z}")
    corner = math.exp(1.0 - z)
    if z == 1.0:
        return corner
    nodes, weights = _gauss_legendre()
    root = math.sqrt(z)
    peak = math.exp(2.0 - 2.0 * root)
    # the integrand evaluates to 0 once its exponent passes _UNDERFLOW_EFOLDS
    top = min(0.5 * math.log(z), 2.0 * math.asinh(math.sqrt(_UNDERFLOW_EFOLDS / (4.0 * root))))
    theta = top * nodes
    f = 2.0 * root * np.cosh(theta) * np.exp(-4.0 * root * np.sinh(0.5 * theta) ** 2)
    return corner + peak * top * float(f @ weights)
