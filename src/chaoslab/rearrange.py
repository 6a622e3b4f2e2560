"""Distribution functions, decreasing rearrangements, and the log-log tail measure.

All step functions in this package take finitely many values on equal-weight
atoms, so distributions and rearrangements are computed exactly by one sort of
|x| and a diff of neighbouring values.  A value is snapped into a step when it
lies within ``VALUE_SNAP`` of the step's first value, to absorb floating-point
noise; in-scope functions only take values that are small signed sums of
coefficients, so genuinely distinct values never collide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import StepFunction1D, StepFunction2D
from .errors import QuadratureError

VALUE_SNAP = 1e-12
QUAD_MAX_PANELS = 4096
_UNDERFLOW_EFOLDS = 750.0  # exp(-750) is 0 in double precision

StepFunction = StepFunction1D | StepFunction2D


@dataclass(frozen=True, eq=False)
class Rearrangement:
    """Decreasing rearrangement as strictly decreasing (value, mass) steps.

    Masses are positive and sum to the total measure 1; the function is read
    left-continuously: x*(t) = values[k] for t in (bound[k-1], bound[k]].
    """

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.values.size != self.masses.size or self.values.size == 0:
            raise ValueError("values and masses must be equal-length and nonempty")
        if np.any(np.diff(self.values) >= 0):
            raise ValueError("values must be strictly decreasing")
        if np.any(self.masses <= 0):
            raise ValueError("masses must be positive")

    @property
    def bounds(self) -> np.ndarray:
        """Right endpoints of the steps (cumulative masses)."""
        return np.cumsum(self.masses)

    @property
    def steps(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.masses.tolist()))

    def at(self, t: float) -> float:
        """Left-continuous evaluation x*(t) for t in (0, 1]."""
        if not 0.0 < t <= self.bounds[-1] + 1e-15:
            raise ValueError(f"t={t} outside (0, 1]")
        k = int(np.searchsorted(self.bounds, t, side="left"))
        k = min(k, self.values.size - 1)
        return float(self.values[k])

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
        if np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(self.measure_above) > 0):
            raise ValueError("measure_above must be non-increasing")

    def at(self, z: float) -> float:
        """n_x(z): measure of {|x| > z}."""
        if z < 0:
            return 1.0
        k = int(np.searchsorted(self.thresholds, z, side="right"))
        if k == 0:
            return 1.0
        return float(self.measure_above[k - 1])

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.thresholds.tolist(), self.measure_above.tolist()))


def _sorted_steps(x: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |values| (descending) with exact masses, snap-merged.

    One in-place sort of |x|, read backwards; a step starts wherever the
    descending values drop by more than ``VALUE_SNAP``.  Each step is anchored
    at its first (largest) value and holds exactly the values within
    ``VALUE_SNAP`` of that anchor, so a run of small gaps that spans more than
    ``VALUE_SNAP`` in total is split again from its anchor.
    """
    vals = np.abs(x.flat_values())
    vals.sort()
    vals = vals[::-1]
    starts = np.flatnonzero(vals[:-1] - vals[1:] > VALUE_SNAP) + 1
    starts = np.concatenate([[0], starts])
    ends = np.append(starts[1:], vals.size)
    # anchor - v grows along a descending run, so each re-split is a searchsorted
    for w in np.flatnonzero(vals[starts] - vals[ends - 1] > VALUE_SNAP)[::-1]:
        cuts = []
        k, end = int(starts[w]), int(ends[w])
        while True:
            k += int(np.searchsorted(vals[k] - vals[k:end], VALUE_SNAP, side="right"))
            if k == end:
                break
            cuts.append(k)
        starts = np.insert(starts, w + 1, cuts)
    ends = np.append(starts[1:], vals.size)
    return vals[starts], (ends - starts) * x.atom_measure


def rearrangement(x: StepFunction) -> Rearrangement:
    """Decreasing rearrangement of |x| with equal values merged into one step."""
    values, masses = _sorted_steps(x)
    return Rearrangement(values=values, masses=masses)


def distribution(x: StepFunction) -> Distribution:
    """Exact distribution function of |x|."""
    values, masses = _sorted_steps(x)
    above = np.concatenate([[0.0], np.cumsum(masses[:-1])])
    # ascending thresholds
    return Distribution(
        thresholds=values[::-1].copy(), measure_above=above[::-1].copy()
    )


def equimeasurable(x: StepFunction, y: StepFunction) -> bool:
    """True iff |x| and |y| have identical distribution functions.

    Values are compared after the snap merge; masses are exact dyadic
    rationals and must match exactly.
    """
    vx, mx = _sorted_steps(x)
    vy, my = _sorted_steps(y)
    if vx.size != vy.size:
        return False
    return bool(np.all(np.abs(vx - vy) <= VALUE_SNAP) and np.array_equal(mx, my))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-point Gauss-Legendre rule on [0, 1], built on first use."""
    # NumPy loads numpy.polynomial lazily; importing it here keeps it off `import chaoslab`
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def log_distribution_L(z: float, rel_tol: float = 1e-9) -> float:
    """Measure of {(s,t): ln(e/s) ln(e/t) > z} on the unit square, z >= 1.

    Slicing along s with u = ln(e/s): the t-section has measure
    min(1, e^(1-z/u)), so L(z) = e^(1-z) + e^2 * integral over [1, z] of
    exp(-u - z/u) du.  (Written without the clamp, the integrand would
    overshoot the section measure for u > z and L(1) would exceed 1.)  The
    substitution u = sqrt(z) e^theta folds both halves of [1, z] onto
    theta in [0, ln sqrt(z)]; with the peak height taken out, L(z) =
    e^(1-z) + e^(2 - 2 sqrt z) * integral of 2 sqrt(z) cosh(theta)
    exp(-4 sqrt(z) sinh^2(theta/2)) dtheta, smooth and peaked at theta = 0.
    A composite Gauss-Legendre rule doubles its panel count until two
    successive estimates agree to ``rel_tol`` (never finer than one unit
    roundoff, which no double can certify).
    """
    if z < 1.0:
        raise ValueError(f"z must be >= 1, got {z}")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    corner = math.exp(1.0 - z)
    if z == 1.0:
        return corner
    nodes, weights = _gauss_legendre()
    root = math.sqrt(z)
    peak = math.exp(2.0 - 2.0 * root)
    # the integrand evaluates to 0 once its exponent passes _UNDERFLOW_EFOLDS
    top = min(0.5 * math.log(z), 2.0 * math.asinh(math.sqrt(_UNDERFLOW_EFOLDS / (4.0 * root))))
    previous, panels = math.inf, 1
    while panels <= QUAD_MAX_PANELS:
        width = top / panels
        theta = (np.arange(panels)[:, None] + nodes) * width
        f = 2.0 * root * np.cosh(theta) * np.exp(-4.0 * root * np.sinh(0.5 * theta) ** 2)
        estimate = width * float((f @ weights).sum())
        gap = max(abs(estimate - previous), np.finfo(float).eps * estimate)
        if gap <= rel_tol * estimate:
            return corner + peak * estimate
        previous, panels = estimate, 2 * panels
    achieved = gap / estimate
    raise QuadratureError(
        f"quadrature did not reach relative tolerance {rel_tol:.3g}: achieved {achieved:.3e}",
        value=corner + peak * estimate,
        achieved_tol=achieved,
    )
