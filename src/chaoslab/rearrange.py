"""Distribution functions, decreasing rearrangements, and the log-log tail measure.

All step functions in this package take finitely many values on equal-weight
atoms, so distributions and rearrangements are computed exactly by sorting.
Values are snapped together when they differ by at most ``VALUE_SNAP`` to
absorb floating-point noise; in-scope functions only take values that are
small signed sums of coefficients, so genuinely distinct values never collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import StepFunction1D, StepFunction2D
from .errors import QuadratureError

VALUE_SNAP = 1e-12

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
    """Distinct |values| (descending) with exact masses, snap-merged."""
    flat = np.abs(x.flat_values())
    order = np.argsort(flat, kind="stable")[::-1]
    vals = flat[order]
    values: list[float] = []
    counts: list[int] = []
    for v in vals:
        if values and values[-1] - v <= VALUE_SNAP:
            counts[-1] += 1
        else:
            values.append(float(v))
            counts.append(1)
    masses = np.array(counts, dtype=np.float64) * x.atom_measure
    return np.array(values, dtype=np.float64), masses


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


def _adaptive_simpson(f, a: float, b: float, eps: float, max_depth: int):
    """Classic adaptive Simpson with Richardson correction.

    Returns (value, error_estimate, converged).
    """

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if depth >= max_depth:
            return left + right + delta / 15.0, abs(delta) / 15.0, False
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0, abs(delta) / 15.0, True
        lv, le, lc = recurse(a, m, fa, flm, fm, left, eps / 2.0, depth + 1)
        rv, re, rc = recurse(m, b, fm, frm, fb, right, eps / 2.0, depth + 1)
        return lv + rv, le + re, lc and rc

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, eps, 0)


def log_distribution_L(z: float, rel_tol: float = 1e-9) -> float:
    """Measure of {(s,t): ln(e/s) ln(e/t) > z} on the unit square, z >= 1.

    Slicing along s with u = ln(e/s): the t-section has measure
    min(1, e^(1-z/u)), so L(z) = e^(1-z) + e^2 * integral over [1, z] of
    exp(-u - z/u) du.  (Written without the clamp, the integrand would
    overshoot the section measure for u > z and L(1) would exceed 1.)  The
    finite integral is evaluated by adaptive Simpson to the requested
    relative tolerance; the region beyond u = z is the exact closed form.
    """
    if z < 1.0:
        raise ValueError(f"z must be >= 1, got {z}")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    corner = math.exp(1.0 - z)
    if z == 1.0:
        return corner

    def f(u: float) -> float:
        arg = -u - z / u
        return math.exp(arg) if arg > -745.0 else 0.0

    # The exponent u + z/u is minimal at u = sqrt(z) and the integrand decays
    # by hundreds of e-folds toward the endpoints; a single adaptive pass over
    # such a cliff cannot trust its local error model.  Panels are therefore
    # cut at level sets of the exponent, a few e-folds apart, so the integrand
    # varies by a bounded factor inside each panel; panel assembly stops once
    # the exact remainder bound drops below the requested tolerance (left
    # remainder <= u e^-g(u), right remainder <= e^-u since g(u) >= u).
    peak = math.sqrt(z)
    g_min = 2.0 * peak
    efolds = 3.0
    # remainder beyond exponent depth d is at most z * e^-(g_min + d)
    tail_cut = math.log(z / rel_tol) + 5.0

    def u_at_level(delta: float, right: bool) -> float:
        s = g_min + delta
        root = math.sqrt(max(s * s - 4.0 * z, 0.0))
        return (s + root) / 2.0 if right else (s - root) / 2.0

    panels: list[tuple[float, float]] = []
    for right, limit in ((False, 1.0), (True, z)):
        edge = peak
        delta = efolds
        while delta <= tail_cut + efolds:
            nxt = u_at_level(delta, right)
            nxt = max(nxt, limit) if not right else min(nxt, limit)
            panels.append((min(edge, nxt), max(edge, nxt)))
            if nxt == limit:
                break
            edge = nxt
            delta += efolds

    # midpoint pre-pass fixes the scale of the absolute tolerance
    scale = sum(f(0.5 * (a + b)) * (b - a) for a, b in panels)
    scale = max(scale, 0.1 * math.exp(max(-2.0 * peak, -745.0)), 1e-300)
    eps_abs = rel_tol * scale / (2.0 * max(len(panels), 1))

    total, err, converged = 0.0, 0.0, True
    for a, b in panels:
        v, e, c = _adaptive_simpson(f, a, b, eps_abs, 60)
        total += v
        err += e
        converged = converged and c
    result = corner + math.exp(2.0) * total
    if not converged:
        achieved = math.exp(2.0) * err / max(abs(result), 1e-300)
        raise QuadratureError(
            f"quadrature did not converge: achieved relative tolerance {achieved:.3e}",
            value=result,
            achieved_tol=achieved,
        )
    return result
