"""Symmetric-space norms on step functions and rearrangements.

Implements the exponential Orlicz (Luxemburg) norm, Marcinkiewicz norms for a
caller-supplied concave weight (exact: a max over the rearrangement's
breakpoints), the exact sup-form quasi-norm for the weights
``log2(2/u)^(eps-1/2)``, Lorentz norms, and plain Lp.  The Orlicz function is
normalized so the characteristic function of the whole interval has norm 1,
which pins the fundamental function to ``1/ln(1 + (e-1)/t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rearrange import Rearrangement, StepFunction, rearrangement

_ORLICZ_TARGET = math.e - 1.0  # integral bound making ||chi_(0,1)|| = 1
_ORLICZ_MAX_STEPS = 100  # a guard: from its start Newton takes a few steps
_ORLICZ_GROUP = 64  # steps per point of the coarse law that gives Newton its start
# exp is over 100x slower where its result is subnormal, and over 10x where it underflows to 0;
# a sum that holds exp(0) = 1 loses nothing when its exponents are clamped here, as 2^26
# atoms of e^-700 lie far below one ulp of 1
_EXP_FLOOR = -700.0
_LORENTZ_BLOCK = 1 << 14  # steps per block of phi differences in lorentz_norm


def _sum_exp(exponents: np.ndarray, lowest: float = -math.inf) -> float:
    """Sum of exp over ``exponents``, whose max is 0, worked in place and clamped at the floor;
    ``lowest``, a lower bound on the exponents, spares the min pass when it is above the floor."""
    if lowest < _EXP_FLOOR and exponents.min() < _EXP_FLOOR:
        np.maximum(exponents, _EXP_FLOOR, out=exponents)
    return float(np.sum(np.exp(exponents, out=exponents)))


def lp_norm(x: StepFunction, q: float) -> float:
    """Exact Lq norm of a step function; q = inf gives the sup norm.

    Sums over the atoms of ``x.law_atoms()``.  ``max|x|`` is factored out of the powers,
    so no q or scale overflows or underflows.  The powers are exp(q log v) in place:
    ``**`` falls into libm pow's slow path when v^q underflows, as it does for most atoms
    at large q; ``_sum_exp`` keeps exp itself out of its slow range.
    """
    if not q >= 1:  # also rejects NaN
        raise ValueError(f"q must be >= 1, got {q}")
    atoms, weight = x.law_atoms()
    vals = np.abs(atoms)
    top = float(vals.max())
    if math.isinf(q) or top == 0.0:
        return top
    vals /= top
    with np.errstate(divide="ignore"):
        np.log(vals, out=vals)  # log 0 = -inf, and exp(-inf) = 0
    vals *= q
    return top * (_sum_exp(vals) * weight) ** (1.0 / q)


def exp_moment(x: StepFunction, u: float) -> float:
    """Exact integral of exp(u|x|) - 1 over the sample space, summed over ``x.law_atoms()``.

    Evaluated in log space so that large exponents degrade to inf instead of
    raising; u * max|x| beyond ~709 + log(weight) genuinely overflows a double.
    """
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
    atoms, weight = x.law_atoms()
    exponents = np.abs(atoms)  # an owned copy, worked in place
    exponents *= u
    exponents += math.log(weight)
    peak = float(exponents.max())
    exponents -= peak
    log_sum = peak + math.log(_sum_exp(exponents, math.log(weight) - peak))  # |x| >= 0
    if log_sum > 709.0:
        return math.inf
    return math.exp(log_sum) - 1.0


def orlicz_exp_norm(r: Rearrangement, rel_tol: float = 1e-10) -> float:
    """Luxemburg norm for the exponential Orlicz function, by Newton's method on log J.

    The norm is 1/s at the root of log J(s) = log(M + e - 1), J(s) = sum m_k exp(v_k s) and M
    the total mass: there sum m_k expm1(v_k s) = e - 1, and as J is near e exp loses nothing to
    expm1.  It is solved on the law scaled by the exact 2^-e that puts max|x| in [1/2, 1), so
    any finite scale works; the norm is 2^e / s.  log J is convex and increasing, so Newton falls
    monotonically from above, to a step <= rel_tol * s.  It starts at the root of the law
    coarsened to mean values over ``_ORLICZ_GROUP`` steps, above by Jensen, capped by
    log1p((e - 1)/M_k)/v_k at each group's first step, M_k the mass up to it, as a group that
    mixes large values and 0 has its root far above.  The norm of 0 is 0.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if r.values[0] == 0.0:
        return 0.0
    e = math.frexp(float(r.values[0]))[1]
    return math.ldexp(1.0 / _orlicz_root(np.ldexp(r.values, -e), r.masses, rel_tol)[0], e)


def _orlicz_root(vals: np.ndarray, masses: np.ndarray, rel_tol: float) -> tuple[float, int]:
    """The root s on a scaled law and the full-law Newton steps it took."""
    starts = np.arange(0, vals.size, _ORLICZ_GROUP)
    buf = np.multiply(masses, vals)  # the one buffer: m v for the group means, then each step
    mass = np.add.reduceat(masses, starts)
    mean = np.add.reduceat(buf, starts) / mass
    cum = np.cumsum(mass)
    target = math.log(float(cum[-1]) + _ORLICZ_TARGET)
    with np.errstate(divide="ignore", over="ignore"):
        step_bounds = np.log1p(_ORLICZ_TARGET / (cum - mass + masses[starts])) / vals[starts]
        s = float(np.min(np.log1p(_ORLICZ_TARGET / cum) / mean))
    # one group: its closed form s is the coarse root; an infinite s means a mean underflowed,
    # and the group-start bounds alone must do
    if starts.size > 1 and s < math.inf:
        s = _newton_log_j(mean, mass, target, s, rel_tol, cum)[0]
    return _newton_log_j(vals, masses, target, min(s, float(step_bounds.min())), rel_tol, buf)


def _newton_log_j(vals, masses, target: float, s: float, rel_tol: float, buf) -> tuple[float, int]:
    """Newton on log J(s) = target from s, working in ``buf``; returns (root, steps taken)."""
    for steps in range(1, _ORLICZ_MAX_STEPS + 1):
        np.exp(np.multiply(vals, s, out=buf), out=buf)
        j = float(np.dot(masses, buf))
        buf *= vals
        step = (math.log(j) - target) * j / float(np.dot(masses, buf))
        s -= step
        if abs(step) <= rel_tol * s or (step < 0.0 and steps > 1):  # a late rise is rounding
            return s, steps
    raise ArithmeticError(f"orlicz Newton failed to converge in {_ORLICZ_MAX_STEPS} steps")


def marcinkiewicz_norm(r: Rearrangement, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact sup over t in (0, 1] of F(t) / phi(t), F(t) = integral of x* to t.

    Contract: ``phi`` is concave and positive on (0, 1] with phi(0+) >= 0.
    Then the sup is the max of F(b_k) / phi(b_k) over the breakpoints
    b_k = ``r.bounds``: on each step F is affine, so F / phi is quasiconvex
    there and peaks at an endpoint; on the first step F(t) = x*(0+) t and
    phi(t) / t does not increase, so the open end t -> 0+ adds nothing.
    """
    weights = phi(r.bounds)
    if np.any(weights <= 0):
        raise ValueError("phi must be positive on (0, 1]")
    ratio = np.multiply(r.values, r.masses)  # one buffer: x* m, then F(b_k), then F / phi
    np.divide(np.cumsum(ratio, out=ratio), weights, out=ratio)
    return float(np.max(ratio))


def phi_eps(eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """The concave weight t * log2(2/t)^(1/2 - eps) for the Marcinkiewicz norm."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")

    def phi(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return t * np.log2(2.0 / t) ** (0.5 - eps)

    return phi


def quasinorm_phi_eps(r: Rearrangement, eps: float) -> float:
    """Exact sup of x*(u) * log2(2/u)^(eps - 1/2) over u in (0, 1].

    The weight increases in u while x* is a decreasing step, so the sup is
    attained at a step's right endpoint; evaluating there is exact.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    weights = r.bounds  # a fresh array, worked in place
    np.power(np.log2(np.divide(2.0, weights, out=weights), out=weights), eps - 0.5, out=weights)
    weights *= r.values
    return float(np.max(weights))


def lorentz_norm(r: Rearrangement, p: float) -> float:
    """Lorentz norm with weight log2(2/t)^(1-p): exact Stieltjes sum over steps.

    ``max|x*|`` is factored out of the powers, as in ``lp_norm``.  Two owned buffers hold
    the powered values and the weights phi at the bounds, which become the differences of
    phi in place, ``_LORENTZ_BLOCK`` steps at a time, so no third buffer is as long.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    vals = np.abs(r.values)
    top = float(vals.max())
    if top == 0.0:
        return 0.0
    phi = np.cumsum(r.masses)  # the bounds, then phi at each
    np.power(np.log2(np.divide(2.0, phi, out=phi), out=phi), 1.0 - p, out=phi)
    np.power(np.divide(vals, top, out=vals), p, out=vals)
    # phi turns into its differences (phi(0+) = 0) a block at a time, from the top down, so
    # each block still reads the phi below it; NumPy copies only the block it overlaps
    for hi in range(phi.size, 1, -_LORENTZ_BLOCK):
        lo = max(hi - _LORENTZ_BLOCK, 1)
        np.subtract(phi[lo:hi], phi[lo - 1 : hi - 1], out=phi[lo:hi])
    vals *= phi
    return top * float(np.sum(vals)) ** (1.0 / p)


@dataclass(frozen=True)
class SpaceSpec:
    """Parsed norm request: kind plus its single real parameter (or None)."""

    kind: str  # "lp" | "orlicz_exp" | "marcinkiewicz" | "lorentz"
    param: float | None = None


def parse_space(text: str) -> SpaceSpec:
    """Parse CLI strings like "lp:3", "lp:inf", "orlicz-exp", "marc:0.25", "lorentz:1.5"."""
    name, sep, arg = text.strip().partition(":")
    name = name.lower()
    if name == "orlicz-exp":
        if sep:
            raise ValueError("orlicz-exp takes no parameter")
        return SpaceSpec("orlicz_exp")
    if not sep:
        raise ValueError(f"space '{text}' needs a parameter, e.g. '{name}:2'")
    if name == "lp":
        q = math.inf if arg.lower() in ("inf", "infinity") else float(arg)
        if not q >= 1:  # also rejects NaN
            raise ValueError(f"lp parameter must be >= 1, got {arg}")
        return SpaceSpec("lp", q)
    if name == "marc":
        eps = float(arg)
        if not 0.0 < eps < 0.5:
            raise ValueError(f"marc parameter must lie in (0, 1/2), got {arg}")
        return SpaceSpec("marcinkiewicz", eps)
    if name == "lorentz":
        p = float(arg)
        if not 1.0 < p < 2.0:
            raise ValueError(f"lorentz parameter must lie in (1, 2), got {arg}")
        return SpaceSpec("lorentz", p)
    raise ValueError(f"unknown space '{text}'")


def evaluate_norm(
    spec: SpaceSpec, x: StepFunction, rel_tol: float = 1e-10, r: Rearrangement | None = None
) -> float:
    """Evaluate the requested norm of a step function; ``r`` is x's rearrangement, if known."""
    if spec.kind == "lp":
        return lp_norm(x, spec.param)
    if r is None:
        r = rearrangement(x)
    if spec.kind == "orlicz_exp":
        return orlicz_exp_norm(r, rel_tol)
    if spec.kind == "marcinkiewicz":
        return marcinkiewicz_norm(r, phi_eps(spec.param))
    if spec.kind == "lorentz":
        return lorentz_norm(r, spec.param)
    raise ValueError(f"unknown space kind '{spec.kind}'")
