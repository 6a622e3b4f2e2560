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

from .dyadic import StepFunction1D, StepFunction2D
from .rearrange import Rearrangement

StepFunction = StepFunction1D | StepFunction2D

_ORLICZ_TARGET = math.e - 1.0  # integral bound making ||chi_(0,1)|| = 1


def lp_norm(x: StepFunction, q: float) -> float:
    """Exact Lq norm of a step function; q = inf gives the sup norm.

    ``max|x|`` is factored out of the powers, so no q or scale overflows or underflows.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    vals = np.abs(x.flat_values())
    top = float(vals.max())
    if math.isinf(q) or top == 0.0:
        return top
    vals /= top
    return top * float(np.sum(vals**q) * x.atom_measure) ** (1.0 / q)


def exp_moment(x: StepFunction, u: float) -> float:
    """Exact integral of exp(u|x|) - 1 over the sample space.

    Evaluated in log space so that large exponents degrade to inf instead of
    raising; u * max|x| beyond ~709 + log(weight) genuinely overflows a double.
    """
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
    vals = np.abs(x.flat_values())
    exponents = u * vals + math.log(x.atom_measure)
    peak = float(exponents.max())
    log_sum = peak + math.log(float(np.sum(np.exp(exponents - peak))))
    if log_sum > 709.0:
        return math.inf
    return math.exp(log_sum) - 1.0


def orlicz_exp_norm(r: Rearrangement, rel_tol: float = 1e-10) -> float:
    """Luxemburg norm for the exponential Orlicz function, by bisection.

    Solves inf{u > 0 : sum m_k (exp(v_k/u) - 1) <= e - 1}; the integral is
    strictly decreasing in u, so bracketing plus bisection is exact up to the
    requested relative tolerance.  The zero function has norm 0 by convention.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    vmax = float(r.values[0])
    if vmax == 0.0:
        return 0.0

    vals = r.values
    masses = r.masses

    def integral(u: float) -> float:
        with np.errstate(over="ignore"):
            return float(np.sum(masses * np.expm1(vals / u)))

    hi = vmax / math.log(2.0)
    while integral(hi) > _ORLICZ_TARGET:
        hi *= 2.0
    lo = hi
    while integral(lo) <= _ORLICZ_TARGET:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if integral(mid) <= _ORLICZ_TARGET:
            hi = mid
        else:
            lo = mid
    else:
        raise ArithmeticError("orlicz bisection failed to converge in 200 steps")
    return 0.5 * (lo + hi)


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
    return float(np.max(np.cumsum(r.values * r.masses) / weights))


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
    weights = np.log2(2.0 / r.bounds) ** (eps - 0.5)
    return float(np.max(r.values * weights))


def lorentz_norm(r: Rearrangement, p: float) -> float:
    """Lorentz norm with weight log2(2/t)^(1-p): exact Stieltjes sum over steps.

    ``max|x*|`` is factored out of the powers, as in ``lp_norm``.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    vals = np.abs(r.values)
    top = float(vals.max())
    if top == 0.0:
        return 0.0
    phi_right = np.log2(2.0 / r.bounds) ** (1.0 - p)
    phi_left = np.concatenate([[0.0], phi_right[:-1]])  # phi(0+) = 0
    total = float(np.sum((vals / top) ** p * (phi_right - phi_left)))
    return top * total ** (1.0 / p)


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
        if q < 1:
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


def evaluate_norm(spec: SpaceSpec, x: StepFunction, rel_tol: float = 1e-10) -> float:
    """Evaluate the requested norm of a step function."""
    from .rearrange import rearrangement

    if spec.kind == "lp":
        return lp_norm(x, spec.param)
    r = rearrangement(x)
    if spec.kind == "orlicz_exp":
        return orlicz_exp_norm(r, rel_tol)
    if spec.kind == "marcinkiewicz":
        return marcinkiewicz_norm(r, phi_eps(spec.param))
    if spec.kind == "lorentz":
        return lorentz_norm(r, spec.param)
    raise ValueError(f"unknown space kind '{spec.kind}'")
