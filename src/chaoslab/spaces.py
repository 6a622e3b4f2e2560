"""Symmetric-space norms on step functions and rearrangements.

Implements the exponential Orlicz (Luxemburg) norm, Marcinkiewicz norms for a
caller-supplied concave weight (exact: a max over the rearrangement's
breakpoints), the exact sup-form quasi-norm for the weights
``log2(2/u)^(eps-1/2)``, Lorentz norms, and plain Lp.  The Orlicz function is
normalized so the characteristic function of the whole interval has norm 1,
which pins the fundamental function to ``1/ln(1 + (e-1)/t)``.

Every norm walks its law ``rearrange.BLOCK`` elements at a time through one or
two block buffers of its own, so none allocates an array as long as the law:
the atoms of ``law_atoms`` (``lp_norm``, ``exp_moment``), or the steps of a
``Rearrangement`` with their bounds from ``Rearrangement.bound_blocks``.  The
arithmetic on each element is that of the one-pass formula; only sums over
the whole law (``np.sum``, ``np.dot``) add block by block.  Cumulative sums
carry the previous block's total, so they are bit for bit the one-pass ones,
and bounds over one power-of-two weight are exact in closed form.  The
sup-form quasi-norm skips each block whose cap, its first value times the
weight at its last bound with a slack far above rounding, lies below the best
block max so far: the max it returns is that of every product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rearrange import BLOCK, Rearrangement, StepFunction, block_buffer, carry_cumsum, rearrangement

_ORLICZ_TARGET = math.e - 1.0  # integral bound making ||chi_(0,1)|| = 1
_ORLICZ_MAX_STEPS = 100  # a guard: from its start Newton takes a few steps
_ORLICZ_GROUP = 64  # steps per point of the coarse law that gives Newton its start
# exp is over 100x slower where its result is subnormal, and over 10x where it underflows to 0;
# a sum that holds exp(0) = 1 loses nothing when its exponents are clamped here, as 2^26
# atoms of e^-700 lie far below one ulp of 1
_EXP_FLOOR = -700.0
_CAP_SLACK = 1.0 + 2.0**-40  # on a block cap of quasinorm_phi_eps: ~2^12 ulps of rounding room


def _sum_exp(exponents: np.ndarray, lowest: float = -math.inf) -> float:
    """Sum of exp over ``exponents``, whose max is 0, worked in place and clamped at the floor;
    ``lowest``, a lower bound on the exponents, spares the min pass when it is above the floor."""
    if lowest < _EXP_FLOOR and exponents.min() < _EXP_FLOOR:
        np.maximum(exponents, _EXP_FLOOR, out=exponents)
    return float(np.exp(exponents, out=exponents).sum())


def _abs_blocks(atoms: np.ndarray):
    """|atoms| at most ``BLOCK`` at a time, each in one block buffer that the caller may then
    overwrite.  A block is a run of whole rows of the decoupled quarter, or a piece of a row:
    law sizes are powers of two, so a row wider than a block splits into whole blocks, a view."""
    buf = block_buffer(atoms.size)
    rows = atoms.reshape(-1, atoms.shape[-1])
    if rows.shape[1] > BLOCK:
        rows = rows.reshape(-1, BLOCK)
    per = BLOCK // rows.shape[1]
    for i in range(0, rows.shape[0], per):
        block = rows[i : i + per]
        yield np.abs(block, out=buf[: block.size].reshape(block.shape))


def _abs_top(atoms: np.ndarray) -> float:
    """max|atoms| with no |x| copy; NaN if any atom is NaN, and +0.0 for a law of zeros."""
    return abs(max(float(atoms.max()), -float(atoms.min())))


def lp_norm(x: StepFunction, q: float) -> float:
    """Exact Lq norm of a step function; q = inf gives the sup norm.

    Sums over the atoms of ``x.law_atoms()``, a block at a time.  ``max|x|`` is factored out
    of the powers, so no q or scale overflows or underflows.  The powers are exp(q log v) in
    place: ``**`` falls into libm pow's slow path when v^q underflows, as it does for most
    atoms at large q; ``_sum_exp`` keeps exp itself out of its slow range.
    """
    if not q >= 1:  # also rejects NaN
        raise ValueError(f"q must be >= 1, got {q}")
    atoms, weight = x.law_atoms()
    top = _abs_top(atoms)
    if math.isinf(q) or top == 0.0:
        return top
    total = 0.0
    with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
        for vals in _abs_blocks(atoms):
            vals /= top
            np.log(vals, out=vals)
            vals *= q
            total += _sum_exp(vals)
    return top * (total * weight) ** (1.0 / q)


def exp_moment(x: StepFunction, u: float) -> float:
    """Exact integral of exp(u|x|) - 1 over the sample space, summed over ``x.law_atoms()``.

    Evaluated in log space so that large exponents degrade to inf instead of
    raising; u * max|x| beyond ~709 + log(weight) genuinely overflows a double.
    The exponents u|x| + log(weight) - peak go a block at a time; the peak is that of
    max|x|, bit for bit, as each step of the exponent is monotone.
    """
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
    atoms, weight = x.law_atoms()
    log_weight = math.log(weight)
    peak = _abs_top(atoms) * u + log_weight
    lowest = log_weight - peak  # |x| >= 0
    total = 0.0
    for exponents in _abs_blocks(atoms):
        exponents *= u
        exponents += log_weight
        exponents -= peak
        total += _sum_exp(exponents, lowest)
    log_sum = peak + math.log(total)
    if log_sum > 709.0:
        return math.inf
    return math.exp(log_sum) - 1.0


def orlicz_exp_norm(r: Rearrangement, rel_tol: float = 1e-10) -> float:
    """Luxemburg norm for the exponential Orlicz function, by Newton's method on log J.

    The norm is 1/s at the root of log J(s) = log(M + e - 1), J(s) = sum m_k exp(v_k s) and M
    the total mass: there sum m_k expm1(v_k s) = e - 1, and as J is near e exp loses nothing to
    expm1.  It is solved on the law scaled by the exact 2^-e that puts max|x| in [1/2, 1), so
    any finite scale works; the norm is 2^e / s.  Each block of the law is scaled into a block
    buffer on every pass, so no scaled copy of the law is kept.  log J is convex and increasing,
    so Newton falls monotonically from above, to a step <= rel_tol * s.  It starts at the root
    of the law coarsened to mean values over ``_ORLICZ_GROUP`` steps, above by Jensen, capped by
    log1p((e - 1)/M_k)/v_k at each group's first step, M_k the mass up to it, as a group that
    mixes large values and 0 has its root far above.  The norm of 0 is 0.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if r.values[0] == 0.0:
        return 0.0
    e = math.frexp(float(r.values[0]))[1]
    return math.ldexp(1.0 / _orlicz_root(r.values, r.masses, e, rel_tol)[0], e)


def _orlicz_root(values, masses, e: int, rel_tol: float) -> tuple[float, int]:
    """The root s on the law scaled by 2^-e and the full-law Newton steps it took."""
    size = values.size
    vals, buf = block_buffer(size), block_buffer(size)

    def scaled(lo: int) -> np.ndarray:
        block = values[lo : lo + BLOCK]
        return np.ldexp(block, -e, out=vals[: block.size])

    # BLOCK is a multiple of _ORLICZ_GROUP, so no group straddles two blocks
    starts = np.arange(0, size, _ORLICZ_GROUP)
    mass = np.add.reduceat(masses, starts)
    mean = np.empty(starts.size)
    for lo in range(0, size, BLOCK):
        v = scaled(lo)
        local = starts[: -(-v.size // _ORLICZ_GROUP)]  # the block's group starts, from 0
        mv = np.multiply(masses[lo : lo + v.size], v, out=buf[: v.size])
        np.add.reduceat(mv, local, out=mean[lo // _ORLICZ_GROUP :][: local.size])
    mean /= mass
    cum = np.cumsum(mass)
    target = math.log(float(cum[-1]) + _ORLICZ_TARGET)
    with np.errstate(divide="ignore", over="ignore"):  # each group array worked in place
        cap = cum - mass
        cap += masses[starts]
        np.log1p(np.divide(_ORLICZ_TARGET, cap, out=cap), out=cap)
        cap /= np.ldexp(values[starts], -e)
        coarse = np.divide(_ORLICZ_TARGET, cum)
        np.log1p(coarse, out=coarse)
        coarse /= mean
        s = float(coarse.min())
    # one group: its closed form s is the coarse root; an infinite s means a mean underflowed,
    # and the group-start bounds alone must do
    if starts.size > 1 and s < math.inf:
        s = _newton_log_j(lambda s: _log_j_sums(mean, mass, s, cum), target, s, rel_tol)[0]

    def sums(s: float) -> tuple[float, float]:
        j = dj = 0.0
        for lo in range(0, size, BLOCK):
            v = scaled(lo)
            bj, bdj = _log_j_sums(v, masses[lo : lo + v.size], s, buf[: v.size])
            j += bj
            dj += bdj
        return j, dj

    return _newton_log_j(sums, target, min(s, float(cap.min())), rel_tol)


def _weighted_sum(masses: np.ndarray, x: np.ndarray) -> float:
    """sum m x.  One weight broadcast over the steps (stride 0) is factored out: np.dot would
    first copy it into a fresh array."""
    if masses.strides[0] == 0:
        return float(masses[0]) * float(x.sum())
    return float(np.dot(masses, x))


def _log_j_sums(vals, masses, s: float, buf) -> tuple[float, float]:
    """J(s) = sum m exp(v s) and J'(s) = sum m v exp(v s), worked in ``buf``."""
    np.exp(np.multiply(vals, s, out=buf), out=buf)
    j = _weighted_sum(masses, buf)
    buf *= vals
    return j, _weighted_sum(masses, buf)


def _newton_log_j(sums, target: float, s: float, rel_tol: float) -> tuple[float, int]:
    """Newton on log J(s) = target from s, with (J, J') = ``sums(s)``; returns (root, steps)."""
    for steps in range(1, _ORLICZ_MAX_STEPS + 1):
        j, dj = sums(s)
        step = (math.log(j) - target) * j / dj
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
    ``phi`` is called on a block of bounds at a time.
    """
    bounds, ratio = block_buffer(r.values.size), block_buffer(r.values.size)
    integral = 0.0
    peaks = np.empty(len(range(0, r.values.size, BLOCK)))  # the max of each block
    for lo, hi, block in r.bound_blocks(bounds):
        weights = phi(block)
        if (weights <= 0).any():
            raise ValueError("phi must be positive on (0, 1]")
        f = np.multiply(r.values[lo:hi], r.masses[lo:hi], out=ratio[: hi - lo])  # x* m, F, F/phi
        integral = carry_cumsum(f, integral)
        peaks[lo // BLOCK] = np.divide(f, weights, out=f).max()
        del weights  # before the next block's phi
    return float(peaks.max())


def phi_eps(eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """The concave weight t * log2(2/t)^(1/2 - eps) for the Marcinkiewicz norm."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")

    def phi(t: np.ndarray) -> np.ndarray:  # one array, worked in place
        t = np.asarray(t, dtype=np.float64)
        w = np.divide(2.0, t, out=np.empty_like(t))
        np.power(np.log2(w, out=w), 0.5 - eps, out=w)
        w *= t
        return w

    return phi


def quasinorm_phi_eps(r: Rearrangement, eps: float) -> float:
    """Exact sup of x*(u) * g(u) over u in (0, 1], g(u) = log2(2/u)^(eps - 1/2).

    The weight g increases in u while x* is a decreasing step, so the sup is
    attained at a step's right endpoint; evaluating there is exact.  Each block
    of bounds is worked in place.  On the block of steps [lo, hi) every product
    is at most values[lo] * g(bounds[hi - 1]); taken by scalar ``math`` calls
    and times ``_CAP_SLACK``, far above the few-ulp error of NumPy's log2 and
    pow and one rounding of the product, a cap below the best block max so far
    skips the block, whose max can only be lower, and, under one weight, whose
    bounds ``bound_blocks`` then does not write.  So the result is the max of
    every product, bit for bit; a skipped block's max stays -inf, so a NaN
    product, as for u > 2 when the total mass exceeds 2, still gives NaN.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    power = eps - 0.5
    peaks = np.full(len(range(0, r.values.size, BLOCK)), -math.inf)  # the max of each block
    best = -math.inf  # of the peaks that are not NaN

    def keep(lo: int, top: float) -> bool:
        # a negative first value makes every product of the block negative, so 0 caps them
        cap = max(float(r.values[lo]), 0.0) * _weight_cap(top, power)
        return not cap * _CAP_SLACK < best

    for lo, hi, weights in r.bound_blocks(block_buffer(r.values.size), keep):
        np.power(np.log2(np.divide(2.0, weights, out=weights), out=weights), power, out=weights)
        weights *= r.values[lo:hi]
        peaks[lo // BLOCK] = peak = weights.max()
        best = max(best, peak)
    return float(peaks.max())


def _weight_cap(bound: float, power: float) -> float:
    """log2(2/bound)^power by scalar ``math`` calls, or inf where log2(2/bound) <= 0 (there
    NumPy gives inf or NaN, and ``math`` raises)."""
    q = 2.0 / bound
    return math.pow(math.log2(q), power) if q > 1.0 else math.inf


def lorentz_norm(r: Rearrangement, p: float) -> float:
    """Lorentz norm with weight log2(2/t)^(1-p): exact Stieltjes sum over steps.

    ``max|x*|`` is factored out of the powers, as in ``lp_norm``.  A block at a time, one
    buffer holds phi at the bounds, the other its differences (phi(0+) = 0, and the phi of
    the block before carried over); then the first takes the powered values times them.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    top = max(abs(float(r.values[0])), abs(float(r.values[-1])))  # the values decrease
    if top == 0.0:
        return 0.0
    phi, dphi = block_buffer(r.values.size), block_buffer(r.values.size)
    below = 0.0  # phi at the bound below the block
    total = 0.0
    for lo, hi, block in r.bound_blocks(phi):
        np.power(np.log2(np.divide(2.0, block, out=block), out=block), 1.0 - p, out=block)
        d = dphi[: hi - lo]
        d[0] = block[0] - below
        np.subtract(block[1:], block[:-1], out=d[1:])
        below = float(block[-1])
        vals = np.abs(r.values[lo:hi], out=block)
        np.power(np.divide(vals, top, out=vals), p, out=vals)
        vals *= d
        total += float(vals.sum())
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
