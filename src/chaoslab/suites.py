"""Named verification suites run by the CLI.

Each suite turns one cluster of inequalities or identities into concrete
checks at the scales pinned in the configuration, and adds worst-case
measured values against their bounds to the ``SuiteResult`` it is handed.
``run_suite`` creates that result and times each suite.  A suite passes iff
every non-skipped check passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import chaos, extremal, spaces
from .config import RunConfig
from .errors import EnumerationCapError, QuadratureError
from .dyadic import materialize_1d
from .rearrange import (
    Rearrangement,
    distribution,
    equimeasurable,
    log_distribution_L,
    rearrangement,
)


@dataclass(frozen=True)
class Check:
    id: str
    status: str  # "pass" | "fail" | "skip"
    value: float | None
    bound: str
    tol: float = 0.0


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, id: str, ok: bool, value: float | None, bound: str, tol: float = 0.0):
        self.checks.append(
            Check(id=id, status="pass" if ok else "fail", value=value, bound=bound, tol=tol)
        )

    def skip(self, id: str, reason: str):
        self.checks.append(Check(id=id, status="skip", value=None, bound=reason))


def _rng(cfg: RunConfig, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed + salt))


def _char_rearrangement(t: float) -> Rearrangement:
    """Rearrangement of the characteristic function of (0, t)."""
    if t >= 1.0:
        return Rearrangement(values=np.array([1.0]), masses=np.array([1.0]))
    return Rearrangement(values=np.array([1.0, 0.0]), masses=np.array([t, 1.0 - t]))


def suite_khinchin(cfg: RunConfig, res: SuiteResult) -> None:
    """Moment and exponential-moment bounds for unit-mass coefficient matrices."""
    trials = cfg.suite_int("khinchin", "trials")
    n_max = cfg.suite_int("khinchin", "n_max")
    q_values = cfg.suite_float_list("khinchin", "q_values")
    exp_u = cfg.suite_float("khinchin", "exp_u")
    rng = _rng(cfg, 1)

    worst_q = {q: 0.0 for q in q_values}
    worst_l1 = math.inf
    worst_exp = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        a = rng.standard_normal((n, n))
        a /= np.linalg.norm(a)
        x = chaos.eval_decoupled(a, max_bits=cfg.max_bits_2d)
        for q in q_values:
            worst_q[q] = max(worst_q[q], spaces.lp_norm(x, q) / q)
        worst_l1 = min(worst_l1, spaces.lp_norm(x, 1))
        worst_exp = max(worst_exp, spaces.exp_moment(x, exp_u))
    for q in q_values:
        res.add(f"moment.q{q:g}", worst_q[q] <= 1.0, worst_q[q], "||x||_q / (q ||a||_2) <= 1")
    res.add("moment.l1_lower", worst_l1 >= 0.5, worst_l1, "||x||_1 >= ||a||_2 / 2")
    res.add(
        f"exp_moment.u{exp_u:g}", worst_exp <= 1.0, worst_exp,
        "integral(exp(u|x|)-1) <= 1",
    )


def suite_decoupling(cfg: RunConfig, res: SuiteResult) -> None:
    """Subset-average identity between undecoupled and decoupled forms."""
    trials = cfg.suite_int("decoupling", "trials")
    n = cfg.suite_int("decoupling", "n")
    tol = cfg.suite_float("decoupling", "tol")
    rng = _rng(cfg, 2)
    worst = 0.0
    for _ in range(trials):
        b = rng.standard_normal((n, n))
        np.fill_diagonal(b, 0.0)
        lhs = chaos.eval_undecoupled(b, max_bits=cfg.max_bits_1d)
        rhs = chaos.decouple_identity_rhs(b, n)
        worst = max(worst, float(np.abs(lhs.values - rhs.values).max()))
    res.add("identity.pointwise", worst <= tol, worst, f"max |lhs - rhs| <= {tol:g}", tol)


def suite_lemma2(cfg: RunConfig, res: SuiteResult) -> None:
    """Two-sided exponential bracket for the log-log tail measure."""
    z_values = cfg.suite_float_list("lemma2", "z_values")
    values = []
    for z in z_values:
        try:
            L = log_distribution_L(z, cfg.quad_rel_tol)
        except QuadratureError as exc:
            res.skip(f"bracket.z{z:g}", str(exc))
            continue
        values.append(L)
        lower = 0.5 * math.exp(-2.0 * math.sqrt(z) + 2.0)
        upper = 2.0 * math.exp(-math.sqrt(z) + 2.0)
        res.add(f"bracket.z{z:g}", lower <= L <= upper, L, f"[{lower:.6g}, {upper:.6g}]")
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    res.add("monotone.decreasing", decreasing, None, "L strictly decreasing on grid")


def suite_lemma3(cfg: RunConfig, res: SuiteResult) -> None:
    """Equimeasurability under index relabeling and under the shift reduction."""
    trials = cfg.suite_int("lemma3", "trials")
    n = cfg.suite_int("lemma3", "n")
    rng = _rng(cfg, 3)
    all_shift = True
    for _ in range(trials):
        a = rng.standard_normal((n, n))
        dec = chaos.eval_decoupled(a, max_bits=cfg.max_bits_2d)
        und = chaos.eval_undecoupled(chaos.shift_map(a, n), max_bits=cfg.max_bits_1d)
        all_shift = all_shift and equimeasurable(dec, und)
    res.add("shift_map.equimeasurable", all_shift, None,
            f"{trials} random {n}x{n} matrices")

    # one explicit relabeling instance: same block on different index sets
    block = rng.standard_normal((2, 2))
    x1 = np.zeros((5, 6))
    x1[np.ix_([0, 2], [1, 4])] = block
    x2 = np.zeros((7, 8))
    x2[np.ix_([3, 6], [0, 7])] = block
    ok = equimeasurable(
        chaos.eval_decoupled(x1, max_bits=cfg.max_bits_2d),
        chaos.eval_decoupled(x2, max_bits=cfg.max_bits_2d),
    )
    res.add("relabel.equimeasurable", ok, None, "2x2 block on shifted index sets")


def suite_theorem5(cfg: RunConfig, res: SuiteResult) -> None:
    """Exhaustive infimum bound and Monte-Carlo average bracket."""
    lower_c = 1.0 / math.sqrt(2.0)
    upper_c = 9.0 * math.sqrt(2.0)
    for n in cfg.suite_int_list("theorem5", "exhaustive_n"):
        try:
            report = extremal.exhaustive_inf(n)
        except EnumerationCapError as exc:
            res.skip(f"inf.n{n}", str(exc))
            continue
        bound = lower_c * n**1.5
        res.add(f"inf.n{n}", report.value >= bound - 1e-12, report.value,
                f"inf >= {bound:.6g}")
        if n == 2:
            res.add("inf.n2.exact", report.value == 2.0, report.value, "== 2")
    exact2 = extremal.exact_average(2)
    res.add("average.n2.exact", exact2.value == 3.0, exact2.value, "== 3")
    samples = int(cfg.sections["theorem5"].get("samples", cfg.samples))
    for n in cfg.suite_int_list("theorem5", "mc_n"):
        try:
            report = extremal.monte_carlo_average(n, samples, cfg.seed)
        except EnumerationCapError as exc:
            res.skip(f"average.n{n}.bracket", str(exc))
            continue
        ratio = report.value / n**1.5
        res.add(
            f"average.n{n}.bracket", lower_c <= ratio <= upper_c, ratio,
            f"mean/n^1.5 in [{lower_c:.4f}, {upper_c:.4f}]",
        )


def suite_proposition(cfg: RunConfig, res: SuiteResult) -> None:
    """Walsh sign arrangements keep the sup norm at or below 2^(3k/2)."""
    for k in cfg.suite_int_list("proposition", "k_values"):
        try:
            phi = extremal.sup_norm_decoupled(extremal.walsh_sign_arrangement(k))
        except EnumerationCapError as exc:
            res.skip(f"walsh.k{k}", str(exc))
            continue
        bound = 2.0 ** (1.5 * k)
        res.add(f"walsh.k{k}", phi <= bound, phi, f"phi <= {bound:g}")
        if k == 1:
            res.add("walsh.k1.exact", phi == 2.0, phi, "== 2")
        if k == 2:
            res.add("walsh.k2.exact", phi == 8.0, phi, "== 8")


def suite_theorem6(cfg: RunConfig, res: SuiteResult) -> None:
    """Undecoupled sup norm never exceeds the decoupled one (symmetric signs)."""
    trials = cfg.suite_int("theorem6", "trials")
    n_max = cfg.suite_int("theorem6", "n_max")
    rng = _rng(cfg, 6)
    ok = True
    worst_gap = -math.inf
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        theta = np.triu(np.where(rng.random((n, n)) < 0.5, -1.0, 1.0))
        theta = theta + np.triu(theta, 1).T
        bar = extremal.sup_norm_undecoupled(theta)
        full = extremal.sup_norm_decoupled(theta)
        worst_gap = max(worst_gap, bar - full)
        ok = ok and bar <= full
    res.add("undecoupled_le_decoupled", ok, worst_gap, "max(bar - full) <= 0")


def suite_theorem7(cfg: RunConfig, res: SuiteResult) -> None:
    """Block construction: bounded signed sups, corner peaks, growing quasi-norms."""
    eps = cfg.suite_float("theorem7", "eps")
    k_max = cfg.suite_int("theorem7", "k_max")
    mode = cfg.suite_str("theorem7", "mode")
    report = extremal.theorem7_witness(eps, k_max, mode=mode)
    for blk in report.blocks:
        res.add(
            f"signed_sup.k{blk.k}", blk.signed_sup <= blk.signed_bound,
            blk.signed_sup, f"<= {blk.signed_bound:g}",
        )
        res.add(
            f"corner.k{blk.k}", blk.corner_value == blk.corner_expected,
            blk.corner_value, f"== {blk.corner_expected:g}",
        )
        if blk.rearranged_at_uk is not None:
            res.add(
                f"rearrangement.k{blk.k}",
                blk.rearranged_at_uk >= blk.corner_expected,
                blk.rearranged_at_uk,
                f"y*({blk.u_k:g}) >= {blk.corner_expected:g}",
            )
    if report.partial_quasinorms:
        growth = 2.0 ** (eps / 2.0)
        for k in range(1, len(report.partial_quasinorms)):
            ratio = report.partial_quasinorms[k] / report.partial_quasinorms[k - 1]
            res.add(
                f"quasinorm.growth.k{k}", ratio >= growth, ratio,
                f">= 2^(eps/2) = {growth:.6f}",
            )
        for k, (q, lb) in enumerate(zip(report.partial_quasinorms, report.lower_bounds)):
            res.add(
                f"quasinorm.lower.k{k}", q >= lb, q, f">= 2^(eps k/2 - 1) = {lb:.6f}"
            )


def suite_orlicz(cfg: RunConfig, res: SuiteResult) -> None:
    """Fundamental function of the exponential Orlicz space."""
    tol = cfg.suite_float("orlicz", "tol")
    for t in cfg.suite_float_list("orlicz", "t_values"):
        norm = spaces.orlicz_exp_norm(_char_rearrangement(t), cfg.orlicz_rel_tol)
        product = norm * math.log(1.0 + (math.e - 1.0) / t)
        res.add(
            f"fundamental.t{t:g}", abs(product - 1.0) <= tol, product,
            f"norm * ln(1+(e-1)/t) == 1 +- {tol:g}", tol,
        )


def clt_kolmogorov_distance(n: int) -> float:
    """Sup distance between the exact |v_n| tail and the two-sided Gaussian tail.

    v_n is the normalized n-term Rademacher sum; its law is binomial and all
    tail masses are computed with integer arithmetic before the final float
    division.  The Gaussian two-sided tail is erfc(z / sqrt(2)).
    """
    if n < 1 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    den = 2**n
    masses = {}  # |n - 2b| -> integer numerator
    for b in range(n + 1):
        key = abs(n - 2 * b)
        masses[key] = masses.get(key, 0) + math.comb(n, b)
    keys = sorted(masses)
    # integer tail: T[key] = #atoms with |n-2b| > key
    tail_above = {}
    running = 0
    for key in reversed(keys):
        tail_above[key] = running
        running += masses[key]

    def gauss_tail(z: float) -> float:
        return math.erfc(z / math.sqrt(2.0))

    dist = abs((running - masses.get(0, 0)) / den - 1.0)  # z -> 0+
    for key in keys:
        if key == 0:
            continue
        z = key / math.sqrt(n)
        above = tail_above[key] / den
        below = (tail_above[key] + masses[key]) / den
        dist = max(dist, abs(above - gauss_tail(z)), abs(below - gauss_tail(z)))
    return dist


def suite_clt(cfg: RunConfig, res: SuiteResult) -> None:
    """Exact binomial law of the normalized Rademacher sum vs the Gaussian tail."""
    n = cfg.suite_int("clt", "n")
    bound = cfg.suite_float("clt", "bound")
    dist = clt_kolmogorov_distance(n)
    res.add(f"kolmogorov.n{n}", dist <= bound, dist, f"<= {bound:g}")


_SUITES = {
    "khinchin": suite_khinchin,
    "decoupling": suite_decoupling,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "theorem5": suite_theorem5,
    "proposition": suite_proposition,
    "theorem6": suite_theorem6,
    "theorem7": suite_theorem7,
    "orlicz": suite_orlicz,
    "clt": suite_clt,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: RunConfig) -> list[SuiteResult]:
    """Run one named suite, or every suite for name == "all", timing each call."""
    if name != "all" and name not in _SUITES:
        raise ValueError(
            f"unknown suite '{name}'; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    results = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        res = SuiteResult(suite)
        t0 = time.perf_counter()
        _SUITES[suite](cfg, res)  # looked up per call, so wrapped entries take effect
        res.wall_time = time.perf_counter() - t0
        results.append(res)
    return results
