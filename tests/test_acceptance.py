"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from chaoslab import cli
from chaoslab.chaos import (
    decouple_identity_rhs,
    eval_decoupled,
    eval_undecoupled,
    shift_map,
)
from chaoslab.dyadic import full_sign_matrix
from chaoslab.extremal import (
    exact_average,
    exhaustive_inf,
    monte_carlo_average,
    sup_norm_decoupled,
    sup_norm_undecoupled,
    theorem7_witness,
    walsh_sign_arrangement,
)
from chaoslab.rearrange import (
    Rearrangement,
    distribution,
    log_distribution_L,
    rearrangement,
)
from chaoslab.spaces import exp_moment, lp_norm, orlicz_exp_norm, quasinorm_phi_eps
from chaoslab.suites import clt_kolmogorov_distance

SEED = 1235813


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_01_sup_norm_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=SEED))
    E = full_sign_matrix(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal((4, 4))
        brute = float(np.abs(E @ a @ E.T).max())
        worst = max(worst, abs(sup_norm_decoupled(a) - brute))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"200 random 4x4: max |scan - brute| = {worst:.1e} in {elapsed:.2f}s")


def test_02_exhaustive_inf_lower_bound():
    t0 = time.perf_counter()
    values = {}
    for n in (2, 3, 4, 5):
        rep = exhaustive_inf(n)
        values[n] = rep.value
        assert rep.value >= n**1.5 / math.sqrt(2.0) - 1e-12
        assert rep.samples == 2 ** ((n - 1) ** 2)
    assert values[2] == 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"inf(2..5) = {values} all >= n^1.5/sqrt(2), inf(2) == 2, {elapsed:.2f}s")


def test_03_walsh_construction_bound():
    t0 = time.perf_counter()
    phis = {}
    for k in range(5):
        phi = sup_norm_decoupled(walsh_sign_arrangement(k))
        phis[k] = phi
        assert phi <= 2.0 ** (1.5 * k)
    assert phis[1] == 2.0
    assert phis[2] == 8.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"walsh phi(k=0..4) = {phis} all <= 2^(3k/2), {elapsed:.2f}s")


def test_04_average_bracket():
    t0 = time.perf_counter()
    assert exact_average(2).value == 3.0
    lo, hi = 1.0 / math.sqrt(2.0), 9.0 * math.sqrt(2.0)
    ratios = {}
    for n in (4, 8, 12):
        rep = monte_carlo_average(n, 2000, SEED)
        ratios[n] = rep.value / n**1.5
        assert lo <= ratios[n] <= hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"exact avg(2) == 3; MC mean/n^1.5 = {ratios} in [{lo:.3f}, {hi:.2f}], {elapsed:.1f}s")


def test_05_decoupling_identity():
    rng = np.random.Generator(np.random.Philox(key=SEED + 5))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        b = rng.standard_normal((5, 5))
        np.fill_diagonal(b, 0.0)
        lhs = eval_undecoupled(b)
        rhs = decouple_identity_rhs(b, 5)
        worst = max(worst, float(np.abs(lhs.values - rhs.values).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(5, f"50 random b, N=5: max pointwise gap = {worst:.1e}, {elapsed:.2f}s")


def test_06_shift_equimeasurability():
    rng = np.random.Generator(np.random.Philox(key=SEED + 6))
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        d1 = distribution(eval_decoupled(a))
        d2 = distribution(eval_undecoupled(shift_map(a, 3)))
        assert np.all(np.abs(d1.thresholds - d2.thresholds) <= 1e-12)
        assert np.array_equal(d1.measure_above, d2.measure_above)
    report(6, "50 random 3x3: decoupled and shifted undecoupled laws identical")


def test_07_log_tail_bracket():
    values = {}
    for z in (1.0, 4.0, 9.0, 16.0, 25.0):
        L = log_distribution_L(z)
        values[z] = L
        assert 0.5 * math.exp(-2.0 * math.sqrt(z) + 2.0) <= L
        assert L <= 2.0 * math.exp(-math.sqrt(z) + 2.0)
    report(7, f"L(z) = { {k: float(f'{v:.6g}') for k, v in values.items()} } inside the bracket")


def test_08_moment_and_exponential_bounds():
    rng = np.random.Generator(np.random.Philox(key=SEED + 8))
    worst_q = {q: 0.0 for q in (2.0, 3.0, 4.0, 6.0)}
    worst_l1 = math.inf
    worst_exp = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        a /= np.linalg.norm(a)
        x = eval_decoupled(a)
        for q in worst_q:
            worst_q[q] = max(worst_q[q], lp_norm(x, q))
            assert lp_norm(x, q) <= q
        l1 = lp_norm(x, 1)
        worst_l1 = min(worst_l1, l1)
        assert l1 >= 0.5
        m = exp_moment(x, 0.18)
        worst_exp = max(worst_exp, m)
        assert m <= 1.0
    report(8, f"100 unit matrices: max ||x||_q = { {k: float(f'{v:.3f}') for k, v in worst_q.items()} }, "
              f"min ||x||_1 = {worst_l1:.3f} >= 0.5, max exp moment = {worst_exp:.3f} <= 1")


def test_09_orlicz_fundamental_function():
    products = {}
    for t in (1.0, 0.5, 0.25, 1.0 / 16.0):
        if t >= 1.0:
            r = Rearrangement(values=np.array([1.0]), masses=np.array([1.0]))
        else:
            r = Rearrangement(values=np.array([1.0, 0.0]), masses=np.array([t, 1 - t]))
        product = orlicz_exp_norm(r, rel_tol=1e-12) * math.log(1 + (math.e - 1) / t)
        products[t] = product
        assert abs(product - 1.0) <= 1e-8
    report(9, f"norm(char) * ln(1+(e-1)/t) = { {k: float(f'{v:.10f}') for k, v in products.items()} }")


def test_10_theorem7_witness():
    eps = 0.25
    rep = theorem7_witness(eps, 2, mode="full")
    for blk in rep.blocks:
        assert blk.corner_value == 4.0**blk.k
        assert blk.rearranged_at_uk >= 4.0**blk.k
    growth = 2.0 ** (eps / 2.0)
    q = rep.partial_quasinorms
    ratios = [q[i + 1] / q[i] for i in range(len(q) - 1)]
    for r in ratios:
        assert r >= growth
    report(10, f"corners 2^(2k) exact, y_k*(u_k) >= 2^(2k); quasinorm growth "
               f"{[float(f'{r:.4f}') for r in ratios]} >= {growth:.4f}")


def test_11_undecoupled_le_decoupled():
    rng = np.random.Generator(np.random.Philox(key=SEED + 11))
    worst = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 9))
        theta = np.triu(np.where(rng.random((n, n)) < 0.5, -1.0, 1.0))
        theta = theta + np.triu(theta, 1).T
        bar = sup_norm_undecoupled(theta)
        full = sup_norm_decoupled(theta)
        worst = max(worst, bar - full)
        assert bar <= full
    report(11, f"100 random symmetric signs, n <= 8: max(bar - full) = {worst:.1f} <= 0")


def test_12_clt_kolmogorov():
    dist = clt_kolmogorov_distance(64)
    assert dist <= 0.1
    report(12, f"Kolmogorov distance of v_64 tail vs Gaussian tail = {dist:.6f} <= 0.1")


def test_13_scaling_reproducible(tmp_path):
    out = tmp_path / "out"
    args = ["--out", str(out), "--seed", str(SEED), "scaling", "--n", "1,2,4,8",
            "--samples", "200"]
    assert cli.main(args) == 0
    first = (out / "scaling.csv").read_bytes()
    assert cli.main(args) == 0
    second = (out / "scaling.csv").read_bytes()
    assert first == second
    report(13, f"two scaling runs: byte-identical CSV ({len(first)} bytes)")
