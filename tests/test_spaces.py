import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab.chaos import eval_decoupled
from chaoslab.dyadic import StepFunction1D, materialize_1d
from chaoslab import spaces
from chaoslab.rearrange import BLOCK, Rearrangement, rearrangement
from chaoslab.spaces import (
    SpaceSpec,
    _orlicz_root,
    exp_moment,
    lorentz_norm,
    lp_norm,
    marcinkiewicz_norm,
    orlicz_exp_norm,
    parse_space,
    phi_eps,
    quasinorm_phi_eps,
)

E = math.e


def char_rearrangement(t):
    if t >= 1.0:
        return Rearrangement(values=np.array([1.0]), masses=np.array([1.0]))
    return Rearrangement(values=np.array([1.0, 0.0]), masses=np.array([t, 1.0 - t]))


def flipped_block(width):
    """All-ones decoupled block on `width` indices per axis."""
    return eval_decoupled(np.ones((width, width)))


@st.composite
def tied_step_functions(draw):
    """Step functions on up to 2^7 atoms whose values repeat from a small pool."""
    bits = draw(st.integers(0, 7))
    pool = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=2**bits))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2**bits, max_size=2**bits))
    return StepFunction1D(n=bits, values=np.array(picks))


# concave and positive on (0, 1]: the contract of marcinkiewicz_norm
CONCAVE_WEIGHTS = st.one_of(
    st.floats(0.01, 0.49).map(phi_eps), st.just(lambda t: np.asarray(t, dtype=np.float64))
)


SLACK = 4096  # bytes of the interpreter's own small objects


def traced_peak(fn):
    """tracemalloc's peak over one call of ``fn``, after a first call that may build lazy state."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def one_copy_check(fn, arg):
    """fn(x, arg) on 2^18 atoms allocates under 1.5 copies of x and leaves x unchanged."""
    x = eval_decoupled(np.random.Generator(np.random.Philox(key=33)).standard_normal((9, 9)))
    before = x.values.copy()
    tracemalloc.start()
    try:
        fn(x, arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.values.nbytes
    assert np.array_equal(x.values, before)


class TestLp:
    def test_single_sign_all_q(self):
        x = materialize_1d([1.0])
        for q in (1, 2, 3.5, math.inf):
            assert lp_norm(x, q) == 1.0

    def test_l1_of_rank_one(self):
        assert lp_norm(eval_decoupled([[1.0]]), 1) == 1.0

    def test_moment_bound_random(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            a /= np.linalg.norm(a)
            x = eval_decoupled(a)
            for q in (2.0, 3.0, 4.0, 6.0):
                assert lp_norm(x, q) <= q
            assert lp_norm(x, 1) >= 0.5

    @staticmethod
    def _bracket(x, q):
        """max|x| * mu(|x| = max)^(1/q) <= ||x||_q <= max|x|."""
        vals = np.abs(x.values)
        top = float(vals.max())
        return top * float(np.mean(vals == top)) ** (1.0 / q), top

    def test_large_q_stays_finite(self):
        # max |x| = 80 on 4 of 2^18 atoms; 80**400 alone overflows a double
        x = eval_decoupled(np.ones((8, 10)))
        lo, hi = self._bracket(x, 400)
        assert hi == 80.0
        value = lp_norm(x, 400)
        assert math.isfinite(value)
        assert lo <= value <= hi

    def test_tiny_values_do_not_underflow(self):
        # (9e-6)**80 underflows to 0.0
        x = eval_decoupled(np.full((3, 3), 1e-6))
        lo, hi = self._bracket(x, 80)
        value = lp_norm(x, 80)
        assert value > 0.0
        assert lo <= value <= hi

    def test_zero_function(self):
        assert lp_norm(eval_decoupled(np.zeros((2, 2))), 3) == 0.0

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(materialize_1d([1.0]), 0.5)

    def test_nan_q_rejected(self):
        # NaN compares False with everything, so "q < 1" alone would let it through
        with pytest.raises(ValueError):
            lp_norm(materialize_1d([1.0]), math.nan)

    def test_works_in_one_copy(self):
        one_copy_check(lp_norm, 4.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda bits: st.lists(st.sampled_from([0, 1, -1, 4, -9, 16, 25, -25]),
                                  min_size=2**bits, max_size=2**bits)
        ),
        st.sampled_from([1, 1.5, 4, 80, 400]),
    )
    @example([25] + [1] * 255, 400)
    def test_matches_exact_fractions(self, values, q):
        # the values are squares, so |v|^1.5 = |v| isqrt|v| is an integer too
        if not any(values):
            return
        x = StepFunction1D(n=int(math.log2(len(values))), values=np.array(values, dtype=float))
        power = (lambda v: v * math.isqrt(v)) if q == 1.5 else (lambda v: v**q)
        top = max(abs(v) for v in values)
        mean = Fraction(sum(power(abs(v)) for v in values), power(top) * len(values))
        want = top * float(mean) ** (1.0 / q)
        assert abs(lp_norm(x, q) - want) <= 1e-13 * want


def window_logs(min_bits, near=0.0):
    """Log ratios to the top atom for the other 2^bits - 1 atoms of a law, bits >= min_bits,
    at most ``near`` and most of them in or past exp's subnormal window [-745, -708]."""
    ratio = st.one_of(st.floats(-800.0, -700.0), st.floats(-60.0, near))
    return st.integers(min_bits, 8).flatmap(
        lambda bits: st.lists(ratio, min_size=2**bits - 1, max_size=2**bits - 1)
    )


class TestExpFloor:
    """Exponents clamped at the floor before exp lose nothing against the exact sums."""

    def test_clamps_only_below_the_floor(self):
        exponents = np.array([0.0, -1.0, -720.0, -math.inf])
        assert spaces._sum_exp(exponents) == 1.0 + math.exp(-1.0)
        assert exponents[2] == exponents[3] == math.exp(spaces._EXP_FLOOR)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 1e3), window_logs(1), st.sampled_from([80.0, 400.0, 1000.0]))
    def test_lp_norm_against_fsum(self, top, logs, q):
        values = np.array([top] + [top * math.exp(t / q) for t in logs])
        x = StepFunction1D(n=int(math.log2(values.size)), values=values)
        ratios = values / top
        want = top * (math.fsum(r**q for r in ratios) / values.size) ** (1.0 / q)
        with np.errstate(divide="ignore"):  # the unclamped sum, as exp gives it
            plain = top * float(np.sum(np.exp(np.log(ratios) * q)) / values.size) ** (1.0 / q)
        got = lp_norm(x, q)
        assert abs(got - want) <= 1e-15 * want
        assert abs(got - plain) <= 1e-15 * plain

    @settings(max_examples=60, deadline=None)
    @given(window_logs(6, near=-10.0))
    def test_exp_moment_against_fsum(self, logs):
        # exponents reach the window only when u max|x| nears 709: here u = 1 and max|x| = 712,
        # so the moment stays finite only with a top atom of mass 2^-6 or less, the rest far below
        values = np.array([712.0] + [max(0.0, 712.0 + t) for t in logs])
        x = StepFunction1D(n=int(math.log2(values.size)), values=values)
        total = math.fsum(math.exp(v - 712.0) for v in values)
        want = math.exp(712.0 + math.log(total / values.size)) - 1.0
        peak = 712.0 - math.log(values.size)  # the top atom's exponent, weight included
        exponents = values - math.log(values.size) - peak  # unclamped, as exp gives them
        plain = math.exp(peak + math.log(float(np.sum(np.exp(exponents))))) - 1.0
        got = exp_moment(x, 1.0)
        assert abs(got - want) <= 1e-12 * want
        assert abs(got - plain) <= 1e-15 * plain


class TestExpMoment:
    def test_unit_product(self):
        x = eval_decoupled([[1.0]])
        assert exp_moment(x, math.log(2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        x = StepFunction1D(n=2, values=np.zeros(4))
        assert exp_moment(x, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_small_u_bound(self):
        rng = np.random.Generator(np.random.Philox(key=32))
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            a /= np.linalg.norm(a)
            assert exp_moment(eval_decoupled(a), 0.18) <= 1.0

    def test_huge_exponent_degrades_to_inf(self):
        x = materialize_1d([2000.0])
        assert exp_moment(x, 1.0) == math.inf

    def test_works_in_one_copy(self):
        one_copy_check(exp_moment, 0.18)


class TestOrlicz:
    def test_constant_one(self):
        assert orlicz_exp_norm(char_rearrangement(1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_fundamental_function(self):
        for t in (1.0, 0.5, 0.25, 1.0 / 16.0):
            expected = 1.0 / math.log(1.0 + (E - 1.0) / t)
            assert orlicz_exp_norm(char_rearrangement(t)) == pytest.approx(
                expected, rel=1e-9
            )

    def test_homogeneity(self):
        r = rearrangement(materialize_1d([2.0]))  # |2 r_1| == 2
        assert orlicz_exp_norm(r) == pytest.approx(2.0, rel=1e-9)

    def test_zero_function(self):
        r = Rearrangement(values=np.array([0.0]), masses=np.array([1.0]))
        assert orlicz_exp_norm(r) == 0.0

    @staticmethod
    def _bisection_oracle(r, rel_tol):
        """Reference solver: bracket by doubling and halving, then bisect, on the unscaled law."""
        vals, masses = r.values, r.masses
        if vals[0] == 0.0:
            return 0.0

        def integral(u):
            with np.errstate(over="ignore"):
                return float(np.sum(masses * np.expm1(vals / u)))

        hi = float(vals[0]) / math.log(2.0)
        while integral(hi) > E - 1.0:
            hi *= 2.0
        lo = hi
        while integral(lo) <= E - 1.0:
            lo /= 2.0
        for _ in range(200):
            if hi - lo <= rel_tol * hi:
                return 0.5 * (lo + hi)
            mid = 0.5 * (lo + hi)
            if integral(mid) <= E - 1.0:
                hi = mid
            else:
                lo = mid
        raise AssertionError("oracle bisection did not converge")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40, unique=True),
        st.integers(0, 2**32 - 1),
        st.sampled_from([-1000, -1, 1, 1000]),
        st.sampled_from([1e-10, 1e-15]),
    )
    def test_homogeneous_under_powers_of_two(self, values, seed, k, rel_tol):
        # scaling by 2^k is exact, so the norm scales by 2^k bit for bit
        counts = np.random.default_rng(seed).integers(1, 9, len(values))
        vals = np.sort(np.array(values))[::-1]
        r = Rearrangement(values=vals, masses=counts / counts.sum())
        scaled = Rearrangement(values=np.ldexp(vals, k), masses=r.masses)
        assert orlicz_exp_norm(scaled, rel_tol) == math.ldexp(orlicz_exp_norm(r, rel_tol), k)

    def test_tiny_scale_is_not_zero(self):
        masses = np.array([0.5, 0.5])
        tiny = orlicz_exp_norm(Rearrangement(values=np.array([1e-300, 5e-301]), masses=masses))
        unit = orlicz_exp_norm(Rearrangement(values=np.array([1.0, 0.5]), masses=masses))
        # approx's default absolute tolerance (1e-12) would accept 0.0 here
        assert tiny == pytest.approx(unit * 1e-300, rel=1e-9, abs=0.0)
        assert tiny == pytest.approx(7.8896e-301, rel=1e-4, abs=0.0)

    def test_huge_scale_returns(self):
        # before the scaling fix this call never returned, so it runs in a child with a timeout
        code = (
            "import numpy as np; from chaoslab.rearrange import Rearrangement;"
            "from chaoslab.spaces import orlicz_exp_norm;"
            "print(repr(orlicz_exp_norm(Rearrangement("
            "values=np.array([1.7e308, 8.5e307]), masses=np.array([0.5, 0.5])))))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert proc.returncode == 0, proc.stderr
        huge = float(proc.stdout)
        unit = orlicz_exp_norm(
            Rearrangement(values=np.array([1.7, 0.85]), masses=np.array([0.5, 0.5]))
        )
        assert math.isfinite(huge)
        assert huge == pytest.approx(unit * 1e308, rel=1e-9)
        assert huge == pytest.approx(1.3412e308, rel=1e-4)

    @staticmethod
    def _integral(r, u):
        """sum m_k expm1(v_k / u) as one allocating expression, on the unscaled law."""
        with np.errstate(over="ignore"):
            return float(np.sum(r.masses * np.expm1(r.values / u)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1)).map(
                lambda t: eval_decoupled(np.random.default_rng(t[2]).standard_normal(t[:2]))
            ),
            st.integers(0, 2**32 - 1).map(  # integer values with heavy ties
                lambda seed: eval_decoupled(np.random.default_rng(seed).integers(-2, 3, (4, 5)))
            ),
        ),
        st.sampled_from([1e-3, 1.0, 300.0]),
        st.sampled_from([1e-10, 1e-15]),
    )
    def test_agrees_with_bisection_oracle(self, x, scale, rel_tol):
        r = rearrangement(x)
        r = Rearrangement(values=r.values * scale, masses=r.masses)
        value = orlicz_exp_norm(r, rel_tol)
        expected = self._bisection_oracle(r, rel_tol)
        if expected == 0.0:
            assert value == 0.0
            return
        # the oracle itself is only good to rel_tol; at 1e-15 both end within ulps
        bound = 2.0 * rel_tol if rel_tol == 1e-10 else 1e-14
        assert abs(value - expected) <= bound * expected
        # the root property, with an integral independent of the solver
        assert self._integral(r, value * (1.0 + 1e-8)) <= E - 1.0
        assert self._integral(r, value * (1.0 - 1e-8)) > E - 1.0

    @pytest.mark.parametrize("k", [0, 1, 10, 60, 500, 1022])
    def test_fundamental_function_to_ulps(self, k):
        # one nonzero value: the start bound is the root itself
        t = math.ldexp(1.0, -k)
        expected = 1.0 / math.log1p((E - 1.0) / t)
        value = orlicz_exp_norm(char_rearrangement(t))
        assert abs(value - expected) <= 4 * math.ulp(expected)

    @pytest.mark.parametrize("t", [math.ldexp(1.0, -1023), 1e-308])
    def test_subnormal_coarse_mean(self, t):
        # the one group's mean value t/2 puts the coarse root past the largest double; the
        # step-0 bound is still the root
        expected = 1.0 / math.log1p((E - 1.0) / t)
        value = orlicz_exp_norm(char_rearrangement(t))
        assert abs(value - expected) <= 4 * math.ulp(expected)

    def _assert_root(self, r, rel_tol):
        """The solver against the bisection oracle and the root property I(u(1 -+ 1e-8))."""
        value = orlicz_exp_norm(r, rel_tol)
        expected = self._bisection_oracle(r, rel_tol)
        # exp carries J = M + e - 1 at the root, so a total mass M costs about log2 M bits
        bound = max(2.0 * rel_tol, 1e-13 * max(1.0, float(r.masses.sum())))
        assert abs(value - expected) <= bound * expected
        assert self._integral(r, value * (1.0 + 1e-8)) <= E - 1.0
        assert self._integral(r, value * (1.0 - 1e-8)) > E - 1.0

    @staticmethod
    @st.composite
    def _gapped_laws(draw):
        """Several coarse groups, one hiding a 1e6 drop, a tiny top mass and maybe a zero tail."""
        n = draw(st.integers(65, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vals = np.sort(rng.uniform(1.0, 2.0, n))[::-1]
        vals[draw(st.integers(1, n - 1)):] *= 1e-6  # the steps after the drop
        if draw(st.booleans()):
            vals[-1] = 0.0
        masses = rng.uniform(1.0, 8.0, n)
        top = math.ldexp(1.0, -draw(st.integers(1, 60)))
        masses *= (1.0 - top) / masses[1:].sum()
        masses[0] = top
        scale = draw(st.sampled_from([1e-3, 1.0, 300.0]))
        return Rearrangement(values=vals * scale, masses=masses)

    @settings(max_examples=100, deadline=None)
    @given(_gapped_laws(), st.sampled_from([1e-10, 1e-15]))
    def test_gapped_laws_agree_with_bisection_oracle(self, r, rel_tol):
        # the coarse root of a group that mixes large and small values lies far above
        # the root; the group-start bounds must catch it
        self._assert_root(r, rel_tol)

    @pytest.mark.parametrize("total", [0.25, 3.0, 40.0, 1000.0])
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-15])
    def test_masses_not_summing_to_one(self, total, rel_tol):
        # log J(s) = log(M + e - 1) is still I(s) = e - 1 when the masses sum to M; at
        # M = 40 and rel_tol 1e-15 this law ends in rounding noise, stopped by a step up
        r = rearrangement(eval_decoupled(np.random.default_rng(1).standard_normal((6, 7))))
        self._assert_root(Rearrangement(values=r.values, masses=r.masses * total), rel_tol)

    def test_one_group_law_skips_the_coarse_newton(self):
        # a law of at most _ORLICZ_GROUP steps coarsens to one point, whose root is the
        # closed form log1p((e - 1)/M)/mean: only the full-law Newton runs
        r = rearrangement(eval_decoupled(np.arange(1.0, 13.0).reshape(3, 4)))
        assert r.values.size <= spaces._ORLICZ_GROUP
        with mock.patch.object(spaces, "_newton_log_j", wraps=spaces._newton_log_j) as newton:
            orlicz_exp_norm(r)
        assert newton.call_count == 1
        self._assert_root(r, 1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_newton_steps_on_a_gaussian_law(self, seed):
        r = rearrangement(eval_decoupled(np.random.default_rng(seed).standard_normal((10, 10))))
        assert r.values.size > 2**17
        e = math.frexp(float(r.values[0]))[1]
        # the full-law Newton walks over 16 blocks, each scaled by 2^-e into a buffer as it is read
        s, steps = _orlicz_root(r.values, r.masses, e, 1e-10)
        assert steps <= 3
        assert math.ldexp(1.0 / s, e) == orlicz_exp_norm(r)


class TestMarcinkiewicz:
    def test_constant_against_identity_weight(self):
        r = char_rearrangement(1.0)
        assert marcinkiewicz_norm(r, lambda t: t) == pytest.approx(1.0, rel=1e-12)

    def test_two_step_hand_value(self):
        r = Rearrangement(values=np.array([2.0, 0.0]), masses=np.array([0.25, 0.75]))
        assert marcinkiewicz_norm(r, lambda t: t) == pytest.approx(2.0, rel=1e-12)

    def test_agrees_with_quasinorm_on_block(self):
        eps = 0.25
        r = rearrangement(flipped_block(2))
        marc = marcinkiewicz_norm(r, phi_eps(eps))
        quasi = quasinorm_phi_eps(r, eps)
        assert marc == pytest.approx(4.0 / 3.0**0.25, rel=1e-12)
        assert 1.0 <= marc / quasi <= 2.0

    def test_dominates_quasinorm(self):
        # (1/phi) integral to t >= x*(t) t / phi(t), so marc >= quasi always
        rng = np.random.Generator(np.random.Philox(key=33))
        for _ in range(10):
            r = rearrangement(StepFunction1D(n=4, values=rng.standard_normal(16)))
            marc = marcinkiewicz_norm(r, phi_eps(0.3))
            quasi = quasinorm_phi_eps(r, 0.3)
            assert marc >= quasi * (1.0 - 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(tied_step_functions(), CONCAVE_WEIGHTS)
    def test_equals_max_over_atom_boundaries(self, x, phi):
        # F from per-atom sorted values at every atom boundary j * 2^-n; the
        # boundaries inside a step cannot beat the step's endpoints
        vals = np.sort(np.abs(x.values))[::-1]
        t = np.arange(1, vals.size + 1) * x.atom_measure
        expected = float(np.max(np.cumsum(vals) * x.atom_measure / phi(t)))
        value = marcinkiewicz_norm(rearrangement(x), phi)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(tied_step_functions(), CONCAVE_WEIGHTS)
    def test_dominates_dense_grid_inside_steps(self, x, phi):
        r = rearrangement(x)
        # the grid works on the law scaled to max 1: near DBL_MIN, F(t) at t ~ 1e-12
        # is subnormal and the grid's own ratio would be off in the fourth digit
        scale = float(r.values[0]) or 1.0
        knots_t = np.concatenate([[0.0], r.bounds])
        knots_f = np.concatenate([[0.0], np.cumsum(r.values / scale * r.masses)])
        grid = np.concatenate(
            [np.geomspace(lo if lo > 0.0 else hi * 1e-12, hi, 256) for lo, hi in zip(knots_t, knots_t[1:])]
        )
        ratios = np.interp(grid, knots_t, knots_f) / phi(grid)
        assert marcinkiewicz_norm(r, phi) / scale >= float(ratios.max()) * (1.0 - 1e-12)

    def test_nonpositive_weight_at_breakpoint_rejected(self):
        r = Rearrangement(values=np.array([2.0, 1.0]), masses=np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            marcinkiewicz_norm(r, lambda t: np.where(t < 1.0, t, 0.0))  # phi(1) = 0
        with pytest.raises(ValueError):
            marcinkiewicz_norm(r, lambda t: t - 0.5)  # phi(1/4) < 0

    def test_peak_memory_is_a_few_arrays_per_step(self):
        steps = 2**14
        r = Rearrangement(
            values=np.linspace(2.0, 1.0, steps), masses=np.full(steps, 1.0 / steps)
        )
        phi = phi_eps(0.25)
        tracemalloc.start()
        try:
            marcinkiewicz_norm(r, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * steps * 8


class TestQuasinorm:
    def test_constant(self):
        assert quasinorm_phi_eps(char_rearrangement(1.0), 0.25) == 1.0

    def test_half_step(self):
        eps = 0.25
        r = char_rearrangement(0.5)
        assert quasinorm_phi_eps(r, eps) == pytest.approx(2.0 ** (eps - 0.5), rel=1e-12)

    def test_block_lower_bound(self):
        # second block: peak 2^2 survives at u_1 = 2^-7
        eps = 0.25
        r = rearrangement(flipped_block(2))
        bound = 4.0 * math.log2(2.0 / 2.0**-7) ** (eps - 0.5)
        assert quasinorm_phi_eps(r, eps) >= bound

    def test_eps_range(self):
        with pytest.raises(ValueError):
            quasinorm_phi_eps(char_rearrangement(1.0), 0.6)

    @pytest.mark.parametrize("weight", [2.0**-15, 2.0**-14], ids=["M=0.75", "M=1.5"])
    def test_block_max_above_a_lower_block_start(self, weight):
        # values nearly flat within each of three blocks, 5% lower in the second and half in the
        # third: the second block starts below the first block's max and ends above it, so its
        # cap must be taken at its last bound
        steps = 3 * BLOCK
        falls = 1.0 - np.arange(steps) / steps
        values = (1.0 + np.ldexp(falls, -30)) * np.repeat([1.0, 0.95, 0.5], BLOCK)
        r = Rearrangement(values=values, masses=np.broadcast_to(weight, steps))
        products = values * np.power(np.log2(2.0 / r.bounds), -0.25)
        assert products[BLOCK] < products[:BLOCK].max() < products[2 * BLOCK - 1] == products.max()
        assert quasinorm_phi_eps(r, 0.25) == products.max()


class TestLorentz:
    def test_constant(self):
        assert lorentz_norm(char_rearrangement(1.0), 1.5) == pytest.approx(1.0, rel=1e-12)

    def test_half_characteristic(self):
        assert lorentz_norm(char_rearrangement(0.5), 1.5) == pytest.approx(
            2.0 ** (-1.0 / 3.0), rel=1e-12
        )

    def test_homogeneity(self):
        r = rearrangement(materialize_1d([2.0]))
        assert lorentz_norm(r, 1.5) == pytest.approx(2.0, rel=1e-12)

    def test_huge_scale(self):
        # (1e200)**p overflows a double for p > 1.55; the norm is homogeneous
        r = rearrangement(eval_decoupled(np.array([[1.0, 2.0], [-3.0, 0.5]])))
        scaled = Rearrangement(values=1e200 * r.values, masses=r.masses)
        for p in (1.5, 1.75, 1.9):
            value = lorentz_norm(scaled, p)
            assert math.isfinite(value)
            assert value == pytest.approx(1e200 * lorentz_norm(r, p), rel=1e-12)

    def test_zero_function(self):
        r = Rearrangement(values=np.array([0.0]), masses=np.array([1.0]))
        assert lorentz_norm(r, 1.5) == 0.0

    def test_p_range(self):
        with pytest.raises(ValueError):
            lorentz_norm(char_rearrangement(1.0), 2.5)

    @pytest.mark.parametrize(
        "steps", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2**14, 2**14 + 1, 2**15 + 3]
    )
    def test_blocks_match_one_pass(self, steps):
        # the one-pass terms, summed a block of BLOCK steps at a time and the block sums in turn
        rng = np.random.Generator(np.random.Philox(key=36))
        values = np.sort(rng.uniform(0.5, 3.0, steps))[::-1].copy()
        r = Rearrangement(values=values, masses=rng.uniform(0.5, 1.0, steps) / steps)
        p = 1.5
        phi = np.log2(2.0 / r.bounds) ** (1.0 - p)
        top = values[0]
        powered = (values / top) ** p * np.diff(phi, prepend=0.0)
        total = 0.0
        for lo in range(0, steps, BLOCK):
            total += float(np.sum(powered[lo : lo + BLOCK]))
        assert lorentz_norm(r, p) == top * total ** (1.0 / p)


class TestNormProperties:
    def _norms(self, r):
        return {
            "orlicz": orlicz_exp_norm(r),
            "marc": marcinkiewicz_norm(r, phi_eps(0.25)),
            "quasi": quasinorm_phi_eps(r, 0.25),
            "lorentz": lorentz_norm(r, 1.5),
        }

    def test_homogeneity_and_monotonicity(self):
        rng = np.random.Generator(np.random.Philox(key=34))
        for _ in range(5):
            vals = rng.standard_normal(16)
            x = StepFunction1D(n=4, values=vals)
            y = StepFunction1D(n=4, values=vals * rng.uniform(1.0, 2.0, size=16))
            nx = self._norms(rearrangement(x))
            ny = self._norms(rearrangement(y))
            scaled = self._norms(rearrangement(StepFunction1D(n=4, values=3.0 * vals)))
            for key in nx:
                assert ny[key] >= nx[key] * (1.0 - 1e-9)
                assert scaled[key] == pytest.approx(3.0 * nx[key], rel=1e-8)

    def test_only_distribution_matters(self):
        rng = np.random.Generator(np.random.Philox(key=35))
        vals = rng.standard_normal(16)
        x = StepFunction1D(n=4, values=vals)
        y = StepFunction1D(n=4, values=vals[rng.permutation(16)])
        assert self._norms(rearrangement(x)) == self._norms(rearrangement(y))


class TestLawLayerMemory:
    """tracemalloc peaks on a 2^16-atom law of distinct values, in multiples of its bytes."""

    @pytest.fixture(scope="class")
    def law(self):
        rng = np.random.Generator(np.random.Philox(key=37))
        return StepFunction1D(n=16, values=rng.standard_normal(2**16))

    @pytest.mark.parametrize("name, budget", [
        ("rearrangement", 2.25),  # the sort buffer kept as the values, and the masses
        ("quasinorm_phi_eps", 1.1),  # the bounds, worked in place
        ("lorentz_norm", 2.3),  # the values and phi, and a block of phi differences
        ("marcinkiewicz_norm", 3.0),  # the bounds and phi_eps's two temporaries
    ])
    def test_peak_within_budget(self, law, name, budget):
        r = rearrangement(law)
        fn = {
            "rearrangement": lambda: rearrangement(law),
            "quasinorm_phi_eps": lambda: quasinorm_phi_eps(r, 0.25),
            "lorentz_norm": lambda: lorentz_norm(r, 1.5),
            "marcinkiewicz_norm": lambda: marcinkiewicz_norm(r, phi_eps(0.25)),
        }[name]
        assert traced_peak(fn) <= budget * law.values.nbytes + SLACK


SEAM_STEPS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


@st.composite
def seam_laws(draw):
    """Laws whose step counts straddle the block seams, with one weight broadcast over the
    steps (as ``rearrangement`` gives a law of distinct values) or drawn masses, scaled by
    2^-1000, 1 or 2^1000, sometimes with a last value of 0."""
    steps = draw(st.sampled_from(SEAM_STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 1.0 + np.cumsum(rng.uniform(0.5, 1.5, steps))[::-1] / steps
    if steps > 1 and draw(st.booleans()):
        values[-1] = 0.0
    if draw(st.booleans()):
        masses = np.broadcast_to(1.0 / steps, steps)
    else:
        masses = rng.uniform(0.5, 1.5, steps) / steps
    scale = draw(st.sampled_from([-1000, 0, 1000]))
    return Rearrangement(values=np.ldexp(values, scale), masses=masses)


def one_pass_orlicz(r):
    """Newton on log J over the whole law at once, from the smallest cap log1p((e-1)/M_k)/v_k."""
    e = math.frexp(float(r.values[0]))[1]
    v, m = np.ldexp(r.values, -e), np.asarray(r.masses)
    target = math.log(float(np.sum(m)) + E - 1.0)
    with np.errstate(divide="ignore"):
        s = float(np.min(np.log1p((E - 1.0) / np.cumsum(m)) / v))
    for _ in range(100):
        terms = np.exp(v * s)
        j = float(np.dot(m, terms))
        step = (math.log(j) - target) * j / float(np.dot(m, v * terms))
        s -= step
        if abs(step) <= 1e-15 * s:
            break
    return math.ldexp(1.0 / s, e)


def one_pass_lp(x, q):
    atoms, weight = x.law_atoms()
    ratios = np.abs(atoms) / float(np.abs(atoms).max())
    with np.errstate(divide="ignore"):
        exponents = np.maximum(np.log(ratios) * q, spaces._EXP_FLOOR)
    return float(np.abs(atoms).max()) * (float(np.sum(np.exp(exponents))) * weight) ** (1.0 / q)


def one_pass_exp_moment(x, u):
    atoms, weight = x.law_atoms()
    exponents = np.abs(atoms) * u + math.log(weight)
    peak = float(exponents.max())
    exponents = np.maximum(exponents - peak, spaces._EXP_FLOOR)
    return math.exp(peak + math.log(float(np.sum(np.exp(exponents))))) - 1.0


@st.composite
def seam_step_functions(draw):
    """Step functions whose law atoms straddle the block seams: 1-D laws of 1 to 4 blocks, and
    decoupled chaos whose representative quarter has rows narrower or wider than a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([-1000, 0, 1000]))
    if draw(st.booleans()):
        bits = draw(st.sampled_from([0, 12, 13, 14, 15]))
        return StepFunction1D(n=bits, values=np.ldexp(rng.standard_normal(2**bits), k))
    shape = draw(st.sampled_from([(2, 15), (15, 2), (7, 8), (8, 8), (3, 13)]))
    return eval_decoupled(np.ldexp(rng.standard_normal(shape), k))


@st.composite
def sup_laws(draw):
    """Laws for the pruned sup-form quasi-norm, at the block seams: values falling by 2^20 put
    the max early, nearly flat values put it in the last block, where the rising weight wins,
    and a staircase of nearly flat runs, each 2^-0.01 below the one before, makes block maxima
    that lie inside their blocks and above products at the block's start;
    masses are one power-of-two weight, drawn, or whole multiples of a weight (tied atoms), and
    total M in [1/2, 1], [1, 2) or [4, 8), where bounds above 2 give NaN; scaled by 2^-1000, 1
    or 2^1000, sometimes with a last value of 0."""
    steps = draw(st.sampled_from(SEAM_STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    falls = 1.0 - np.arange(steps) / steps
    profile = draw(st.sampled_from(["falling", "flat", "staircase"]))
    if profile == "falling":
        values = np.exp2(20.0 * falls)
    else:
        values = 1.0 + np.ldexp(falls, -30)
    if profile == "staircase":
        values *= np.exp2(-0.01 * (np.arange(steps) // draw(st.integers(500, 5000))))
    if steps > 1 and draw(st.booleans()):
        values[-1] = 0.0
    # steps * 2^k lies in [1, 2) at the middle k
    k = draw(st.sampled_from([-1, 0, 2])) - math.floor(math.log2(steps))
    masses = draw(st.sampled_from([
        np.broadcast_to(2.0**k, steps),
        np.ldexp(rng.uniform(0.5, 1.5, steps), k),
        np.ldexp(rng.integers(1, 4, steps) / 2.0, k),
    ]))
    scale = draw(st.sampled_from([-1000, 0, 1000]))
    return Rearrangement(values=np.ldexp(values, scale), masses=masses)


class TestBlockedNorms:
    """Each norm walks its law in blocks of BLOCK elements; against the one-pass formulas."""

    @settings(max_examples=40, deadline=None)
    @given(seam_laws())
    def test_rearrangement_norms_match_one_pass(self, r):
        bounds = r.bounds
        assert orlicz_exp_norm(r, 1e-15) == pytest.approx(one_pass_orlicz(r), rel=1e-13, abs=0)
        phi = np.log2(2.0 / bounds) ** (1.0 - 1.5)
        top = float(r.values[0])
        powered = (r.values / top) ** 1.5 * np.diff(phi, prepend=0.0)
        want = top * float(np.sum(powered)) ** (1.0 / 1.5)
        assert lorentz_norm(r, 1.5) == pytest.approx(want, rel=1e-13, abs=0)
        # the sups take the max of the same elements as one pass: equal, bit for bit
        assert quasinorm_phi_eps(r, 0.25) == float(np.max(r.values * np.log2(2.0 / bounds) ** -0.25))
        weight = phi_eps(0.25)
        want = float(np.max(np.cumsum(r.values * r.masses) / weight(bounds)))
        assert marcinkiewicz_norm(r, weight) == want

    @settings(max_examples=40, deadline=None)
    @given(seam_laws())
    def test_blocked_bounds_equal_one_cumsum(self, r):
        buf = np.empty(BLOCK)
        blocks = [(lo, hi, b.copy()) for lo, hi, b in r.bound_blocks(buf)]
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (lo, min(lo + BLOCK, r.values.size)) for lo in range(0, r.values.size, BLOCK)
        ]
        assert np.concatenate([b for _, _, b in blocks]).tobytes() == np.cumsum(r.masses).tobytes()

    @pytest.mark.parametrize("steps", SEAM_STEPS)
    @pytest.mark.parametrize("weight", [2.0**-14, 2.0**-1074, 2.0**1023, 0.1, 3 * 2.0**-20, None],
                             ids=["2^-14", "2^-1074", "2^1023", "0.1", "3*2^-20", "contiguous"])
    def test_closed_form_bounds_equal_one_cumsum(self, steps, weight):
        # one power-of-two weight broadcast over the steps takes the closed form (k + 1) w, even
        # when subnormal or overflowing to inf; other weights and contiguous masses are summed
        if weight is None:
            masses = np.random.default_rng(steps).uniform(0.5, 1.5, steps) / steps
        else:
            masses = np.broadcast_to(weight, steps)
        r = Rearrangement(values=np.linspace(2.0, 1.0, steps), masses=masses)
        closed = weight is not None and math.frexp(weight)[0] == 0.5
        assert r._power_of_two_weight() == (weight if closed else None)
        with np.errstate(over="ignore"):
            want = np.cumsum(r.masses).tobytes()
            blocks = [b.copy() for _, _, b in r.bound_blocks(np.empty(BLOCK))]
            assert np.concatenate(blocks).tobytes() == want
            assert r.bounds.tobytes() == want

    @pytest.mark.parametrize("steps", SEAM_STEPS)
    @pytest.mark.parametrize("weight", [2.0**-14, 0.1, None], ids=["2^-14", "0.1", "contiguous"])
    def test_keep_skips_blocks_and_leaves_the_rest(self, steps, weight):
        # keep sees each block's first step and last bound as the block comes due; the blocks it
        # keeps are bit for bit the ones without it, and under one power-of-two weight a block
        # it skips is never written
        if weight is None:
            masses = np.random.default_rng(steps).uniform(0.5, 1.5, steps) / steps
        else:
            masses = np.broadcast_to(weight, steps)
        r = Rearrangement(values=np.linspace(2.0, 1.0, steps), masses=masses)
        full = [(lo, hi, b.tobytes()) for lo, hi, b in r.bound_blocks(np.empty(BLOCK))]
        seen = []

        def odd(lo, top):
            seen.append((lo, top))
            return lo // BLOCK % 2 == 1

        kept = [(lo, hi, b.tobytes()) for lo, hi, b in r.bound_blocks(np.empty(BLOCK), odd)]
        assert seen == [(lo, float(np.frombuffer(b)[-1])) for lo, _, b in full]
        assert kept == [block for block in full if block[0] // BLOCK % 2 == 1]
        buf = np.full(BLOCK, np.nan)
        assert list(r.bound_blocks(buf, lambda lo, top: False)) == []
        assert np.isnan(buf).all() == (weight == 2.0**-14)

    @settings(max_examples=60, deadline=None)
    @given(sup_laws(), st.floats(0.01, 0.49))
    def test_pruned_sup_equals_one_pass(self, r, eps):
        # blocks whose cap lies below the best block max are skipped; the max is unchanged
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            bounds = np.cumsum(r.masses)
            want = float(np.max(r.values * np.power(np.log2(2.0 / bounds), eps - 0.5)))
            got = quasinorm_phi_eps(r, eps)
        if bounds[-1] > 2.0:
            assert math.isnan(got) and math.isnan(want)
        else:
            assert got == want

    @settings(max_examples=40, deadline=None)
    @given(seam_step_functions(), st.sampled_from([1.0, 4.0, 400.0]), st.floats(0.5, 3.0))
    def test_atom_norms_match_one_pass(self, x, q, c):
        want = one_pass_lp(x, q)
        assert lp_norm(x, q) == pytest.approx(want, rel=1e-13, abs=0)
        assert lp_norm(x, math.inf) == float(np.abs(x.law_atoms()[0]).max())
        u = c / float(np.abs(x.law_atoms()[0]).max())  # u max|x| = c at any scale
        assert exp_moment(x, u) == pytest.approx(one_pass_exp_moment(x, u), rel=1e-13, abs=0)

    @pytest.mark.parametrize("values, lp, lp_inf, moment", [
        ([1.0, math.nan, -2.0, 0.5], math.nan, math.nan, math.nan),
        ([1.0, math.inf, -2.0, 0.5], math.nan, math.inf, math.nan),
        ([1.0, -math.inf, -2.0, 0.5], math.nan, math.inf, math.nan),
        ([math.nan, math.inf, 1.0, 0.0], math.nan, math.nan, math.nan),
        ([0.0, 0.0, 0.0, 0.0], 0.0, 0.0, 0.0),
        ([-0.0, -0.0, -0.0, -0.0], 0.0, 0.0, 0.0),
        ([0.0, -0.0, 0.0, -0.0], 0.0, 0.0, 0.0),
    ], ids=["nan", "inf", "minus-inf", "nan-and-inf", "zeros", "minus-zeros", "mixed-zeros"])
    @pytest.mark.parametrize("spread", [False, True], ids=["one-block", "across-blocks"])
    def test_special_atoms_as_before(self, values, lp, lp_inf, moment, spread):
        # top is max(atoms.max(), -atoms.min()), not from an |x| copy; the results are those
        # the |x| copy gave: NaN, +inf at q = inf, and +0.0 for a law of zeros
        atoms = np.repeat(values, BLOCK if spread else 1)  # spread: each value fills a block
        x = StepFunction1D(n=int(math.log2(atoms.size)), values=atoms)
        with np.errstate(invalid="ignore"):
            got = [lp_norm(x, 1), lp_norm(x, 4), lp_norm(x, math.inf), exp_moment(x, 0.5)]
        for value, want in zip(got, [lp, lp, lp_inf, moment]):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == want and math.copysign(1.0, value) == 1.0

    STEPS = 2**18
    GROUPS = STEPS // spaces._ORLICZ_GROUP
    # four block buffers and eight arrays of one double per 64-step group (Orlicz's coarse law),
    # where one copy of the law alone is 2 MiB
    BUDGET = 4 * BLOCK * 8 + 8 * GROUPS * 8 + SLACK

    @pytest.fixture(scope="class")
    def gaussian(self):
        rng = np.random.Generator(np.random.Philox(key=38))
        return StepFunction1D(n=18, values=rng.standard_normal(self.STEPS))

    @pytest.mark.parametrize("name", [
        "lp_norm", "exp_moment", "orlicz_exp_norm", "lorentz_norm",
        "marcinkiewicz_norm", "quasinorm_phi_eps",
    ])
    def test_norms_peak_at_a_few_blocks(self, gaussian, name):
        r = rearrangement(gaussian)
        assert r.values.size == self.STEPS
        fn = {
            "lp_norm": lambda: lp_norm(gaussian, 4.0),
            "exp_moment": lambda: exp_moment(gaussian, 0.5),
            "orlicz_exp_norm": lambda: orlicz_exp_norm(r),
            "lorentz_norm": lambda: lorentz_norm(r, 1.5),
            "marcinkiewicz_norm": lambda: marcinkiewicz_norm(r, phi_eps(0.25)),
            "quasinorm_phi_eps": lambda: quasinorm_phi_eps(r, 0.25),
        }[name]
        assert traced_peak(fn) <= self.BUDGET

    def test_distinct_law_rearranges_into_one_array(self, gaussian):
        # the sort buffer becomes the values; the masses are one weight broadcast, read-only
        peak = traced_peak(lambda: rearrangement(gaussian))
        assert peak <= gaussian.values.nbytes + 2 * BLOCK * 8 + SLACK
        r = rearrangement(gaussian)
        assert r.masses.strides == (0,) and not r.masses.flags.writeable
        assert np.all(r.masses == gaussian.atom_measure)


class TestParseSpace:
    def test_valid(self):
        assert parse_space("lp:3") == SpaceSpec("lp", 3.0)
        assert parse_space("lp:inf") == SpaceSpec("lp", math.inf)
        assert parse_space("orlicz-exp") == SpaceSpec("orlicz_exp")
        assert parse_space("marc:0.25") == SpaceSpec("marcinkiewicz", 0.25)
        assert parse_space("lorentz:1.5") == SpaceSpec("lorentz", 1.5)

    @pytest.mark.parametrize(
        "bad",
        ["lp:0.5", "marc:0.7", "marc:0", "lorentz:2.5", "lorentz:1",
         "orlicz-exp:3", "banach:2", "lp", "lp:nan"],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_space(bad)
