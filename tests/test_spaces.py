import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.chaos import eval_decoupled
from chaoslab.dyadic import StepFunction1D, materialize_1d
from chaoslab.rearrange import Rearrangement, rearrangement
from chaoslab.spaces import (
    SpaceSpec,
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
        knots_t = np.concatenate([[0.0], r.bounds])
        knots_f = np.concatenate([[0.0], np.cumsum(r.values * r.masses)])
        grid = np.concatenate(
            [np.geomspace(lo if lo > 0.0 else hi * 1e-12, hi, 256) for lo, hi in zip(knots_t, knots_t[1:])]
        )
        ratios = np.interp(grid, knots_t, knots_f) / phi(grid)
        assert marcinkiewicz_norm(r, phi) >= float(ratios.max()) * (1.0 - 1e-12)

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
         "orlicz-exp:3", "banach:2", "lp"],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_space(bad)
