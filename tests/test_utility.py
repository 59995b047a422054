import dataclasses
import math

import numpy as np
import pytest

from frictionopt import (
    UtilitySpec,
    check_assumptions,
    conjugate,
    delta2_ratio,
    exp_utility,
    log_utility,
    luxemburg_norm,
    orlicz_conjugate,
    power_utility,
    table_utility,
    vector_conjugate,
    young_pair,
)
from frictionopt.errors import (
    AssumptionViolationError,
    ConfigError,
    ConjugateUnboundedError,
    IndeterminateError,
)
from frictionopt.utility import growth_ok, scaled_value

YS = [0.25, 0.5, 1.0, 2.0, 4.0]


def linear_utility():
    return UtilitySpec("linear", "real", lambda x: x, np.ones_like, lambda y: np.where(y == 1.0, 0.0, np.inf))


def sqrt_utility():
    """U = sqrt(x) with its closed forms, but no elasticity or scaling identity."""
    return UtilitySpec("sqrt", "positive", np.sqrt, lambda x: 0.5 / np.sqrt(x), lambda y: 0.25 / y)


class TestConjugate:
    def test_log_matches_closed_form(self):
        u = log_utility()
        for y in YS:
            assert conjugate(u, y) == pytest.approx(-math.log(y) - 1.0, abs=1e-8)

    def test_exp_matches_closed_form(self):
        u = exp_utility(1.0)
        for y in YS:
            assert conjugate(u, y) == pytest.approx(1.0 - y + y * math.log(y), abs=1e-8)

    def test_exp_rate_parameter(self):
        a = 2.5
        u = exp_utility(a)
        for y in YS:
            expected = 1.0 - y / a + (y / a) * math.log(y / a)
            assert conjugate(u, y) == pytest.approx(expected, abs=1e-8)

    def test_power_matches_closed_form(self):
        u = power_utility(0.5)
        for y in YS:
            assert conjugate(u, y) == pytest.approx(1.0 / y, abs=1e-8)

    def test_rejects_nonpositive_y(self):
        u = log_utility()
        with pytest.raises(ConjugateUnboundedError):
            conjugate(u, 0.0)
        with pytest.raises(ConjugateUnboundedError):
            conjugate(u, -1.0)

    def test_linear_utility_diverges(self):
        with pytest.raises(ConjugateUnboundedError):
            conjugate(linear_utility(), 0.5)


class TestVectorConjugate:
    def test_analytic_route_matches_scalar(self):
        pts = np.geomspace(1e-3, 1e3, 60).reshape(6, 10)
        for u, scalar in (
            (log_utility(), lambda y: -math.log(y) - 1.0),
            (power_utility(0.3), lambda y: (1.0 / 0.3 - 1.0) * y ** (0.3 / (0.3 - 1.0))),
            (exp_utility(2.5), lambda y: 1.0 - y / 2.5 + (y / 2.5) * math.log(y / 2.5)),
        ):
            got = vector_conjugate(u, pts)
            assert got.shape == pts.shape
            expected = np.asarray([scalar(float(t)) for t in pts.ravel()]).reshape(pts.shape)
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0, err_msg=u.name)

    def test_rejects_nonpositive_points(self):
        with pytest.raises(ConjugateUnboundedError):
            vector_conjugate(log_utility(), np.asarray([1.0, 0.0]))


TABLES = {
    # name: (knots x, values u); the first three on the positive axis
    "flat-ended": ([0.5, 1.0, 2.0, 4.0], [-1.0, 0.0, 0.5, 0.5]),
    "rising": ([0.1, 1.0, 4.0], [-2.0, 0.0, 1.0]),
    "from-zero": ([0.0, 1.0, 3.0], [0.0, 1.0, 1.5]),
    "whole-line": ([-2.0, 0.0, 1.0, 5.0], [-6.0, 0.0, 1.0, 1.2]),
    "whole-line-flat": ([-1.0, 0.0, 2.0], [-3.0, 0.0, 0.0]),
}


class TestTableConjugate:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_closed_form_matches_the_search(self, name):
        u = table_utility(*TABLES[name])
        slopes = np.diff(TABLES[name][1]) / np.diff(TABLES[name][0])
        hi = slopes[0] if u.domain == "real" else 2.0 * slopes[0] + 1.0
        ys = np.linspace(max(slopes[-1], 1e-3), hi, 23)
        got = vector_conjugate(u, ys)
        want = [conjugate(u, float(y)) for y in ys]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_infinite_outside_the_end_slopes(self, name):
        u = table_utility(*TABLES[name])
        slopes = np.diff(TABLES[name][1]) / np.diff(TABLES[name][0])
        below = [0.5 * slopes[-1], 0.999 * slopes[-1]] if slopes[-1] > 0.0 else []
        above = [1.001 * slopes[0], 3.0 * slopes[0]]
        if below:
            assert np.all(vector_conjugate(u, np.asarray(below)) == np.inf)
            with pytest.raises(ConjugateUnboundedError):
                conjugate(u, below[0])
        got = vector_conjugate(u, np.asarray(above))
        if u.domain == "real":
            assert np.all(got == np.inf)
            with pytest.raises(ConjugateUnboundedError):
                conjugate(u, above[-1])
        else:
            # past the first slope the sup is the x -> 0+ end value
            x, v = TABLES[name]
            np.testing.assert_array_equal(got, v[0] - slopes[0] * x[0])


class TestDeriv:
    XS = np.asarray([0.05, 0.3, 0.9, 1.0, 1.7, 3.0, 12.0])

    @pytest.mark.parametrize(
        "u",
        [
            log_utility(),
            power_utility(0.4),
            exp_utility(1.5),
            table_utility([0.2, 0.6, 1.2, 2.5], [-1.0, 0.0, 0.5, 0.8]),
        ],
        ids=["log", "power", "exp", "custom-table"],
    )
    def test_matches_central_difference_of_u(self, u):
        h = 1e-6 * self.XS
        fd = (u(self.XS + h) - u(self.XS - h)) / (2.0 * h)
        np.testing.assert_allclose(u.deriv(self.XS), fd, rtol=1e-7, atol=1e-9)

    def test_closed_forms(self):
        x = self.XS
        np.testing.assert_allclose(log_utility().deriv(x), 1.0 / x, rtol=1e-15)
        np.testing.assert_allclose(power_utility(0.4).deriv(x), x ** -0.6, rtol=1e-15)
        np.testing.assert_allclose(exp_utility(1.5).deriv(x), 1.5 * np.exp(-1.5 * x), rtol=1e-15)

    def test_table_knot_slopes(self):
        u = table_utility([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 1.0, 1.5])
        q = np.asarray([-5.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 9.0])
        # pieces have slopes 2, 2, 1, 0.5, 0.5; knots take the mean of their neighbours
        np.testing.assert_array_equal(u.deriv(q), [2.0, 2.0, 2.0, 1.5, 1.0, 0.75, 0.5, 0.5])


class TestYoungPair:
    @pytest.mark.parametrize("a", [1.0, 3.0, 7.2])
    def test_beta_is_the_rate_exactly(self, a):
        pair = young_pair(exp_utility(a))
        assert pair.beta == a
        assert pair.v_at_beta == 0.0

    def test_phi_vanishes_below_beta(self):
        pair = young_pair(exp_utility(1.0))
        np.testing.assert_array_equal(pair.phi(np.asarray([0.0, 0.25, 0.9, 1.0])), 0.0)

    def test_phi_equals_shifted_conjugate_above_beta(self):
        pair = young_pair(exp_utility(1.0))
        ys = np.asarray([1.5, 2.0, 4.0, 10.0])
        expected = ys * np.log(ys) - ys + 1.0
        np.testing.assert_allclose(pair.phi(ys), expected, rtol=1e-15, atol=0.0)

    def test_table_beta_is_the_slope_below_zero(self):
        # a knot at 0 between slopes 3 and 1, where U' reads their mean, 2
        pair = young_pair(table_utility([-2.0, -1.0, 0.0, 1.0, 2.0], [-7.0, -3.0, 0.0, 1.0, 1.0]))
        assert pair.beta == 3.0

    def test_phi_star_is_reflected_utility_bitwise(self):
        pair = young_pair(exp_utility(1.0))
        xs = np.asarray([0.0, 0.5, 1.0, 2.0, 5.0])
        np.testing.assert_array_equal(pair.phi_star(xs), np.expm1(xs))

    def test_biconjugation_recovers_phi(self):
        pair = young_pair(exp_utility(1.0))
        ys = np.linspace(0.1, 5.0, 20)
        back = np.asarray([orlicz_conjugate(pair.phi_star, float(y)) for y in ys])
        np.testing.assert_allclose(back, pair.phi(ys), atol=1e-7)

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e6, 1e300])
    def test_delta2_flag_set_for_exp_pair(self, a):
        # phi is 0 up to beta = a, so the doubling grid must start there
        assert young_pair(exp_utility(a)).delta2_finite

    def test_rejects_utility_failing_assumptions(self):
        with pytest.raises(AssumptionViolationError):
            young_pair(linear_utility())


class TestDelta2:
    def test_exp_pair_ratio_near_two(self):
        pair = young_pair(exp_utility(1.0))
        rep = delta2_ratio(pair.phi)
        assert rep.finite
        assert 1.9 <= rep.ratio_estimate <= 2.2
        assert rep.grid_max == pytest.approx(1e6)

    def test_exponential_growth_flagged_infinite(self):
        pair = young_pair(exp_utility(1.0))
        rep = delta2_ratio(pair.phi_star)
        assert not rep.finite

    def test_power_function_exact_ratio(self):
        rep = delta2_ratio(lambda x: np.asarray(x, float) ** 2)
        assert rep.finite
        assert rep.ratio_estimate == pytest.approx(4.0, rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            delta2_ratio(lambda x: x, grid=np.asarray([-1.0, 1.0, 2.0] + list(range(3, 11))))
        with pytest.raises(ConfigError):
            delta2_ratio(lambda x: x, grid=np.asarray([1.0, 2.0]))

    def test_vanishing_phi_is_indeterminate(self):
        with pytest.raises(IndeterminateError):
            delta2_ratio(lambda x: np.zeros_like(np.asarray(x, float)))


class TestLuxemburgNorm:
    def test_constant_sample_closed_form_exponential_gauge(self):
        # mean of e^{c/g} - 1 equals 1 exactly at g = c / ln 2
        pair = young_pair(exp_utility(1.0))
        for c in (0.5, 1.0, 2.0):
            got = luxemburg_norm(np.full(17, c), pair.phi_star)
            assert got == pytest.approx(c / math.log(2.0), abs=1e-9)

    def test_constant_sample_closed_form_entropy_gauge(self):
        # phi(t) = t ln t - t + 1 hits 1 at t = e, so the norm is c / e
        pair = young_pair(exp_utility(1.0))
        for c in (0.5, 1.0, 2.0):
            got = luxemburg_norm(np.full(5, c), pair.phi)
            assert got == pytest.approx(c / math.e, rel=1e-9)

    def test_positive_homogeneity(self):
        pair = young_pair(exp_utility(1.0))
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, size=200)
        base = luxemburg_norm(x, pair.phi_star)
        for c in (0.5, 2.0):
            scaled = luxemburg_norm(c * x, pair.phi_star)
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_monotone_in_the_sample(self):
        pair = young_pair(exp_utility(1.0))
        rng = np.random.default_rng(7)
        x = rng.exponential(1.0, size=100)
        assert luxemburg_norm(1.5 * x, pair.phi_star) >= luxemburg_norm(x, pair.phi_star)

    def test_zero_sample_and_validation(self):
        pair = young_pair(exp_utility(1.0))
        assert luxemburg_norm(np.zeros(4), pair.phi_star) == 0.0
        with pytest.raises(ConfigError):
            luxemburg_norm(np.asarray([]), pair.phi_star)
        with pytest.raises(ConfigError):
            luxemburg_norm(np.asarray([1.0, np.inf]), pair.phi_star)


class TestAssumptions:
    @pytest.mark.parametrize("a", [1e-12, 1e-10, 1e-6, 1.0, 7.0, 7.2, 50.0, 1e300])
    def test_exp_utility_passes_at_every_rate(self, a):
        # past a = 7.1, U(-100) and U(-1000) overflow to -inf; below a = 1e-9,
        # 1 - exp(-a x) would lose the digits that U(x)/x rises by
        assert check_assumptions(exp_utility(a)) == ()
        assert growth_ok(exp_utility(a))

    def test_linear_utility_fails_boundedness(self):
        assert "appears unbounded above" in check_assumptions(linear_utility())

    def test_table_rising_ever_so_slowly_fails_boundedness(self):
        # the last slope 1e-6 rises only 1 between the tail probes 1e6 and 1e8
        rising = table_utility([-2.0, -1.0, 0.0, 1.0, 2.0], [-5.0, -2.0, 0.0, 1.0, 1.000001])
        assert check_assumptions(rising) == ("appears unbounded above",)
        assert not growth_ok(rising)
        flat = table_utility([-2.0, -1.0, 0.0, 1.0, 2.0], [-5.0, -2.0, 0.0, 1.0, 1.0])
        assert check_assumptions(flat) == ()

    def test_shifted_utility_fails_normalization(self):
        base = exp_utility(1.0)
        u = dataclasses.replace(base, name="shifted", fn=lambda x: base(x) + 1.0, conj=lambda y: base.conj(y) + 1.0)
        assert check_assumptions(u) == ("U(0) != 0",)

    def test_positive_domain_rejected(self):
        with pytest.raises(ConfigError):
            check_assumptions(log_utility())


class TestTableUtility:
    def test_interpolation_and_extrapolation(self):
        u = table_utility([-1.0, 0.0, 1.0, 2.0], [-2.0, 0.0, 1.0, 1.5])
        assert u.domain == "real"
        np.testing.assert_allclose(u(np.asarray([0.5])), [0.5])
        # left of the knots: slope 2 through (-1, -2)
        np.testing.assert_allclose(u(np.asarray([-3.0])), [-6.0])
        # right of the knots: slope 0.5 through (2, 1.5)
        np.testing.assert_allclose(u(np.asarray([4.0])), [2.5])

    def test_positive_domain_when_knots_are_positive(self):
        u = table_utility([0.5, 1.0, 2.0], [0.0, 0.5, 0.75])
        assert u.domain == "positive"
        assert u(np.asarray([-1.0]))[0] == -np.inf

    def test_validation(self):
        with pytest.raises(ConfigError):
            table_utility([0.0, 0.0, 1.0], [0.0, 0.1, 0.2])
        with pytest.raises(ConfigError):
            table_utility([0.0, 1.0, 2.0], [0.0, 0.1, 0.5])  # convex kink
        with pytest.raises(ConfigError):
            table_utility([0.0, 1.0], [1.0, 0.0])  # decreasing


class TestGrowth:
    def test_asymptotic_elasticity_of_closed_forms(self):
        assert log_utility().elasticity == 0.0
        assert power_utility(0.4).elasticity == 0.4

    def test_table_elasticity_reads_the_last_knot_slope(self):
        rising = table_utility([0.1, 1.0, 4.0], [-2.0, 0.0, 1.0])
        flat = table_utility([0.5, 1.0, 2.0, 4.0], [-1.0, 0.0, 0.5, 0.5])
        assert rising.elasticity == 1.0
        assert not growth_ok(rising)
        assert flat.elasticity == 0.0
        assert growth_ok(flat)

    def test_growth_verdicts(self):
        assert growth_ok(log_utility())
        assert growth_ok(power_utility(0.9))
        assert growth_ok(exp_utility(1.0))
        # whole line: the structural checks decide, and a linear U is unbounded above
        assert not growth_ok(linear_utility())
        unknown = sqrt_utility()
        assert math.isnan(unknown.elasticity)
        assert not growth_ok(unknown)


class TestScaledValue:
    @pytest.mark.parametrize(
        "u", [log_utility(), power_utility(0.4), exp_utility(1.5), table_utility([0.5, 1.0], [0.0, 1.0])],
        ids=["log", "power", "exp", "table"],
    )
    def test_scale_one_is_the_value_bit_for_bit(self, u):
        for value in (0.1, -0.7, 1.0 / 3.0):
            assert scaled_value(u, value, 0.5, 1.0) == value

    def test_utilities_without_an_identity_give_none(self):
        assert scaled_value(table_utility([0.5, 1.0], [0.0, 1.0]), 0.3, 1.0, 4.0) is None
        assert scaled_value(sqrt_utility(), 0.3, 1.0, 4.0) is None

    def test_exp_is_a_translation(self):
        # at x0 = 0 every endowment is the same, so the value does not move
        u = exp_utility(2.0)
        assert scaled_value(u, 0.25, 0.0, 16.0) == 0.25
        assert scaled_value(u, 0.25, 0.5, 3.0) == pytest.approx(1.0 - math.exp(-2.0) * 0.75, rel=1e-15)
        # deep in debt the scaled value overflows to -inf rather than raising
        assert scaled_value(u, -1.0, -50.0, 16.0) == -math.inf
